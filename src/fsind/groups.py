"""Finite groups as multiplication tables on integer indices.

Elements of a group of order n are the integers 0..n-1, with 0 always the
identity.  Every group is tabulated as n rows of n indices, which keeps the
indicator loops at O(1) per product, and its axioms are checked exactly at
every order.
"""

from __future__ import annotations

import math
from operator import itemgetter


class SpecError(ValueError):
    """A malformed spec string or input file."""


class FiniteGroup:
    """A finite group on element indices 0..order-1 with identity 0."""

    __slots__ = ("order", "label", "_table", "_inv", "_orders")

    def __init__(self, order, mul, label="G", check=True):
        if order < 1:
            raise ValueError("group order must be positive")
        self.order = order
        self.label = label
        self._table = [[mul(g, h) for h in range(order)] for g in range(order)]
        # inverses come first: once every element has a right inverse, the
        # generators Light's test accepts generate a subgroup, so the check
        # picks at most log2(order) of them
        self._inv = self._build_inverses()
        if check:
            self._check_axioms()
        self._orders = [self._element_order(g) for g in range(order)]

    # -- structure ----------------------------------------------------------

    def mul(self, g, h):
        return self._table[g][h]

    @property
    def identity(self):
        return 0

    def inv(self, g):
        return self._inv[g]

    def _build_inverses(self):
        inv = []
        for g, row in enumerate(self._table):
            try:
                inv.append(row.index(0))
            except ValueError:
                raise ValueError(f"element {g} has no inverse") from None
        return inv

    def _check_axioms(self):
        """Identity, then Light's associativity test (Clifford & Preston,
        The Algebraic Theory of Semigroups I, section 1.2).

        The elements s with (x*s)*y == x*(s*y) for all x, y are closed under
        multiplication, so testing a generating set tests every triple.  Each
        generator is the first element the earlier ones do not generate, and
        costs one row comparison per x.
        """
        table = self._table
        n = self.order
        for g in range(n):
            if table[g][0] != g or table[0][g] != g:
                raise ValueError(f"element 0 is not a two-sided identity at {g}")
        gens = []
        covered = {0}
        for s in range(n):
            if s in covered:
                continue
            get = itemgetter(*table[s])
            for x, row in enumerate(table):
                right = get(row)  # x*(s*y) for every y
                left = table[row[s]]  # (x*s)*y for every y
                if list(right) != left:
                    y = next(y for y in range(n) if left[y] != right[y])
                    raise ValueError(f"multiplication is not associative at {(x, s, y)}")
            gens.append(s)
            covered = set(self.generated_subgroup(gens))

    # -- element queries ----------------------------------------------------

    def power(self, g, k):
        """g^k by square-and-multiply; negative k via the inverse."""
        if k < 0:
            return self.power(self.inv(g), -k)
        acc = 0
        base = g
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def _element_order(self, g):
        k = 1
        x = g
        while x != 0:
            x = self.mul(x, g)
            k += 1
        return k

    def element_order(self, g):
        return self._orders[g]

    def torsion(self, n):
        """All g with g^n = identity (equivalently: order of g divides n)."""
        if n < 1:
            raise ValueError("n must be positive")
        return [g for g in range(self.order) if n % self.element_order(g) == 0]

    def exponent(self):
        e = 1
        for g in range(self.order):
            e = math.lcm(e, self.element_order(g))
        return e

    def conjugacy_classes(self):
        """Partition of 0..order-1 into conjugacy classes (each sorted)."""
        seen = [False] * self.order
        classes = []
        for g in range(self.order):
            if seen[g]:
                continue
            cls = set()
            for x in range(self.order):
                cls.add(self.mul(self.mul(x, g), self.inv(x)))
            for h in cls:
                seen[h] = True
            classes.append(sorted(cls))
        return classes

    def centralizer(self, g):
        return [x for x in range(self.order) if self.mul(x, g) == self.mul(g, x)]

    def generated_subgroup(self, generators):
        """Sorted element list of the subgroup generated by the given elements."""
        closure = {0}
        frontier = [0]
        gens = list(generators)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.mul(x, g)
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        return sorted(closure)

    def subgroup(self, elements, label=None):
        """The subgroup on a multiplicatively closed element subset, reindexed."""
        elems = sorted(set(elements))
        if not elems or elems[0] != 0:
            raise ValueError("subgroup must contain the identity")
        pos = {g: i for i, g in enumerate(elems)}
        for g in elems:
            for h in elems:
                if self.mul(g, h) not in pos:
                    raise ValueError("element subset is not closed under multiplication")
        sub = FiniteGroup(
            len(elems),
            lambda i, j: pos[self.mul(elems[i], elems[j])],
            label=label or f"{self.label}-sub{len(elems)}",
            check=False,
        )
        return sub, elems

    def __repr__(self):
        return f"FiniteGroup({self.label}, order={self.order})"


# ---------------------------------------------------------------------------
# constructors


def make_cyclic(n):
    """The cyclic group Z_n (addition mod n)."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    return FiniteGroup(n, lambda a, b: (a + b) % n, label=f"Z{n}", check=False)


def make_dihedral(two_l):
    """The dihedral group of order two_l; element 2i+j encodes r^i s^j."""
    if two_l < 4 or two_l % 2:
        raise ValueError("dihedral order must be an even integer >= 4")
    half = two_l // 2

    def mul(g, h):
        i1, j1 = divmod(g, 2)
        i2, j2 = divmod(h, 2)
        # r^i1 s^j1 * r^i2 s^j2 = r^(i1 + (-1)^j1 i2) s^(j1+j2)
        i = (i1 + (i2 if j1 == 0 else -i2)) % half
        return 2 * i + (j1 + j2) % 2

    return FiniteGroup(two_l, mul, label=f"D{two_l}", check=False)


def direct_product(a, b):
    """A x B with pair (x, y) encoded as x*|B| + y."""
    nb = b.order

    def mul(g, h):
        x1, y1 = divmod(g, nb)
        x2, y2 = divmod(h, nb)
        return a.mul(x1, x2) * nb + b.mul(y1, y2)

    return FiniteGroup(
        a.order * b.order, mul, label=f"({a.label}x{b.label})", check=False
    )


# ---------------------------------------------------------------------------
# table files and spec strings


def spec_int(token, message):
    """`token` read as an integer, or a SpecError with the given message."""
    try:
        return int(token)
    except ValueError:
        raise SpecError(message) from None


def group_from_table_file(path):
    """Load a group from a text table: `order N` then N rows of N indices."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2 or tokens[0] != "order":
        raise SpecError("table file must start with 'order N'")
    word = tokens[1]
    n = spec_int(word, f"table file header 'order N': expected an integer, got {word!r}")
    body = tokens[2:]
    if len(body) != n * n:
        raise SpecError(f"expected {n * n} table entries, found {len(body)}")
    rows = [body[i * n:(i + 1) * n] for i in range(n)]
    for i, row in enumerate(rows):
        for j, token in enumerate(row):
            v = row[j] = spec_int(
                token, f"table row {i}, column {j}: expected an integer, got {token!r}"
            )
            if not 0 <= v < n:
                raise SpecError(f"table row {i}, column {j}: entry {v} out of range 0..{n - 1}")
    return FiniteGroup(n, lambda g, h: rows[g][h], label="table", check=True)


def parse_group_spec(spec):
    """Parse `cyclic:N`, `dihedral:M`, `product:<a>,<b>`, `table:<path>`."""
    kind, _, rest = spec.partition(":")
    if kind in ("cyclic", "dihedral"):
        order = spec_int(rest, f"{kind} expects an integer order, got {spec!r}")
        return make_cyclic(order) if kind == "cyclic" else make_dihedral(order)
    if kind == "table":
        return group_from_table_file(rest)
    if kind == "product":
        # split at the first comma: the left factor is a simple spec, the
        # right factor absorbs the rest (so nested products nest rightward)
        left, sep, right = rest.partition(",")
        if not sep:
            raise SpecError(f"product spec needs two comma-separated parts: {rest!r}")
        return direct_product(parse_group_spec(left), parse_group_spec(right))
    raise SpecError(f"unknown group spec: {spec!r}")
