"""Finite groups as multiplication tables on integer indices.

Elements of a group of order n are the integers 0..n-1, with 0 always the
identity.  Every group is tabulated as n rows of n indices, which keeps the
indicator loops at O(1) per product, and its axioms are checked exactly at
every order.  Every built-in group is a bicrossed product, and
`bicrossed_rows` builds its rows from the rows of its two factors.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import itemgetter

# The largest order tabulated: n^2 entries cost about 8 bytes each, so a
# group of this order takes about 134 MB.  Every built-in grid, script and
# benchmark stays far below it (800 at most).
MAX_ORDER = 4096


class SpecError(ValueError):
    """A malformed spec string or input file."""


class FiniteGroup:
    """A finite group on element indices 0..order-1 with identity 0."""

    __slots__ = ("order", "label", "_table", "_inv", "_orders", "_gens")

    def __init__(self, order, mul, label="G", check=True):
        """`mul` is the product as a callable mul(g, h), or the rows of the
        table: an iterable of `order` lists of `order` indices, read once,
        after the order cap (so a builder that yields rows makes none for a
        rejected order).  The rows are kept as given, not copied."""
        if order < 1:
            raise ValueError("group order must be positive")
        if order > MAX_ORDER:
            raise SpecError(f"group order {order} exceeds the limit of {MAX_ORDER}")
        self.order = order
        self.label = label
        rows = mul
        if callable(mul):
            # every entry equal to x becomes one shared int object (above 256
            # it would otherwise be an object of its own)
            get = {x: x for x in range(order)}.get
            rows = ([get(v, v) for v in map(mul, repeat(g), range(order))] for g in range(order))
        self._table = table = list(rows)
        if len(table) != order or set(map(len, table)) != {order}:
            raise ValueError(f"a group of order {order} needs {order} rows of {order} entries")
        for row in table:  # a negative entry would wrap round as a list index
            low, high = min(row), max(row)
            if low < 0 or high >= order:
                bad = low if low < 0 else high
                raise ValueError(f"a product {bad!r} is out of range 0..{order - 1}")
        self._gens = None
        self._inv = self._build_inverses()
        if check:
            self._check_axioms()
        self._orders = self._element_orders()

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

    def generators(self):
        """An irredundant generating set, computed once: the greedy one (each
        element the earlier ones do not generate) less every element the
        others generate.  In a group it has at most log2(order) elements."""
        if self._gens is None:
            gens, covered = [], {0}
            for s in range(self.order):
                if s not in covered:
                    gens.append(s)
                    covered = set(self.generated_subgroup(gens))
            for s in list(gens):
                rest = [t for t in gens if t != s]
                if len(self.generated_subgroup(rest)) == self.order:
                    gens = rest
            self._gens = tuple(gens)
        return self._gens

    def _check_axioms(self):
        """Identity, then Light's associativity test (Clifford & Preston,
        The Algebraic Theory of Semigroups I, section 1.2).

        The elements s with (x*s)*y == x*(s*y) for all x, y are closed under
        multiplication in any table with a two-sided identity, group or not,
        and every element is a product of `generators()`, so testing those
        tests every triple.  Each costs one row comparison per x.
        """
        table = self._table
        n = self.order
        for g in range(n):
            if table[g][0] != g or table[0][g] != g:
                raise ValueError(f"element 0 is not a two-sided identity at {g}")
        for s in self.generators():
            get = itemgetter(*table[s])
            for x, row in enumerate(table):
                right = get(row)  # x*(s*y) for every y
                left = table[row[s]]  # (x*s)*y for every y
                if list(right) != left:
                    y = next(y for y in range(n) if left[y] != right[y])
                    raise ValueError(f"multiplication is not associative at {(x, s, y)}")

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

    def _element_orders(self):
        """Every element's order, from one walk per cyclic subgroup: if g has
        order k, then g^j has order k / gcd(j, k)."""
        n = self.order
        orders = [0] * n
        orders[0] = 1
        for g, row in enumerate(self._table):
            if orders[g]:
                continue
            powers = [g]  # g^1 .. g^k, with g^k = 1
            x = g
            while x:
                x = row[x]
                powers.append(x)
                if len(powers) > n:
                    raise ValueError(f"element {g} has no finite order")
            k = len(powers)
            for j, p in enumerate(powers, 1):
                orders[p] = k // math.gcd(j, k)
        return orders

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
        table = self._table
        rows = [[pos.get(table[g][h]) for h in elems] for g in elems]
        if any(None in row for row in rows):
            raise ValueError("element subset is not closed under multiplication")
        sub = FiniteGroup(
            len(elems), rows, label=label or f"{self.label}-sub{len(elems)}", check=False
        )
        return sub, elems

    def __repr__(self):
        return f"FiniteGroup({self.label}, order={self.order})"


# ---------------------------------------------------------------------------
# constructors


def bicrossed_rows(f, g, left, right):
    """The rows of the bicrossed product F |><| G on pairs (x, g) encoded as
    x*|G| + g, with (x, g)(y, h) = (x (g |> y), (g <| y) h).

    left[g][y] = g |> y (in F) and right[g][y] = g <| y (in G) are the action
    tables.  Row (x, g) is |F| slices, each filled at C speed: slice y is G's
    row g <| y read through block x' = x (g |> y) of one pool of ints, so no
    Python code runs per entry and every entry equal to p is the one object
    pool[p].  Rows are yielded one at a time, for FiniteGroup.
    """
    ng = g.order
    n = f.order * ng
    pool = list(range(n))
    blocks = [pool[x * ng:(x + 1) * ng].__getitem__ for x in range(f.order)]
    parts = [slice(y * ng, (y + 1) * ng) for y in range(f.order)]
    g_rows = g._table
    for f_row in f._table:
        for lrow, rrow in zip(left, right):
            row = [0] * n  # allocated at its length: list.extend would leave slack
            for part, ly, ry in zip(parts, lrow, rrow):
                row[part] = map(blocks[f_row[ly]], g_rows[ry])
            yield row


def make_cyclic(n):
    """The cyclic group Z_n (addition mod n)."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")

    def rows():  # one shared row, rotated
        base = list(range(n))
        for g in range(n):
            yield base[g:] + base[:g]

    return FiniteGroup(n, rows(), label=f"Z{n}", check=False)


def make_dihedral(two_l):
    """The dihedral group Z_half |x Z_2 of order two_l; element 2i+j encodes
    r^i s^j, and s acts on r^i by inversion."""
    if two_l < 4 or two_l % 2:
        raise ValueError("dihedral order must be an even integer >= 4")
    half = two_l // 2
    left = [list(range(half)), [-y % half for y in range(half)]]
    right = [[0] * half, [1] * half]
    rows = bicrossed_rows(make_cyclic(half), make_cyclic(2), left, right)
    return FiniteGroup(two_l, rows, label=f"D{two_l}", check=False)


def direct_product(a, b):
    """A x B with pair (x, y) encoded as x*|B| + y: both actions trivial."""
    na, nb = a.order, b.order
    rows = bicrossed_rows(a, b, [range(na)] * nb, [[y] * na for y in range(nb)])
    return FiniteGroup(na * nb, rows, label=f"({a.label}x{b.label})", check=False)


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

    def rows():
        pool = list(range(n))
        for i in range(n):
            row = body[i * n:(i + 1) * n]
            for j, token in enumerate(row):
                v = spec_int(token, f"table row {i}, column {j}: expected an integer, got {token!r}")
                if not 0 <= v < n:
                    raise SpecError(f"table row {i}, column {j}: entry {v} out of range 0..{n - 1}")
                row[j] = pool[v]
            yield row

    return FiniteGroup(n, rows(), label="table", check=True)


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
