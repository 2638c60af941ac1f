"""Finite groups as multiplication tables on integer indices.

Elements of a group of order n are the integers 0..n-1, with 0 always the
identity.  A group is tabulated as n rows of n indices on first need of a
product; the powers of an element, all an indicator, `power` or `inv` reads,
need none (Z_n and every built-in bicrossed product walk them through their
factors).  Only table files and callers' tables get the exact axiom check.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import getitem, itemgetter

# The largest order tabulated: n^2 entries cost about 8 bytes each, so a
# group of this order takes about 134 MB.  Every built-in grid, script and
# benchmark stays far below it (800 at most).
MAX_ORDER = 4096


class SpecError(ValueError):
    """A malformed spec string or input file."""


def check_order(order):
    """Refuse an order above MAX_ORDER; a builder calls this before it builds
    any factor of the group."""
    if order > MAX_ORDER:
        raise SpecError(f"group order {order} exceeds the limit of {MAX_ORDER}")


class FiniteGroup:
    """A finite group on element indices 0..order-1 with identity 0."""

    __slots__ = ("order", "label", "_source", "_rows", "_orders", "_gens")

    coset_block = 1  # claims no coset structure (see BicrossedGroup.coset_block)

    def __init__(self, order, mul, label="G", check=True):
        """`mul` is the product as a callable mul(g, h), or the rows of the
        table: an iterable of `order` lists of `order` indices, read once, on
        first need of the table (so a builder that yields rows makes none
        before).  The rows are kept as given, not copied, and checked only
        with `check=True`, at once; with `check=False` the caller vouches."""
        if order < 1:
            raise ValueError("group order must be positive")
        check_order(order)
        self.order = order
        self.label = label
        rows = mul
        if callable(mul):
            rows = (list(map(mul, repeat(g), range(order))) for g in range(order))
        self._source = rows  # None once read into _rows
        self._orders = self._gens = None
        if check:
            self._check_axioms()

    @property
    def _table(self):
        """The rows, read from the source on first need."""
        if self._source is not None:
            self._rows, self._source = list(self._source), None
        return self._rows

    # -- structure ----------------------------------------------------------

    def mul(self, g, h):
        try:  # a slot read, not the property: mul is the hot path
            return self._rows[g][h]
        except AttributeError:  # not tabulated yet
            return self._table[g][h]

    @property
    def identity(self):
        return 0

    def inv(self, g):
        return self.powers(g)[-1]

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
        """The one check of a table: its shape, the range of its entries, a 0
        in every row (a right inverse), the identity, then Light's
        associativity test (Clifford & Preston, The Algebraic Theory of
        Semigroups I, section 1.2).

        The elements s with (x*s)*y == x*(s*y) for all x, y are closed under
        multiplication in any table with a two-sided identity, group or not,
        and every element is a product of `generators()`, so testing those
        tests every triple.  Each costs one row comparison per x.  A monoid
        in which every element has a right inverse is a group.
        """
        table = self._table
        n = self.order
        if len(table) != n or set(map(len, table)) != {n}:
            raise ValueError(f"a group of order {n} needs {n} rows of {n} entries")
        for row in table:  # a negative entry would wrap round as a list index
            low, high = min(row), max(row)
            if low < 0 or high >= n:
                bad = low if low < 0 else high
                raise ValueError(f"a product {bad!r} is out of range 0..{n - 1}")
        for g, row in enumerate(table):
            if 0 not in row:
                raise ValueError(f"element {g} has no inverse")
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
        """g^k for any integer k, read from the walk powers(g)."""
        ps = self.powers(g)
        return ps[k % len(ps)]

    def powers(self, g):
        """[g^0, g^1, ..., g^(o-1)] with o = ord g, walked along row g."""
        row, out, x = self._table[g], [0], g
        while x:
            out.append(x)
            x = row[x]
            if len(out) > self.order:
                raise ValueError(f"element {g} has no finite order")
        return out

    def _element_orders(self):
        """Every element's order, from one walk per cyclic subgroup: if g has
        order k, then g^j has order k / gcd(j, k)."""
        orders = [0] * self.order
        for g in range(self.order):
            if not orders[g]:
                ps = self.powers(g)
                k = len(ps)
                for j, p in enumerate(ps):
                    orders[p] = k // math.gcd(j, k)
        return orders

    def element_order(self, g):
        if self._orders is None:
            self._orders = self._element_orders()
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
        invs = list(map(self.inv, range(self.order)))
        classes = []
        for g in range(self.order):
            if seen[g]:
                continue
            cls = set()
            for x, x_inv in enumerate(invs):
                cls.add(self.mul(self.mul(x, g), x_inv))
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


def bicrossed_rows(f_group, g_group, left, right):
    """The rows of the bicrossed product F |><| G on pairs (x, g) encoded as
    x*|G| + g, with (x, g)(y, h) = (x (g |> y), (g <| y) h).

    left[g][y] = g |> y (in F) and right[g][y] = g <| y (in G) are the action
    tables.  Row (x, 1) is F's row x with each entry x' widened to the block
    x'*|G| + (0..|G|-1) of one pool of ints, and row (1, g) has slice y =
    G's row g <| y read through block g |> y.  Since (x, g) = (x, 1)(1, g),
    row (x, g) is row (x, 1) read at the entries of row (1, g): the walk
    takes G outermost and makes row (1, g) one itemgetter, built once per g,
    which gives each row (x, g) in one call.  No Python code runs per entry,
    and every entry equal to p is the one object pool[p].  The rows are
    placed at x*|G| + g, then yielded, for FiniteGroup.
    """
    nf, ng = f_group.order, g_group.order
    n = nf * ng
    pool = list(range(n))
    blocks = [pool[x * ng:(x + 1) * ng] for x in range(nf)]
    parts = [slice(y * ng, (y + 1) * ng) for y in range(nf)]
    g_rows = g_group._table
    firsts = [list(chain.from_iterable(map(blocks.__getitem__, row))) for row in f_group._table]
    rows = [None] * n
    rows[::ng] = firsts  # the rows (x, 1)
    for g in range(1, ng):  # so n > 1, and the itemgetter returns a tuple
        rows[g] = row = [0] * n  # row (1, g)
        for part, ly, ry in zip(parts, left[g], right[g]):
            row[part] = map(blocks[ly].__getitem__, g_rows[ry])
        get = itemgetter(*row)
        for x in range(1, nf):
            rows[x * ng + g] = list(get(firsts[x]))
    yield from rows


@dataclass
class MatchedPair:
    """Groups F, G with their action tables, each |G| rows of |F| entries:
    act_left[g][y] = g |> y in F and act_right[g][y] = g <| y in G.

    Construction is the one check of the pair: the order cap (before any
    factor is tabulated), shape, every value in range (none wraps round as a
    list index), the identity row and column, and the four laws that make
    F |><| G a group (Majid 1995, 6.2), each read only at generators of G or
    F, which suffices by induction on word length.
    """

    F: FiniteGroup
    G: FiniteGroup
    act_right: list  # act_right[g][y] = g <| y in G
    act_left: list  # act_left[g][y] = g |> y in F

    def __post_init__(self):
        nf, ng = self.F.order, self.G.order
        check_order(nf * ng)
        left, right, fm, gm = self.act_left, self.act_right, self.F._table, self.G._table
        flats = []  # each table read once, flat over (g, y) at g*|F| + y
        for table, act, bound in ((left, "g |> y", nf), (right, "g <| y", ng)):
            if len(table) != ng or set(map(len, table)) != {nf}:
                raise ValueError(f"action {act} needs |G| = {ng} rows of |F| = {nf} entries")
            flats.append(flat := list(chain.from_iterable(table)))
            if min(flat) < 0 or max(flat) >= bound:
                i = next(i for i, v in enumerate(flat) if not 0 <= v < bound)
                raise ValueError(
                    f"action {act} at (g, y) = {divmod(i, nf)} is {flat[i]!r},"
                    f" out of range 0..{bound - 1}"
                )
        fl, fr = flats
        if fl[:nf] != list(range(nf)):
            raise ValueError("identity of G must act trivially on F")
        if fr[::nf] != list(range(ng)):
            raise ValueError("identity of F must act trivially on G")

        def law(text, names, s, want, got):  # both flat over (row, y)
            if (want := list(want)) != (got := list(got)):
                r, y = divmod(next(i for i, w in enumerate(want) if w != got[i]), nf)
                raise ValueError(f"not a matched pair: {text} fails at {names} = {(s, r, y)}")
        for g in self.G.generators():  # at h = 1 they give 1 <| y = 1
            lgh, rgh = (chain.from_iterable(map(t.__getitem__, gm[g])) for t in (left, right))
            law("(gh)|>y = g|>(h|>y)", "(g, h, y)", g, lgh, map(left[g].__getitem__, fl))
            got = map(getitem, map(gm.__getitem__, map(right[g].__getitem__, fl)), fr)
            law("(gh)<|y = (g<|(h|>y))(h<|y)", "(g, h, y)", g, rgh, got)
        for x in self.F.generators():  # at y = 1 they give g |> 1 = 1
            lx, rx, col = fl[x::nf], fr[x::nf], [row[x] for row in fm]  # col: y*x, each y
            yx = [base + c for base in range(0, nf * ng, nf) for c in col]  # at (g, y*x)
            lyx, ryx = (map(t.__getitem__, yx) for t in (fl, fr))
            law("g<|(yx) = (g<|y)<|x", "(x, g, y)", x, ryx, map(rx.__getitem__, fr))
            got = map(getitem, map(fm.__getitem__, fl), map(lx.__getitem__, fr))
            law("g|>(yx) = (g|>y)((g<|y)|>x)", "(x, g, y)", x, lyx, got)


def trivial_actions(nf, ng):
    """The trivial (act_right, act_left) for |F| = nf, |G| = ng, built past the order cap."""
    check_order(nf * ng)
    return [[g] * nf for g in range(ng)], [range(nf)] * ng


def trivial_pair(f_group, g_group):
    return MatchedPair(f_group, g_group, *trivial_actions(f_group.order, g_group.order))


class BicrossedGroup(FiniteGroup):
    """F |><| G of a matched pair, on pairs (x, g) encoded as x*|G| + g (as
    in bicrossed_rows), built unchecked, since constructing the pair checked
    it, and tabulated on first need."""

    __slots__ = ("pair",)

    def __init__(self, pair, label=None):
        self.pair = pair
        f_group, g_group = pair.F, pair.G
        rows = bicrossed_rows(f_group, g_group, pair.act_left, pair.act_right)
        label = label or f"({f_group.label}|><|{g_group.label})"
        super().__init__(f_group.order * g_group.order, rows, label, check=False)

    @property
    def coset_block(self):
        """|G|: blocks of |G| indices are the left cosets of G, as (x, g)(1, h) = (x, gh)."""
        return self.pair.G.order

    def powers(self, p):
        """The powers of p = (x, g) through the factor and action tables, no
        product table.  (x, g)^(k+1) has F-part x (g |> x_k), that of
        (x, g)(x_k, g_k), and G-part (g_k <| x) g, that of (x_k, g_k)(x, g),
        so each part steps from its own last value."""
        pair = self.pair
        ng = pair.G.order
        x, g = divmod(p, ng)
        fx, lg, gm, right = pair.F._table[x], pair.act_left[g], pair.G._table, pair.act_right
        out, xk, gk = [0], x, g
        while xk or gk:
            out.append(xk * ng + gk)
            xk, gk = fx[lg[xk]], gm[right[gk][x]][g]
        return out


class CyclicGroup(FiniteGroup):
    """Z_n (addition mod n), whose powers are multiples: no table."""

    __slots__ = ()

    def powers(self, g):
        n = self.order
        return [k * g % n for k in range(n // math.gcd(g, n))]


def make_cyclic(n):
    """The cyclic group Z_n (addition mod n)."""

    def rows():  # one shared row, rotated
        base = list(range(n))
        for g in range(n):
            yield base[g:] + base[:g]

    return CyclicGroup(n, rows(), label=f"Z{n}", check=False)


def make_dihedral(two_l):
    """The dihedral group Z_half |x Z_2 of order two_l; element 2i+j encodes
    r^i s^j, and s acts on r^i by inversion."""
    if two_l < 4 or two_l % 2:
        raise ValueError("dihedral order must be an even integer >= 4")
    check_order(two_l)
    half = two_l // 2
    left = [list(range(half)), [-y % half for y in range(half)]]
    right = [[0] * half, [1] * half]
    return BicrossedGroup(MatchedPair(make_cyclic(half), make_cyclic(2), right, left), f"D{two_l}")


def direct_product(a, b):
    """A x B with pair (x, y) encoded as x*|B| + y: both actions trivial."""
    return BicrossedGroup(trivial_pair(a, b), f"({a.label}x{b.label})")


# ---------------------------------------------------------------------------
# table files and spec strings


def spec_int(token, message):
    """`token` read as an integer, or a SpecError with the given message."""
    try:
        return int(token)
    except ValueError:
        raise SpecError(message) from None


@contextmanager
def records(path):
    """For one `with` block, the (line number, tokens) of each non-blank line of
    `path`, read a line at a time; the file is closed as the block ends, error or not."""
    with open(path, "r", encoding="utf-8") as fh:
        yield ((i, tokens) for i, line in enumerate(fh, 1) if (tokens := line.split()))


def group_from_table_file(path):
    """Load a group from a text table: `order N`, then the N*N indices in row
    order, in any whitespace layout.  The header is checked, against the order
    cap too, before the body is read, and each row as it is read."""
    with records(path) as recs:
        tokens = chain.from_iterable(t for _, t in recs)
        head = list(islice(tokens, 2))
        if len(head) < 2 or head[0] != "order":
            raise SpecError("table file must start with 'order N'")
        n = spec_int(head[1], f"table file header 'order N': expected an integer, got {head[1]!r}")
        check_order(n)
        pool, rows = list(range(n)), []
        for i in range(n):
            if len(row := list(tuple(islice(tokens, n)))) < n:  # via a tuple: exact size
                raise SpecError(f"expected {n * n} table entries, found {i * n + len(row)}")
            for j, token in enumerate(row):
                v = spec_int(token, f"table row {i}, column {j}: expected an integer, got {token!r}")
                if not 0 <= v < n:
                    raise SpecError(f"table row {i}, column {j}: entry {v} out of range 0..{n - 1}")
                row[j] = pool[v]
            rows.append(row)
        if (found := len(rows) * n + sum(1 for _ in tokens)) != n * n:
            raise SpecError(f"expected {n * n} table entries, found {found}")
    return FiniteGroup(n, rows, label="table", check=True)


def parse_group_spec(spec):
    """Parse `cyclic:N`, `dihedral:M`, `product:<a>,<b>`, `table:<path>`."""
    # split a product at its first comma: the left factor is a simple spec,
    # the right factor absorbs the rest (so nested products nest rightward);
    # a chain of products is read in a loop, not by recursion, and its
    # factors are built left to right and folded from the right
    factors = []
    kind, _, rest = spec.partition(":")
    while kind == "product":
        left, sep, spec = rest.partition(",")
        if not sep:
            raise SpecError(f"product spec needs two comma-separated parts: {rest!r}")
        factors.append(parse_group_spec(left))
        kind, _, rest = spec.partition(":")
    if kind in ("cyclic", "dihedral"):
        order = spec_int(rest, f"{kind} expects an integer order, got {spec!r}")
        grp = make_cyclic(order) if kind == "cyclic" else make_dihedral(order)
    elif kind == "table":
        grp = group_from_table_file(rest)
    else:
        raise SpecError(f"unknown group spec: {spec!r}")
    for left in reversed(factors):  # each pair check tabulates grp, so no table recurses
        grp = direct_product(left, grp)
    return grp
