"""Finite group structures: constructors, torsion, conjugacy, table files."""

from __future__ import annotations

import math
import re
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsind import extensions, groups
from fsind.groups import (
    MAX_ORDER,
    BicrossedGroup,
    FiniteGroup,
    MatchedPair,
    SpecError,
    direct_product,
    group_from_table_file,
    make_cyclic,
    make_dihedral,
    parse_group_spec,
    trivial_pair,
)
from fsind.extensions import FAMILIES, parse_family_spec

DATA = Path(__file__).parent.parent / "data"


def quaternion_table():
    """Q_8 as a multiplication table; index 2u + s encodes (+/-)(1, i, j, k)."""
    units = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
        (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
    }

    def mul(g, h):
        u1, s1 = divmod(g, 2)
        u2, s2 = divmod(h, 2)
        sign, u = units[(u1, u2)]
        return 2 * u + (s1 + s2 + sign) % 2

    return [[mul(g, h) for h in range(8)] for g in range(8)]


def group_table(grp):
    return [[grp.mul(g, h) for h in range(grp.order)] for g in range(grp.order)]


def is_group_table(rows):
    """The cubic oracle: 0 is a two-sided identity, every triple associates
    and every element has a two-sided inverse."""
    r = range(len(rows))
    if any(rows[0][g] != g or rows[g][0] != g for g in r):
        return False
    if any(rows[rows[a][b]][c] != rows[a][rows[b][c]] for a in r for b in r for c in r):
        return False
    return all(any(rows[g][h] == 0 == rows[h][g] for h in r) for g in r)


# group tables of order at most 32, and each with one entry moved
_Q8_ROWS = quaternion_table()
_Q8 = FiniteGroup(8, lambda g, h: _Q8_ROWS[g][h], label="Q8")
GROUP_TABLES = [_Q8_ROWS] + [group_table(make_dihedral(2 * k)) for k in range(2, 17)] + [
    group_table(grp)
    for grp in (
        direct_product(_Q8, make_cyclic(2)),
        direct_product(_Q8, make_cyclic(4)),
        direct_product(make_cyclic(2), make_cyclic(2)),
        direct_product(make_cyclic(2), direct_product(make_cyclic(2), make_cyclic(2))),
        direct_product(make_cyclic(3), make_dihedral(6)),
        direct_product(make_dihedral(8), make_cyclic(4)),
        direct_product(make_cyclic(5), make_cyclic(6)),
    )
]


def _altered(rows):
    n = len(rows)

    def alter(entry):
        g, h, shift = entry
        out = [row[:] for row in rows]
        out[g][h] = (out[g][h] + shift) % n
        return out

    moved = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, n - 1))
    return st.just(rows) | moved.map(alter)


# the per-entry multiplication closures the constructors used before they
# were built from their factors' rows, kept as the oracle


def cyclic_mul(n):
    return lambda a, b: (a + b) % n


def dihedral_mul(two_l):
    half = two_l // 2

    def mul(g, h):
        i1, j1 = divmod(g, 2)
        i2, j2 = divmod(h, 2)
        # r^i1 s^j1 * r^i2 s^j2 = r^(i1 + (-1)^j1 i2) s^(j1+j2)
        i = (i1 + (i2 if j1 == 0 else -i2)) % half
        return 2 * i + (j1 + j2) % 2

    return mul


def product_mul(a_mul, b_mul, nb):
    def mul(g, h):
        x1, y1 = divmod(g, nb)
        x2, y2 = divmod(h, nb)
        return a_mul(x1, x2) * nb + b_mul(y1, y2)

    return mul


def orders_by_walk(order, mul):
    """ord g for every g, by multiplying by g until the identity comes back."""
    out = []
    for g in range(order):
        k, x = 1, g
        while x != 0:
            x = mul(x, g)
            k += 1
        out.append(k)
    return out


# (group, order, closure) for Z_1..Z_12 and D_4..D_16 from make_cyclic and
# make_dihedral, and for the direct_product of two of them
_SIMPLE = st.one_of(
    st.integers(1, 12).map(lambda n: (make_cyclic(n), n, cyclic_mul(n))),
    st.integers(2, 8).map(lambda k: (make_dihedral(2 * k), 2 * k, dihedral_mul(2 * k))),
)
BUILT_GROUPS = _SIMPLE | st.tuples(_SIMPLE, _SIMPLE).map(
    lambda ab: (
        direct_product(ab[0][0], ab[1][0]),
        ab[0][1] * ab[1][1],
        product_mul(ab[0][2], ab[1][2], ab[1][1]),
    )
)


@pytest.fixture
def q8():
    rows = quaternion_table()
    return FiniteGroup(8, lambda g, h: rows[g][h], label="Q8")


class TestConstructors:
    def test_cyclic(self):
        z6 = make_cyclic(6)
        assert z6.order == 6
        assert z6.mul(4, 5) == 3
        assert z6.element_order(1) == 6
        assert z6.exponent() == 6

    def test_dihedral(self):
        d8 = make_dihedral(8)
        assert d8.order == 8
        assert d8.exponent() == 4
        # reflections have order 2
        assert all(d8.element_order(2 * i + 1) == 2 for i in range(4))
        # s r s = r^-1
        s = 1
        r = 2
        assert d8.mul(d8.mul(s, r), s) == d8.inv(r)

    def test_direct_product(self):
        g = direct_product(make_cyclic(3), make_cyclic(4))
        assert g.order == 12 and g.exponent() == 12
        assert g.element_order(1 * 4 + 1) == 12

    def test_identity_is_zero(self):
        for g in (make_cyclic(5), make_dihedral(6)):
            assert g.identity == 0
            assert all(g.mul(0, x) == x for x in range(g.order))

    def test_axiom_check_rejects_bad_table(self):
        with pytest.raises(ValueError):
            FiniteGroup(3, lambda g, h: (g + 2 * h) % 3)
        # an associative monoid with identity 0 and no inverses
        with pytest.raises(ValueError, match="has no inverse"):
            FiniteGroup(4, max)

    def test_out_of_range_products_are_rejected(self):
        # a negative entry must not wrap round to a valid index; with
        # check=False the caller vouches for the range
        with pytest.raises(ValueError, match=r"product -1 is out of range 0\.\.2"):
            FiniteGroup(3, lambda g, h: -1 if (g, h) == (1, 2) else (g + h) % 3, check=True)
        with pytest.raises(ValueError, match=r"product 3 is out of range 0\.\.2"):
            FiniteGroup(3, lambda g, h: 3 if (g, h) == (2, 0) else (g + h) % 3, check=True)

    def test_out_of_range_rows_are_rejected(self):
        with pytest.raises(ValueError, match=r"product -1 is out of range 0\.\.2"):
            FiniteGroup(3, [[0, 1, 2], [1, 2, -1], [2, 0, 1]], check=True)
        with pytest.raises(ValueError, match=r"product 3 is out of range 0\.\.2"):
            FiniteGroup(3, [[0, 1, 2], [1, 2, 0], [3, 0, 1]], check=True)

    def test_ragged_or_short_rows_are_rejected(self):
        for rows in (
            [[0, 1], [1]],  # a short row
            [[0, 1, 2], [1, 2, 0]],  # a missing row
            [[0, 1], [1, 0], [0, 1]],  # a row too many
            [[0, 1], [1, 0, 1]],  # a long row
        ):
            with pytest.raises(ValueError, match="needs 2 rows of 2 entries|needs 3 rows of 3"):
                FiniteGroup(len(rows[0]), rows)

    def test_table_entries_are_shared(self, tmp_path):
        # every entry equal to x is the same int object, above 256 too
        grp = make_cyclic(600)
        assert grp.mul(299, 1) is grp.mul(1, 299) is grp.mul(599, 301)
        grp = parse_family_spec("h2n2:12:1").group  # order 288, from its factors' rows
        assert grp.order > 256
        assert len({id(grp.mul(g, h)) for g in range(grp.order) for h in range(grp.order)}) == 288
        path = tmp_path / "z17xz17.txt"
        prod = direct_product(make_cyclic(17), make_cyclic(17))
        path.write_text("order 289\n" + "\n".join(" ".join(map(str, row)) for row in group_table(prod)))
        grp = group_from_table_file(path)
        assert len({id(grp.mul(g, h)) for g in range(289) for h in range(289)}) == 289

    def test_order_cap_is_checked_before_any_row(self):
        def rows():
            raise AssertionError("a row was read")
            yield  # pragma: no cover

        with pytest.raises(SpecError, match=f"exceeds the limit of {MAX_ORDER}"):
            FiniteGroup(MAX_ORDER + 1, rows())
        # 4 * 10^8, 1.6 * 10^9 and 1.6 * 10^9 entries, were they built
        for spec in ("cyclic:20000", "product:cyclic:200,cyclic:200", "dihedral:40000"):
            with pytest.raises(SpecError, match="exceeds the limit"):
                parse_group_spec(spec)

    def test_order_cap_is_checked_before_any_factor(self, monkeypatch):
        def no_factor(n):
            raise AssertionError(f"a factor of order {n} was built")

        monkeypatch.setattr(groups, "make_cyclic", no_factor)
        monkeypatch.setattr(extensions, "make_cyclic", no_factor)
        monkeypatch.setattr(extensions, "make_dihedral", no_factor)
        with pytest.raises(SpecError, match=f"group order 8000 exceeds the limit of {MAX_ORDER}"):
            parse_group_spec("dihedral:8000")  # Z_4000 would be built first
        for spec, order in (
            ("suzuki:32:33:-1:1", 4224),
            ("h2n2:64:1", 8192),  # Z_64 x Z_64 would be built first
            ("hn3:63:1:1", 250047),
            ("suzukiP:2:2048:1", 16384),  # D_4096 would be built first
        ):
            with pytest.raises(SpecError, match=f"group order {order} exceeds the limit"):
                parse_family_spec(spec)

    def test_product_over_the_cap_is_refused_before_its_actions_are_built(self):
        # the trivial actions of Z_4096 x Z_4096 would be 16.8 million entries
        tracemalloc.start()
        try:
            with pytest.raises(SpecError, match="group order 16777216 exceeds the limit of 4096"):
                parse_group_spec("product:cyclic:4096,cyclic:4096")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak

    def test_pair_over_the_cap_is_refused_before_its_factors_are_tabulated(self):
        f_group, g_group = make_cyclic(4096), make_cyclic(2)
        with pytest.raises(SpecError, match="group order 8192 exceeds the limit"):
            MatchedPair(f_group, g_group, [[0] * 4096, [1] * 4096], [range(4096)] * 2)
        assert f_group._source is not None and g_group._source is not None

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(GROUP_TABLES).flatmap(_altered))
    def test_axiom_check_matches_cubic_oracle(self, rows):
        try:
            FiniteGroup(len(rows), lambda g, h: rows[g][h], check=True)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == is_group_table(rows)


class TestBuilders:
    @settings(max_examples=120, deadline=None)
    @given(BUILT_GROUPS)
    def test_constructors_match_the_closures(self, built):
        grp, order, mul = built
        assert grp.order == order
        assert group_table(grp) == [[mul(g, h) for h in range(order)] for g in range(order)]
        assert [grp.element_order(g) for g in range(order)] == orders_by_walk(order, mul)

    @pytest.mark.parametrize("spec", ["product:cyclic:5,cyclic:1", "product:cyclic:1,cyclic:5"])
    def test_product_with_the_trivial_group(self, spec):
        # at |G| = 1 an itemgetter of one index would return the bare entry,
        # not a tuple: every row must be a row (x, 1)
        assert group_table(parse_group_spec(spec)) == group_table(make_cyclic(5))


    def test_every_built_in_product_is_bicrossed_from_a_checked_pair(self):
        built = [make_dihedral(n) for n in (4, 6, 12)]
        built += [direct_product(make_cyclic(2), make_dihedral(6))]
        built += [parse_group_spec("product:cyclic:2,product:dihedral:6,cyclic:4")]
        built += [fam.build(*params).group for fam in FAMILIES.values() for params in fam.grid]
        for grp in built:
            assert isinstance(grp, BicrossedGroup) and isinstance(grp.pair, MatchedPair), grp
            assert grp.coset_block == grp.pair.G.order
        assert [g.label for g in built[:5]] == [
            "D4", "D6", "D12", "(Z2xD6)", "(Z2x(D6xZ4))"
        ]
        assert make_cyclic(6).coset_block == FiniteGroup(1, [[0]]).coset_block == 1
        assert BicrossedGroup(trivial_pair(make_cyclic(2), make_cyclic(3))).label == "(Z2|><|Z3)"


def power_test_group(kind, n):
    """Z_n, or a group of each other kind whose powers() is walked its own
    way: bicrossed products through their factors, a table file and a
    subgroup along a row."""
    if kind == "cyclic":
        return make_cyclic(n)
    if kind == "dihedral":
        return make_dihedral(14)
    if kind == "product":
        return direct_product(make_dihedral(6), make_cyclic(4))
    if kind == "family":
        return parse_family_spec("suzuki:3:2:-1:1").group
    if kind == "table":
        return group_from_table_file(DATA / "q8.txt")
    d12 = make_dihedral(12)  # the D6 that r^2 and s generate
    return d12.subgroup(d12.generated_subgroup([4, 1]))[0]


POWER_TEST_KINDS = ("cyclic", "dihedral", "product", "family", "table", "subgroup")


class TestElementQueries:
    @given(
        st.sampled_from(POWER_TEST_KINDS), st.integers(2, 40), st.integers(0, 1000),
        st.integers(-30, 30),
    )
    @example("dihedral", 2, 3, -5)
    @example("product", 2, 7, -13)
    @example("family", 2, 23, -29)
    @example("table", 2, 3, -3)
    @example("subgroup", 2, 5, -7)
    @settings(max_examples=120, deadline=None)
    def test_power_matches_repeated_multiplication(self, kind, n, gseed, k):
        # power and inv read the powers() walk; the products here read the table
        grp = power_test_group(kind, n)
        g = gseed % grp.order
        g_inv = next(h for h in range(grp.order) if grp.mul(g, h) == 0)
        assert grp.inv(g) == g_inv
        expected = 0
        step = g if k >= 0 else g_inv
        for _ in range(abs(k)):
            expected = grp.mul(expected, step)
        assert grp.power(g, k) == expected

    @given(st.integers(2, 20), st.integers(2, 20))
    @settings(max_examples=50, deadline=None)
    def test_power_additivity(self, n, k):
        grp = make_dihedral(2 * (n // 2 + 2))
        for g in range(grp.order):
            assert grp.mul(grp.power(g, k), grp.power(g, 3)) == grp.power(g, k + 3)

    def test_torsion_counts_divisible(self):
        # |{g : g^n = 1}| is divisible by gcd(n, |G|) in any finite group
        groups = [make_cyclic(k) for k in range(1, 30)]
        groups += [make_dihedral(2 * k) for k in range(2, 15)]
        groups += [
            direct_product(make_cyclic(a), make_dihedral(2 * b))
            for a in (2, 3, 5)
            for b in (2, 3, 4)
        ]
        for grp in groups:
            assert grp.order <= 200
            for n in range(1, grp.order + 1):
                count = len(grp.torsion(n))
                assert count % math.gcd(n, grp.order) == 0, (grp.label, n)

    def test_q8_structure(self, q8):
        orders = sorted(q8.element_order(g) for g in range(8))
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
        assert len(q8.torsion(2)) == 2
        assert len(q8.conjugacy_classes()) == 5

    def test_conjugacy_partition(self):
        d12 = make_dihedral(12)
        classes = d12.conjugacy_classes()
        assert sorted(x for cls in classes for x in cls) == list(range(12))
        for cls in classes:
            assert d12.order % len(cls) == 0
            o = {d12.element_order(x) for x in cls}
            assert len(o) == 1

    def test_centralizer(self):
        d8 = make_dihedral(8)
        assert len(d8.centralizer(0)) == 8
        for g in range(1, 8):
            cent = d8.centralizer(g)
            assert 0 in cent and g in cent
            assert d8.order % len(cent) == 0

    def test_generators_are_irredundant(self):
        groups = [FiniteGroup(len(t), lambda g, h, t=t: t[g][h]) for t in GROUP_TABLES]
        groups += [make_cyclic(n) for n in (1, 2, 12, 30)]
        groups += [parse_family_spec(s).group for s in ("h2n2:12:1", "hn3:5:2:3", "suzukiP:2:3:1")]
        for grp in groups:
            gens = grp.generators()
            assert len(grp.generated_subgroup(gens)) == grp.order, grp
            for k in range(len(gens)):
                for part in combinations(gens, k):
                    assert len(grp.generated_subgroup(part)) < grp.order, (grp, gens, part)
            assert 2 ** len(gens) <= grp.order, (grp, gens)
        # the greedy sets are (1, 12, 144) and (1, 5, 25): 12 and 144 generate 1,
        # and 1 and 25 generate 5
        assert parse_family_spec("h2n2:12:1").group.generators() == (12, 144)
        assert parse_family_spec("hn3:5:1:1").group.generators() == (1, 25)

    def test_generated_subgroup_and_subgroup(self):
        d8 = make_dihedral(8)
        rot = d8.generated_subgroup([2])
        assert rot == [0, 2, 4, 6]
        sub, elems = d8.subgroup(rot)
        assert sub.order == 4 and elems == rot
        assert sub.element_order(1) in (2, 4)


class TestTableFiles:
    def test_round_trip(self, tmp_path, q8):
        path = tmp_path / "q8.txt"
        rows = quaternion_table()
        path.write_text(
            "order 8\n" + "\n".join(" ".join(map(str, row)) for row in rows)
        )
        loaded = group_from_table_file(path)
        assert loaded.order == 8
        assert all(
            loaded.mul(g, h) == q8.mul(g, h) for g in range(8) for h in range(8)
        )

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("sizes 2\n0 1\n1 0\n")
        with pytest.raises(ValueError):
            group_from_table_file(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("order 2\n0 1\n")
        with pytest.raises(ValueError):
            group_from_table_file(path)

    @pytest.mark.parametrize("pad", [0, 1, 2, 4089])
    def test_header_and_body_split_across_reads(self, tmp_path, pad):
        # whitespace before the order moves the read boundaries through the
        # header word (pad 4089) and through the body tokens of Z_100's table
        path = tmp_path / "z100.txt"
        path.write_text("order" + " " * pad + " 100\n" + "\n".join(
            " ".join(f"{(g + h) % 100:03}" for h in range(100)) for g in range(100)
        ))
        loaded = group_from_table_file(path)
        assert [loaded.mul(g, h) for g in range(100) for h in range(100)] == [
            (g + h) % 100 for g in range(100) for h in range(100)
        ]

    def test_over_the_cap_is_refused_before_the_body_is_read(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("order 5000\n" + "0 " * 2_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(SpecError, match="group order 5000 exceeds the limit of 4096"):
                group_from_table_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak

    def test_rows_may_run_across_lines(self, tmp_path):
        # the body is the N*N indices in row order, however they are laid out
        path = tmp_path / "z2.txt"
        path.write_text("order 2\n0 1 1\n0\n")
        loaded = group_from_table_file(path)
        assert [[loaded.mul(g, h) for h in range(2)] for g in range(2)] == [[0, 1], [1, 0]]

    def test_order_1024_loads_near_the_size_it_holds(self, tmp_path):
        path = tmp_path / "z1024.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("order 1024\n")
            fh.writelines(" ".join(str((g + h) % 1024) for h in range(1024)) + "\n"
                          for g in range(1024))
        tracemalloc.start()
        try:
            grp = group_from_table_file(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grp.mul(1000, 100) == 76
        # 1,024 rows of exactly 1,024 slots take 8.45 MB; the file's tokens
        # are read a line at a time beside them
        assert held <= 8_500_000, held
        assert peak <= 1.5 * held, (peak, held)


class TestSpecParsing:
    def test_simple_specs(self):
        assert parse_group_spec("cyclic:7").order == 7
        assert parse_group_spec("dihedral:10").order == 10
        g = parse_group_spec("product:cyclic:2,cyclic:3")
        assert g.order == 6 and g.exponent() == 6

    def test_nested_product(self):
        g = parse_group_spec("product:cyclic:2,product:cyclic:3,cyclic:5")
        assert g.order == 30 and g.exponent() == 30

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            parse_group_spec("simple:60")


def test_only_the_groups_module_reads_a_groups_rows():
    # the row format is private to fsind.groups: every other module reads
    # products through mul, powers and the pair
    src = Path(groups.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "groups.py":
            for i, line in enumerate(path.read_text().splitlines(), 1):
                assert not re.search(r"\._(table|rows|source)\b", line), f"{path.name}:{i}: {line}"
