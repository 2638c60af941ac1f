"""Matched pairs, bicrossed products, and the built-in family constructions."""

from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsind.groups import (
    BicrossedGroup,
    FiniteGroup,
    MatchedPair,
    SpecError,
    bicrossed_rows,
    direct_product,
    group_from_table_file,
    make_cyclic,
    make_dihedral,
    parse_group_spec,
    trivial_pair,
)
from fsind.cocycles import c_omega, omega_tilde_root, psi, verify_cocycle
from fsind.cyclotomic import divisors
from fsind.extensions import (
    FAMILIES,
    ExtensionData,
    GTCategory,
    family_bismash,
    family_h2n2,
    family_hn3,
    family_suzuki_cyclic,
    family_suzuki_noncyclic,
    h2n2_pair,
    hn3_pair,
    omega_from_extension,
    pair_from_file,
    parse_family_spec,
    power_iteration,
)
from fsind.indicators import frobenius_check, nu_brute, nu_h2n2_closed, nu_literal


GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent.parent / "data"
FIXED = [[0, 0, 0], [1, 1, 1]]  # the trivial right action of Z_2 on Z_3


class TestMatchedPairs:
    def test_trivial_pair_gives_direct_product(self):
        pair = trivial_pair(make_cyclic(3), make_cyclic(4))
        grp = BicrossedGroup(pair)
        assert grp.order == 12 and grp.exponent() == 12

    def test_a_pair_with_both_actions_its_own_reads_no_factor(self):
        # the laws hold by construction, so neither factor is tabulated or
        # asked for its generators; tables handed in are checked, trivial or not
        f_group, g_group = make_cyclic(20), make_cyclic(20)
        pair = MatchedPair(f_group, g_group)
        assert pair.trivial
        for grp in (f_group, g_group):
            assert grp._source is not None and grp._gens is None
        handed = MatchedPair(f_group, g_group, pair.act_right, [list(range(20))] * 20)
        assert not handed.trivial and f_group._source is None and g_group._gens == (1,)
        with pytest.raises(ValueError, match="not a matched pair"):
            MatchedPair(f_group, g_group, [[(g + y) % 20 for y in range(20)] for g in range(20)])

    def test_a_product_chain_reads_no_factor_recursively(self):
        # 1,999 trivial factors above Z_2: each G is tabulated as the chain
        # is folded, so no row, product or power recurses through the chain
        grp = parse_group_spec("product:cyclic:1," * 1999 + "cyclic:2")
        assert grp.exponent() == 2 and grp.powers(1) == [0, 1] and grp.generators() == (1,)
        assert grp.row(1) == [1, 0] and grp.product(1, 1) == 0

    @pytest.mark.parametrize(
        "f_group, g_group, right, left",
        [
            (make_cyclic(2), make_cyclic(3), [[g, -g % 3] for g in range(3)], None),  # S_3
            # D_8 with the flip r^i s^j -> r^(-i-j) s^j
            (make_dihedral(8), make_cyclic(2), None, [list(range(8)), [0, 7, 6, 5, 4, 3, 2, 1]]),
            (make_cyclic(2), direct_product(make_cyclic(3), make_cyclic(3)),
             [[i * 3 + j, j * 3 + i] for i in range(3) for j in range(3)], None),  # h2n2's swap
        ],
    )
    def test_omitted_actions_are_trivial(self, f_group, g_group, right, left):
        nf, ng = f_group.order, g_group.order
        trivial_right, trivial_left = [[g] * nf for g in range(ng)], [list(range(nf))] * ng
        right, left = right or trivial_right, left or trivial_left
        for pair, want_right, want_left in (
            (MatchedPair(f_group, g_group), trivial_right, trivial_left),
            (MatchedPair(f_group, g_group, right), right, trivial_left),
            (MatchedPair(f_group, g_group, act_left=left), trivial_right, left),
        ):
            assert [list(row) for row in pair.act_right] == want_right
            assert [list(row) for row in pair.act_left] == want_left

    def test_builders_hold_the_tables_they_held_before(self):
        # the trivial action each builder leaves out is the one it built itself
        n = 3
        swap = [[i * n + j, j * n + i] for i in range(n) for j in range(n)]
        shear = [[(i + a * j) % n * n + j for a in range(n)] for i in range(n) for j in range(n)]
        flip = ([[0] * 4, [1] * 4], [[0, 1, 2, 3], [0, 3, 2, 1]])  # Z_2 acting on Z_4 or D_4
        for pair, right, left in (
            (h2n2_pair(n), swap, [[0, 1]] * 9),
            (hn3_pair(n), shear, [[0, 1, 2]] * 9),
            (family_suzuki_cyclic(1, 2, -1, 1).pair, *flip),
            (make_dihedral(8).pair, *flip),
        ):
            assert [list(row) for row in pair.act_right] == right
            assert [list(row) for row in pair.act_left] == left

    def test_identity_axioms_enforced(self):
        # 1 <| y = 1 and g |> 1 = 1 are the laws at h = 1 and at y = 1
        for right, left, message in (
            (FIXED, [[0, 2, 1], [0, 1, 2]], "identity of G must act trivially on F"),
            (
                [[0, 1, 0], [1, 1, 1]], [[0, 1, 2]] * 2,
                "not a matched pair: (gh)<|y = (g<|(h|>y))(h<|y) fails at (g, h, y) = (1, 0, 1)",
            ),
            ([[0, 0, 0], [0, 1, 1]], [[0, 1, 2]] * 2, "identity of F must act trivially on G"),
            (  # g |> y = y + g
                FIXED, [[0, 1, 2], [1, 2, 0]],
                "not a matched pair: (gh)|>y = g|>(h|>y) fails at (g, h, y) = (1, 1, 0)",
            ),
            (
                [[0, 0, 0], [1, 0, 1]], [[0, 1, 2]] * 2,
                "not a matched pair: g<|(yx) = (g<|y)<|x fails at (x, g, y) = (1, 1, 1)",
            ),
            (
                FIXED, [[0, 1, 2], [1, 0, 2]],
                "not a matched pair: g|>(yx) = (g|>y)((g<|y)|>x) fails at (x, g, y) = (1, 1, 0)",
            ),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                MatchedPair(make_cyclic(3), make_cyclic(2), right, left)

    def test_negative_action_value_is_rejected(self):
        # -y mod 3 would be the inversion action, a valid matched pair
        with pytest.raises(ValueError, match=r"g \|> y at \(g, y\) = \(1, 1\) is -1, out of"):
            MatchedPair(make_cyclic(3), make_cyclic(2), FIXED, [[0, 1, 2], [0, -1, -2]])

    def test_action_value_past_the_factor_is_rejected(self):
        with pytest.raises(ValueError, match=r"g \|> y at \(g, y\) = \(1, 1\) is 3, out of"):
            MatchedPair(make_cyclic(3), make_cyclic(2), FIXED, [[0, 1, 2], [0, 3, 4]])

    @pytest.mark.parametrize(
        "right, left",
        [
            (FIXED, [[0, 1, 2], [0, 2]]),  # a short row
            (FIXED, [[0, 1, 2]]),  # a missing row
            ([[0, 0, 0], [1, 1]], [[0, 1, 2], [0, 2, 1]]),
            ([[0, 0, 0]], [[0, 1, 2], [0, 2, 1]]),
        ],
    )
    def test_ragged_action_table_is_rejected(self, right, left):
        with pytest.raises(ValueError, match=r"needs \|G\| = 2 rows of \|F\| = 3 entries"):
            MatchedPair(make_cyclic(3), make_cyclic(2), right, left)

    def test_builders_make_group_tables(self):
        # every builder passes check=False, vouching for its table: the check
        # it skips (shape, range, inverses, identity, associativity) passes
        z4xz6 = direct_product(make_cyclic(4), make_cyclic(6))
        groups = [make_cyclic(n) for n in (*range(1, 13), 400)]
        groups += [make_dihedral(n) for n in range(4, 25, 2)]
        groups += [z4xz6, direct_product(make_dihedral(6), make_cyclic(5))]
        groups.append(parse_group_spec("product:cyclic:2,product:dihedral:6,cyclic:4"))
        groups += [z4xz6.subgroup(z4xz6.torsion(n))[0] for n in (2, 3, 6)]
        groups += [make_cyclic(12).subgroup(make_cyclic(12).torsion(4))[0]]
        for pair in (h2n2_pair(3), hn3_pair(3), family_suzuki_noncyclic(2, 2, 1).pair):
            groups.append(BicrossedGroup(pair))
        groups += [fam.build(*params).group for fam in FAMILIES.values() for params in fam.grid]
        groups.append(parse_family_spec(f"bismash:{GOLDEN / 'z2_on_z3.pair'}").group)
        for grp in groups:
            grp._check_axioms()
        groups.append(group_from_table_file(DATA / "q8.txt"))
        for grp in groups:
            for g in range(grp.order):
                assert grp.mul(g, grp.inv(g)) == grp.mul(grp.inv(g), g) == 0, (grp, g)

    def test_power_iteration_matches_repeated_products(self):
        # against the product table: power() reads the same walk
        for pair in (h2n2_pair(4), hn3_pair(3), family_suzuki_noncyclic(2, 3, 1).pair):
            grp = BicrossedGroup(pair)
            ng = pair.G.order
            for p in range(grp.order):
                x, g = divmod(p, ng)
                acc = 0
                for n in range(1, 9):
                    acc = grp.mul(acc, p)
                    xn, gn = power_iteration(pair, x, g, n)
                    assert xn * ng + gn == acc, (pair, p, n)


# the per-entry multiplication closure BicrossedGroup used before it was
# built from its factors' rows, kept as the oracle


def bicrossed_mul(pair):
    ng = pair.G.order

    def mul(p, q):
        x, g = divmod(p, ng)
        y, h = divmod(q, ng)
        return pair.F.mul(x, pair.act_left[g][y]) * ng + pair.G.mul(pair.act_right[g][y], h)

    return mul


def assert_matches_closure(grp, mul):
    """grp's table equals the closure's entry for entry, and its powers and
    element orders equal those found by multiplying by g until the identity."""
    n = grp.order
    for g in range(n):
        walk, x = [0], g
        while x != 0:
            walk.append(x)
            x = mul(x, g)
        assert grp.powers(g) == walk, (grp, g)
        assert grp.element_order(g) == len(walk), (grp, g)
    assert [[grp.mul(g, h) for h in range(n)] for g in range(n)] == [
        [mul(g, h) for h in range(n)] for g in range(n)
    ]


@st.composite
def semidirect_pairs(draw):
    """Z_m |x Z_k with g |> y = u^g y, or Z_k |x< Z_m with g <| y = u^y g,
    for a unit u of Z_m with u^k = 1."""
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    u = draw(st.sampled_from([u for u in range(m) if math.gcd(u, m) == 1 and pow(u, k, m) == 1 % m]))
    zm, zk = make_cyclic(m), make_cyclic(k)
    if draw(st.booleans()):
        left = [[pow(u, g, m) * y % m for y in range(m)] for g in range(k)]
        return MatchedPair(zm, zk, [[g] * m for g in range(k)], left)
    right = [[pow(u, y, m) * g % m for y in range(k)] for g in range(m)]
    return MatchedPair(zk, zm, right, [list(range(k))] * m)


def symmetric_factorization(n, swap=False):
    """S_n = S_(n-1) Z_n: F fixes n-1, G is generated by the n-cycle c, and
    g y = (g |> y)(g <| y) with both actions nontrivial for n >= 4.  With
    swap, F = Z_n and G = S_(n-1), which is not abelian for n >= 4."""
    perms = list(permutations(range(n - 1)))  # the identity first
    f_elems = [p + (n - 1,) for p in perms]
    cycle = tuple((i + 1) % n for i in range(n))
    g_elems = [tuple(range(n))]
    for _ in range(n - 1):
        g_elems.append(tuple(cycle[i] for i in g_elems[-1]))
    if swap:
        f_elems, g_elems = g_elems, f_elems

    def compose(p, q):
        return tuple(p[i] for i in q)

    def inverse(p):
        return tuple(sorted(range(n), key=p.__getitem__))

    f_index = {p: i for i, p in enumerate(f_elems)}
    g_index = {p: i for i, p in enumerate(g_elems)}
    left, right = [], []
    for g in g_elems:
        lrow, rrow = [], []
        for y in f_elems:
            gy = compose(g, y)  # = y' g' for exactly one c = g' with y' = gy c^-1 in F
            for j, c in enumerate(g_elems):
                rest = compose(gy, inverse(c))
                if rest in f_index:
                    lrow.append(f_index[rest])
                    rrow.append(j)
                    break
        left.append(lrow)
        right.append(rrow)
    f_group = FiniteGroup(len(f_elems), lambda a, b: f_index[compose(f_elems[a], f_elems[b])])
    g_group = FiniteGroup(len(g_elems), lambda a, b: g_index[compose(g_elems[a], g_elems[b])])
    return MatchedPair(f_group, g_group, right, left)


CLOSURE_PAIRS = (
    [h2n2_pair(n) for n in (2, 3, 5)]
    + [hn3_pair(n) for n in (3, 5)]
    + [family_suzuki_noncyclic(n, l, 1).pair for n in (2, 4) for l in (2, 3)]
    + [symmetric_factorization(n, swap) for n in (3, 4) for swap in (False, True)]
    + [family_suzuki_cyclic(n, l, -1, 1).pair for n in (1, 2, 3, 5) for l in (2, 3, 4)]
)


class TestBuilders:
    @pytest.mark.parametrize("pair", CLOSURE_PAIRS)
    def test_bicrossed_product_matches_the_closure(self, pair):
        assert_matches_closure(BicrossedGroup(pair), bicrossed_mul(pair))

    @settings(max_examples=60, deadline=None)
    @given(semidirect_pairs())
    def test_random_pairs_match_the_closure(self, pair):
        assert_matches_closure(BicrossedGroup(pair), bicrossed_mul(pair))

    def test_both_actions_of_s4_are_nontrivial(self):
        pair = symmetric_factorization(4)
        assert any(pair.act_left[g][y] != y for g in range(4) for y in range(6))
        assert any(pair.act_right[g][y] != g for g in range(4) for y in range(6))


@st.composite
def changed_actions(draw):
    """(F, G, act_left, act_right): a matched pair with 1 to 3 action entries,
    row g = 0 and column y = 0 among them, set to values in range."""
    pair = draw(st.one_of(st.sampled_from(CLOSURE_PAIRS), semidirect_pairs()))
    nf, ng = pair.F.order, pair.G.order
    tables = [list(map(list, pair.act_left)), list(map(list, pair.act_right))]
    for _ in range(draw(st.integers(1, 3))):
        side = draw(st.integers(0, 1))
        g, y = draw(st.integers(0, ng - 1)), draw(st.integers(0, nf - 1))
        tables[side][g][y] = draw(st.integers(0, (nf, ng)[side] - 1))
    return pair.F, pair.G, *tables


def light_accepts(f_group, g_group, left, right):
    """The oracle for the laws: the identity rows and columns, g |> 1 = 1 and
    1 <| y = 1, and Light's test on the product table."""
    nf, ng = f_group.order, g_group.order
    if list(left[0]) != list(range(nf)) or [row[0] for row in right] != list(range(ng)):
        return False
    if any(row[0] for row in left) or any(right[0]):
        return False
    try:
        FiniteGroup(nf * ng, bicrossed_rows(f_group, g_group, left, right), check=True)
    except ValueError:
        return False
    return True


SMALL_SPECS = [
    ("cyclic:2", "cyclic:2"), ("cyclic:2", "cyclic:3"), ("cyclic:3", "cyclic:2"),
    ("cyclic:2", "product:cyclic:2,cyclic:2"), ("product:cyclic:2,cyclic:2", "cyclic:2"),
]


def action_tables(f_group, g_group, sides):
    """Every (left, right) with the identity row and column whose other
    entries take every value on the given sides (0: left, 1: right) and are
    trivial on the others."""
    nf, ng = f_group.order, g_group.order
    free = [(0, g, y) for g in range(1, ng) for y in range(nf) if 0 in sides]
    free += [(1, g, y) for g in range(ng) for y in range(1, nf) if 1 in sides]
    for values in product(*[range((nf, ng)[side]) for side, _, _ in free]):
        left = [list(range(nf))] + [[0] * nf if 0 in sides else list(range(nf)) for _ in range(1, ng)]
        right = [[g] * nf for g in range(ng)]
        for (side, g, y), v in zip(free, values):
            (left, right)[side][g][y] = v
        yield left, right


class TestPairLaws:
    @settings(max_examples=1200, deadline=None)
    @given(changed_actions())
    def test_laws_agree_with_light_on_the_product(self, case):
        f_group, g_group, left, right = case
        try:
            MatchedPair(f_group, g_group, right, left)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == light_accepts(f_group, g_group, left, right)

    @pytest.mark.parametrize("f_spec, g_spec", SMALL_SPECS)
    def test_every_small_action_table_agrees_with_light(self, f_spec, g_spec):
        # every action table with the identity row and column: among them are
        # tables that break exactly one of the four laws, for each law, and
        # with two generators, tables that keep a law at one and break it at
        # the other
        f_group, g_group = parse_group_spec(f_spec), parse_group_spec(g_spec)
        accepted = 0
        for left, right in action_tables(f_group, g_group, (0, 1)):
            try:
                MatchedPair(f_group, g_group, right, left)
                ok = True
            except ValueError:
                ok = False
            assert ok == light_accepts(f_group, g_group, left, right), (left, right)
            accepted += ok
        assert accepted

    @pytest.mark.parametrize(
        "f_spec, g_spec", [*SMALL_SPECS, ("cyclic:4", "cyclic:2"), ("cyclic:2", "cyclic:4")]
    )
    def test_every_small_action_with_the_other_omitted_agrees_with_light(self, f_spec, g_spec):
        # the pair checks only the two laws a given action can break, the
        # other two being identities of the trivial one.  On the first five
        # specs each of the four laws fails alone, but law 4 only at y = 1
        # (g |> 1 != 1) and law 2 only at h = 1 (1 <| y != 1); swapping 2
        # and 3 breaks law 4 alone elsewhere as G = Z_2 acting on F = Z_4
        # from the left, and law 2 alone as F = Z_2 acting on G = Z_4 from
        # the right
        f_group, g_group = parse_group_spec(f_spec), parse_group_spec(g_spec)
        for side in (0, 1):
            accepted = rejected = 0
            for left, right in action_tables(f_group, g_group, (side,)):
                given = {"act_right": right} if side else {"act_left": left}
                try:
                    MatchedPair(f_group, g_group, **given)
                    ok = True
                except ValueError:
                    ok = False
                assert ok == light_accepts(f_group, g_group, left, right), (left, right)
                accepted, rejected = accepted + ok, rejected + (not ok)
            assert accepted and rejected, side

    def test_no_family_or_pair_file_runs_the_group_check(self, monkeypatch, tmp_path):
        calls = []
        check = FiniteGroup._check_axioms

        def counting_check(self):
            calls.append(self.order)
            check(self)

        monkeypatch.setattr(FiniteGroup, "_check_axioms", counting_check)
        for fam in FAMILIES.values():
            for params in fam.grid:
                fam.build(*params)
        parse_family_spec(f"bismash:{GOLDEN / 'z2_on_z3.pair'}")
        assert calls == []
        path = tmp_path / "z3.txt"
        path.write_text("order 3\n0 1 2\n1 2 0\n2 0 1\n")
        group_from_table_file(path)
        FiniteGroup(4, lambda a, b: (a + b) % 4, check=True)
        assert calls == [3, 4]


def check_cocycle(omega, context):
    """Exact verification over the group's generators, at every order."""
    report = verify_cocycle(omega)
    assert report.ok, (context, str(report))


class TestH2N2Family:
    def test_cocycle_valid(self):
        for params in FAMILIES["h2n2"].grid:
            check_cocycle(FAMILIES["h2n2"].build(*params).omega, params)

    def test_inconsistent_extension_data_is_rejected(self):
        # sigma(g; x, y) at g = (1, 1) in Z_3 x Z_3 and x = y = 1 in Z_2, plus one
        data = family_h2n2(3, 1)
        sigma = data.sigma_exp
        bumped = ExtensionData(
            data.pair, data.value_order,
            lambda g, x, y: sigma(g, x, y) + ((g, x, y) == (4, 1, 1)), data.tau_exp,
        )
        report = verify_cocycle(omega_from_extension(bumped).omega)
        assert not report.ok and report.failure[0] == "cocycle identity"
        assert verify_cocycle(omega_from_extension(data).omega).ok

    def test_pointwise_display_formula(self):
        # collapsed form: with xi = zeta_N^xi_exp the cocycle is
        #   1                     when a3 = 0
        #   xi^(j1*i2)            when a3 = 1, a2 = 0
        #   xi^(i1*j1 + i1*i2)    when a3 = 1, a2 = 1
        for n in (2, 3, 4, 5):
            xi_exp = 1
            cat = omega_from_extension(family_h2n2(n, xi_exp))
            w = cat.omega
            nn = n * n
            for p in range(2 * nn):
                i1, j1 = divmod(p % nn, n)
                for q in range(2 * nn):
                    a2, g2 = divmod(q, nn)
                    i2 = g2 // n
                    for r in range(2 * nn):
                        a3 = r // nn
                        if a3 == 0:
                            expected = 0
                        elif a2 == 0:
                            expected = (xi_exp * j1 * i2) % n
                        else:
                            expected = (xi_exp * (i1 * j1 + i1 * i2)) % n
                        assert w.exponent(p, q, r) == expected, (n, p, q, r)


class TestHN3Family:
    def test_cocycle_valid(self):
        # all 25 categories of order 125, each over |F| = 5 coset blocks
        for params in FAMILIES["hn3"].grid:
            check_cocycle(FAMILIES["hn3"].build(*params).omega, params)

    def test_pointwise_display_formula(self):
        # omega((a1,i1,j1),(a2,i2,j2),(a3,i3,j3)) =
        #   (lam_{j1+j2} lam_{j1}^-1 lam_{j2}^-1)^a3
        #   * zeta^(a3*j1*i2 + binom(a3,2)*j1*j2)
        n = 3
        nn = n * n
        for xi_exp in range(n):
            for zeta_exp in range(n):
                cat = omega_from_extension(family_hn3(n, xi_exp, zeta_exp))
                w = cat.omega
                lam = (-xi_exp) % nn
                for p in range(n * nn):
                    j1 = p % n
                    for q in range(n * nn):
                        g2 = q % nn
                        i2, j2 = divmod(g2, n)
                        for r in range(n * nn):
                            a3 = r // nn
                            e = a3 * lam * (((j1 + j2) % n) - j1 - j2)
                            e += n * zeta_exp * (
                                a3 * j1 * i2 + (a3 * (a3 - 1) // 2) * j1 * j2
                            )
                            assert w.exponent(p, q, r) == e % nn, (
                                xi_exp, zeta_exp, p, q, r,
                            )

    def test_lambda_choice_does_not_change_indicators(self):
        n, xi_exp, zeta_exp = 3, 1, 2
        base = omega_from_extension(family_hn3(n, xi_exp, zeta_exp))
        for lambda_exp in range(9):
            if (lambda_exp + xi_exp) % n:
                with pytest.raises(ValueError):
                    family_hn3(n, xi_exp, zeta_exp, lambda_exp=lambda_exp)
                continue
            alt = omega_from_extension(family_hn3(n, xi_exp, zeta_exp, lambda_exp=lambda_exp))
            for nu_n in (1, 3, 9, 27):
                assert nu_brute(alt, nu_n) == nu_brute(base, nu_n), (
                    lambda_exp, nu_n,
                )

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            family_hn3(4, 1, 1)


class TestSuzukiFamilies:
    def test_group_structure(self):
        # D_2L |><| Z_2N on x*2N + i for r^j s^k b^i, x = 2j + k
        grp = parse_family_spec("suzuki:3:2:-1:1").group
        assert grp.order == 24
        two_n = 6
        b = 1  # b^1
        r = 2 * two_n  # r^1
        s = two_n  # s^1
        assert grp.element_order(b) == two_n and grp.power(b, two_n) == 0  # b^2N = 1
        # b r b^-1 = r^-1 and b s b^-1 = r^-1 s
        binv = grp.inv(b)
        assert grp.mul(grp.mul(b, r), binv) == grp.inv(r)
        assert grp.mul(grp.mul(b, s), binv) == grp.mul(grp.inv(r), s)

    def test_cyclic_case_has_cyclic_sylow_center_element(self):
        # b generates a cyclic subgroup of order 2N containing the center part
        grp = parse_family_spec("suzuki:1:2:1:1").group
        assert grp.order == 8 and grp.element_order(1) == 2

    def test_cocycle_valid(self):
        for params in FAMILIES["suzuki"].grid:
            check_cocycle(FAMILIES["suzuki"].build(*params).omega, params)

    def test_noncyclic_cocycle_valid(self):
        for params in FAMILIES["suzukiP"].grid:
            check_cocycle(FAMILIES["suzukiP"].build(*params).omega, params)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            family_suzuki_cyclic(2, 2, 1, 1)  # even N needs alpha = -1
        with pytest.raises(ValueError):
            family_suzuki_cyclic(1, 1, 1, 1)  # L >= 2
        with pytest.raises(ValueError):
            family_suzuki_noncyclic(3, 2, 1)  # odd N has no non-cyclic case

    def test_eta_branch_only_matters_through_beta(self):
        # the two beta values genuinely differ at some indicator
        a = parse_family_spec("suzuki:1:2:1:1")
        b = parse_family_spec("suzuki:1:2:1:-1")
        assert any(nu_brute(a, n) != nu_brute(b, n) for n in (2, 4, 8))


class TestBismashAndFiles:
    def test_bismash_trivial_cocycle(self):
        cat = omega_from_extension(family_bismash(h2n2_pair(3)))
        assert cat.omega.value_order == 1
        assert cat.group.order == 18

    def test_pair_file_round_trip(self, tmp_path):
        pair = h2n2_pair(3)
        lines = ["F cyclic:2", "G product:cyclic:3,cyclic:3", "act_right"]
        for g in range(pair.G.order):
            lines.append(" ".join(str(pair.act_right[g][x]) for x in range(2)))
        path = tmp_path / "pair.txt"
        path.write_text("\n".join(lines) + "\n")
        loaded = pair_from_file(path)
        assert loaded.act_right == pair.act_right
        grp_a = BicrossedGroup(pair)
        grp_b = BicrossedGroup(loaded)
        assert all(
            grp_a.mul(p, q) == grp_b.mul(p, q)
            for p in range(grp_a.order)
            for q in range(grp_a.order)
        )

    def test_pair_file_over_the_cap_is_refused_before_its_default_actions(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("F cyclic:4096\nG cyclic:4096\n")
        tracemalloc.start()
        try:
            with pytest.raises(SpecError, match="group order 16777216 exceeds the limit of 4096"):
                pair_from_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak

    def test_pair_file_rejects_missing_groups(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("F cyclic:2\n")
        with pytest.raises(ValueError):
            pair_from_file(path)


class TestFamilySpecs:
    def test_parse_all_kinds(self, tmp_path):
        assert parse_family_spec("h2n2:3:1").group.order == 18
        assert parse_family_spec("hn3:3:1:2").group.order == 27
        assert parse_family_spec("suzuki:1:2:1:-1").group.order == 8
        assert parse_family_spec("suzukiP:2:2:1").group.order == 16
        path = tmp_path / "pair.txt"
        path.write_text("F cyclic:2\nG cyclic:3\n")
        assert parse_family_spec(f"bismash:{path}").group.order == 6

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_family_spec("mystery:1")


# ---------------------------------------------------------------------------
# powers without a product table


def tabulated(grp):
    """The same group as a plain table, whose powers walk its rows."""
    return FiniteGroup(grp.order, grp._table, label=grp.label, check=False)


def assert_walks_match_the_table(cat):
    """The order profile and element orders, read from powers walked through
    the factors with no product table, equal those of the tabulated group,
    and each walk is g^0, g^1, ... by repeated mul up to the identity."""
    grp, omega = cat.group, cat.omega
    profile, orders = omega.order_profile, grp._element_orders()
    assert grp._source is not None, cat.label  # no product table was read
    table = tabulated(grp)
    assert dataclasses.replace(omega, group=table).order_profile == profile, cat.label
    assert table._element_orders() == orders, cat.label
    for g in range(grp.order):
        powers, x = grp.powers(g), 0
        for p in powers:
            assert p == x, (cat.label, g)
            x = grp.mul(x, g)
        assert x == 0 and 0 not in powers[1:], (cat.label, g)


def grid_categories():
    cats = [fam.build(*params) for fam in FAMILIES.values() for params in fam.grid]
    cats.append(parse_family_spec(f"bismash:{GOLDEN / 'z2_on_z3.pair'}"))
    return cats


@st.composite
def off_grid_specs(draw):
    """A family spec of order under 300 with any admissible parameters."""
    kind = draw(st.sampled_from(("h2n2", "hn3", "suzuki", "suzukiP")))
    sign = st.sampled_from((1, -1))
    if kind == "h2n2":  # 2N^2 < 300
        n = draw(st.integers(2, 12))
        return f"h2n2:{n}:{draw(st.integers(0, n - 1))}"
    if kind == "hn3":  # N^3 < 300
        n = draw(st.sampled_from((3, 5)))
        return f"hn3:{n}:{draw(st.integers(0, n - 1))}:{draw(st.integers(0, n - 1))}"
    if kind == "suzuki":  # 4NL < 300, (N, alpha) != (even, +1)
        n = draw(st.integers(1, 37))
        alpha = draw(sign) if n % 2 else -1
        return f"suzuki:{n}:{draw(st.integers(2, 74 // n))}:{alpha}:{draw(sign)}"
    n = draw(st.integers(1, 18)) * 2
    return f"suzukiP:{n}:{draw(st.integers(2, 74 // n))}:{draw(sign)}"


class TestTableFreeWalks:
    def test_grid_categories(self):
        for cat in grid_categories():
            assert_walks_match_the_table(cat)

    def test_psi(self):
        for big_n, r in ((1, 0), (12, 5), (400, 7)):
            w = psi(big_n, r)
            assert_walks_match_the_table(GTCategory(w.group, w))

    @settings(max_examples=25, deadline=None)
    @given(off_grid_specs())
    def test_off_grid_categories(self, spec):
        assert_walks_match_the_table(parse_family_spec(spec))


class TestNoProductTable:
    """Building a category and reading its indicators tabulate no group of
    the category; a check that reads every product still tabulates it."""

    def test_indicators_read_no_table(self):
        w = psi(400, 7)
        for cat in grid_categories() + [GTCategory(w.group, w)]:
            grp = cat.group
            assert grp._source is not None, cat.label
            for n in divisors(grp.order):
                nu_brute(cat, n)
                nu_literal(cat, n)
            c_omega(cat.omega)
            frobenius_check(cat)
            for g in (1, grp.order // 2, grp.order - 1):
                for n in (1, 2, 6, grp.order):
                    omega_tilde_root(cat.omega, n, g)
                for k in (-7, -1, 3, grp.order + 1):
                    grp.power(g, k)
                grp.inv(g)
            assert grp._source is not None, cat.label

    @staticmethod
    def tables(grp, path="Gamma"):
        """The tabulated groups among grp and its factors, by path."""
        out = {path} if grp._source is None else set()
        if isinstance(grp, BicrossedGroup):
            out |= TestNoProductTable.tables(grp.pair.F, f"{path}.F")
            out |= TestNoProductTable.tables(grp.pair.G, f"{path}.G")
        return out

    def test_the_factor_g_is_never_tabulated(self):
        # Only the Suzuki pairs tabulate a factor.  They give a left action,
        # and law 4 of the matched-pair check, which runs only then, reads
        # every row of F, so D_2L is tabulated, from its factors' tables
        # (bicrossed_rows).  h2n2 and hn3 give only a right action: laws 2
        # and 3 read G's rows at its generators s and each s <| y, and a
        # column of F through its products.  The walks read G's products
        for kind in ("h2n2", "hn3", "suzuki", "suzukiP"):
            fam = FAMILIES[kind]
            want = {"Gamma.F", "Gamma.F.F", "Gamma.F.G"} if "suzuki" in kind else set()
            for params in fam.grid:
                cat = fam.build(*params)
                assert self.tables(cat.group) == want, fam.spec(params)
                for n in divisors(cat.group.order):
                    nu_brute(cat, n)
                c_omega(cat.omega)
                frobenius_check(cat)
                assert self.tables(cat.group) == want, fam.spec(params)

    def test_the_h2n2_20_build_computes_each_row_of_g_once(self, monkeypatch):
        # G = Z_20 x Z_20 has generators 1 and 20, found from their rows, and
        # law 2 reads rows s and s <| 1 at each, the swap of s: the same two
        calls = []
        row = BicrossedGroup.row

        def counting_row(self, p):
            calls.append((self.label, p))
            return row(self, p)

        monkeypatch.setattr(BicrossedGroup, "row", counting_row)
        parse_family_spec("h2n2:20:11")
        assert calls == [("(Z20xZ20)", 1), ("(Z20xZ20)", 20)]

    def test_h2n2_45_builds_and_reads_every_indicator_in_under_4_mb(self):
        # tabulating G = Z_45 x Z_45 alone would take 33.7 MB
        tracemalloc.start()
        try:
            cat = parse_family_spec("h2n2:45:7")
            values = {n: nu_brute(cat, n) for n in divisors(cat.group.order)}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values == {n: nu_h2n2_closed(45, 7, n) for n in values}
        assert peak < 4_000_000, peak

    def test_checks_still_read_every_product(self):
        # verify_cocycle and conjugacy_classes on a group that has not been
        # tabulated give the reports of the same group tabulated from the
        # per-entry closure
        for fam in FAMILIES.values():
            for params in fam.grid:
                cat = fam.build(*params)
                if cat.group.order > 48:
                    continue
                pair = fam.data(*params).pair
                grp = cat.group
                closure = FiniteGroup(grp.order, bicrossed_mul(pair), check=False)
                report = verify_cocycle(dataclasses.replace(cat.omega, group=closure, block=1))
                assert report.ok and verify_cocycle(cat.omega) == report, cat.label
                assert grp.conjugacy_classes() == closure.conjugacy_classes(), cat.label
                assert grp._source is None
        z400 = psi(400, 7).group
        assert z400.conjugacy_classes() == [[g] for g in range(400)]
