"""Matched pairs, bicrossed products, and the built-in family constructions."""

from __future__ import annotations

import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsind.groups import FiniteGroup, make_cyclic, make_dihedral
from fsind.cocycles import CocycleError, verify_cocycle
from fsind.extensions import (
    ExtensionData,
    MatchedPair,
    _dihedral_bar,
    bicrossed_product,
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
    suzuki_cyclic_group,
    suzuki_noncyclic_pair,
    trivial_pair,
)
from fsind.indicators import nu_brute


class TestMatchedPairs:
    def test_trivial_pair_gives_direct_product(self):
        pair = trivial_pair(make_cyclic(3), make_cyclic(4))
        grp = bicrossed_product(pair)
        assert grp.order == 12 and grp.exponent() == 12

    def test_identity_axioms_enforced(self):
        with pytest.raises(ValueError):
            MatchedPair(
                make_cyclic(3),
                make_cyclic(2),
                lambda g, x: g,
                lambda g, x: (x + g) % 3,  # identity of G must act trivially
            )

    def test_bicrossed_is_a_group(self):
        for pair in (h2n2_pair(3), hn3_pair(3), suzuki_noncyclic_pair(2, 2)):
            grp = bicrossed_product(pair)  # runs the associativity check
            assert grp.order == pair.F.order * pair.G.order

    def test_power_iteration_matches_group_power(self):
        for pair in (h2n2_pair(4), hn3_pair(3), suzuki_noncyclic_pair(2, 3)):
            grp = bicrossed_product(pair)
            ng = pair.G.order
            for p in range(grp.order):
                x, g = divmod(p, ng)
                for n in (1, 2, 3, 5, 8):
                    xn, gn = power_iteration(pair, x, g, n)
                    assert xn * ng + gn == grp.power(p, n), (pair, p, n)


# the per-entry multiplication closures bicrossed_product and
# suzuki_cyclic_group used before they were built from their factors' rows,
# kept as the oracle


def bicrossed_mul(pair):
    ng = pair.G.order

    def mul(p, q):
        x, g = divmod(p, ng)
        y, h = divmod(q, ng)
        return pair.F.mul(x, pair.act_left(g, y)) * ng + pair.G.mul(pair.act_right(g, y), h)

    return mul


def suzuki_mul(n, l):
    two_l = 2 * l
    dih = make_dihedral(two_l)

    def mul(p, q):
        i1, d1 = divmod(p, two_l)
        i2, d2 = divmod(q, two_l)
        x1 = _dihedral_bar(d1, l) if i2 % 2 else d1
        return ((i1 + i2) % (2 * n)) * two_l + dih.mul(x1, d2)

    return mul


def assert_matches_closure(grp, mul):
    """grp's table equals the closure's entry for entry, and its element
    orders equal those found by multiplying by g until the identity."""
    n = grp.order
    assert [[grp.mul(g, h) for h in range(n)] for g in range(n)] == [
        [mul(g, h) for h in range(n)] for g in range(n)
    ]
    for g in range(n):
        k, x = 1, g
        while x != 0:
            x = mul(x, g)
            k += 1
        assert grp.element_order(g) == k, (grp, g)


def table_pair(f_group, g_group, left, right):
    """A matched pair given by action tables left[g][y] and right[g][y]."""
    return MatchedPair(f_group, g_group, lambda g, y: right[g][y], lambda g, y: left[g][y])


@st.composite
def semidirect_pairs(draw):
    """Z_m |x Z_k with g |> y = u^g y, or Z_k |x< Z_m with g <| y = u^y g,
    for a unit u of Z_m with u^k = 1."""
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    u = draw(st.sampled_from([u for u in range(m) if math.gcd(u, m) == 1 and pow(u, k, m) == 1 % m]))
    zm, zk = make_cyclic(m), make_cyclic(k)
    if draw(st.booleans()):
        left = [[pow(u, g, m) * y % m for y in range(m)] for g in range(k)]
        return table_pair(zm, zk, left, [[g] * m for g in range(k)])
    right = [[pow(u, y, m) * g % m for y in range(k)] for g in range(m)]
    return table_pair(zk, zm, [list(range(k))] * m, right)


def symmetric_factorization(n):
    """S_n = S_(n-1) Z_n: F fixes n-1, G is generated by the n-cycle c, and
    g y = (g |> y)(g <| y) with both actions nontrivial for n >= 4."""
    perms = list(permutations(range(n - 1)))  # the identity first
    f_elems = [p + (n - 1,) for p in perms]
    cycle = tuple((i + 1) % n for i in range(n))
    g_elems = [tuple(range(n))]
    for _ in range(n - 1):
        g_elems.append(tuple(cycle[i] for i in g_elems[-1]))

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
    g_group = FiniteGroup(n, lambda a, b: g_index[compose(g_elems[a], g_elems[b])])
    return table_pair(f_group, g_group, left, right)


class TestBuilders:
    @pytest.mark.parametrize(
        "pair",
        [h2n2_pair(n) for n in (2, 3, 5)]
        + [hn3_pair(n) for n in (3, 5)]
        + [suzuki_noncyclic_pair(n, l) for n in (2, 4) for l in (2, 3)]
        + [symmetric_factorization(n) for n in (3, 4)],
    )
    def test_bicrossed_product_matches_the_closure(self, pair):
        assert_matches_closure(bicrossed_product(pair), bicrossed_mul(pair))

    @settings(max_examples=60, deadline=None)
    @given(semidirect_pairs())
    def test_random_pairs_match_the_closure(self, pair):
        assert_matches_closure(bicrossed_product(pair), bicrossed_mul(pair))

    def test_suzuki_group_matches_the_closure(self):
        for n in (1, 2, 3, 5):
            for l in (2, 3, 4):
                assert_matches_closure(suzuki_cyclic_group(n, l), suzuki_mul(n, l))

    def test_both_actions_of_s4_are_nontrivial(self):
        pair = symmetric_factorization(4)
        assert any(pair.act_left(g, y) != y for g in range(4) for y in range(6))
        assert any(pair.act_right(g, y) != g for g in range(4) for y in range(6))


def check_cocycle(omega, context):
    """Exact verification over the group's generators, at every order."""
    report = verify_cocycle(omega)
    assert report.ok, (context, str(report))


class TestH2N2Family:
    def test_cocycle_valid(self):
        for n in (2, 3, 4, 5):
            for xi_exp in range(n):
                cat = omega_from_extension(family_h2n2(n, xi_exp), verify=False)
                check_cocycle(cat.omega, (n, xi_exp))

    def test_inconsistent_extension_data_is_rejected(self):
        # sigma(g; x, y) at g = (1, 1) in Z_3 x Z_3 and x = y = 1 in Z_2, plus one
        data = family_h2n2(3, 1)
        sigma = data.sigma_exp
        bumped = ExtensionData(
            data.pair, data.value_order,
            lambda g, x, y: sigma(g, x, y) + ((g, x, y) == (4, 1, 1)), data.tau_exp,
        )
        with pytest.raises(CocycleError, match="inconsistent extension data"):
            omega_from_extension(bumped)
        assert omega_from_extension(data).group.order == 18

    def test_pointwise_display_formula(self):
        # collapsed form: with xi = zeta_N^xi_exp the cocycle is
        #   1                     when a3 = 0
        #   xi^(j1*i2)            when a3 = 1, a2 = 0
        #   xi^(i1*j1 + i1*i2)    when a3 = 1, a2 = 1
        for n in (2, 3, 4, 5):
            xi_exp = 1
            cat = omega_from_extension(family_h2n2(n, xi_exp), verify=False)
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
        cases = [(3, x, z) for x in range(3) for z in range(3)]
        cases += [(5, 0, 0), (5, 1, 0), (5, 0, 1), (5, 2, 3), (5, 4, 4)]
        for n, xi_exp, zeta_exp in cases:
            cat = omega_from_extension(family_hn3(n, xi_exp, zeta_exp), verify=False)
            check_cocycle(cat.omega, (n, xi_exp, zeta_exp))

    def test_pointwise_display_formula(self):
        # omega((a1,i1,j1),(a2,i2,j2),(a3,i3,j3)) =
        #   (lam_{j1+j2} lam_{j1}^-1 lam_{j2}^-1)^a3
        #   * zeta^(a3*j1*i2 + binom(a3,2)*j1*j2)
        n = 3
        nn = n * n
        for xi_exp in range(n):
            for zeta_exp in range(n):
                cat = omega_from_extension(
                    family_hn3(n, xi_exp, zeta_exp), verify=False
                )
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
        base = omega_from_extension(family_hn3(n, xi_exp, zeta_exp), verify=False)
        for lambda_exp in range(9):
            if (lambda_exp + xi_exp) % n:
                with pytest.raises(ValueError):
                    family_hn3(n, xi_exp, zeta_exp, lambda_exp=lambda_exp)
                continue
            alt = omega_from_extension(
                family_hn3(n, xi_exp, zeta_exp, lambda_exp=lambda_exp),
                verify=False,
            )
            for nu_n in (1, 3, 9, 27):
                assert nu_brute(alt, nu_n) == nu_brute(base, nu_n), (
                    lambda_exp, nu_n,
                )

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            family_hn3(4, 1, 1)


class TestSuzukiFamilies:
    def test_group_structure(self):
        grp = suzuki_cyclic_group(3, 2)
        assert grp.order == 24
        two_l = 4
        b = two_l  # b^1 r^0 s^0
        r = 2  # r^1
        s = 1  # s^1
        assert grp.element_order(b) == 6  # b has order 2N
        # b r b^-1 = r^-1 and b s b^-1 = r^-1 s
        binv = grp.inv(b)
        assert grp.mul(grp.mul(b, r), binv) == grp.inv(r)
        assert grp.mul(grp.mul(b, s), binv) == grp.mul(grp.inv(r), s)

    def test_cyclic_case_has_cyclic_sylow_center_element(self):
        # b generates a cyclic subgroup of order 2N containing the center part
        grp = suzuki_cyclic_group(1, 2)
        assert grp.order == 8

    def test_cocycle_valid(self):
        for n in (1, 2, 3):
            for l in (2, 3):
                for alpha in (1, -1):
                    for beta in (1, -1):
                        if n % 2 == 0 and alpha == 1:
                            continue
                        cat = family_suzuki_cyclic(n, l, alpha, beta)
                        check_cocycle(cat.omega, (n, l, alpha, beta))

    def test_noncyclic_cocycle_valid(self):
        for n in (2, 4):
            for l in (2, 3):
                for beta in (1, -1):
                    cat = family_suzuki_noncyclic(n, l, beta)
                    check_cocycle(cat.omega, (n, l, beta))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            family_suzuki_cyclic(2, 2, 1, 1)  # even N needs alpha = -1
        with pytest.raises(ValueError):
            family_suzuki_cyclic(1, 1, 1, 1)  # L >= 2
        with pytest.raises(ValueError):
            family_suzuki_noncyclic(3, 2, 1)  # odd N has no non-cyclic case

    def test_eta_branch_only_matters_through_beta(self):
        # the two beta values genuinely differ at some indicator
        a = family_suzuki_cyclic(1, 2, 1, 1)
        b = family_suzuki_cyclic(1, 2, 1, -1)
        assert any(nu_brute(a, n) != nu_brute(b, n) for n in (2, 4, 8))


class TestBismashAndFiles:
    def test_bismash_trivial_cocycle(self):
        cat = family_bismash(h2n2_pair(3))
        assert cat.omega.value_order == 1
        assert cat.group.order == 18

    def test_pair_file_round_trip(self, tmp_path):
        pair = h2n2_pair(3)
        lines = ["F cyclic:2", "G product:cyclic:3,cyclic:3", "act_right"]
        for g in range(pair.G.order):
            lines.append(" ".join(str(pair.act_right(g, x)) for x in range(2)))
        path = tmp_path / "pair.txt"
        path.write_text("\n".join(lines) + "\n")
        loaded = pair_from_file(path)
        grp_a = bicrossed_product(pair)
        grp_b = bicrossed_product(loaded)
        assert all(
            grp_a.mul(p, q) == grp_b.mul(p, q)
            for p in range(grp_a.order)
            for q in range(grp_a.order)
        )

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
