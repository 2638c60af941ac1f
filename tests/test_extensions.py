"""Matched pairs, bicrossed products, and the built-in family constructions."""

from __future__ import annotations

import math

import pytest

from fsind.groups import make_cyclic, make_dihedral
from fsind.cocycles import CocycleError, verify_cocycle
from fsind.extensions import (
    ExtensionData,
    MatchedPair,
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
