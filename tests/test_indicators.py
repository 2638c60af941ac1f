"""Indicator engines: brute force vs oracles, closed forms, derived values,
and the Frobenius divisibility analyzer."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsind.cyclotomic import (
    CyclotomicInteger,
    divisors,
    gauss_sum_closed,
    root,
    sqrt_int,
)
from fsind.groups import direct_product, group_from_table_file, make_cyclic, make_dihedral
from fsind.cocycles import (
    ThreeCocycle,
    c_omega,
    cocycle_from_file,
    conjugate_cocycle,
    omega_tilde_root,
    product_cocycle,
    psi,
    psi_on,
    restrict,
    trivial_cocycle,
)
from fsind.extensions import FAMILIES, GTCategory, parse_family_spec
from fsind.indicators import (
    b_p,
    frobenius_check,
    nu2_tambara_yamagami,
    nu_brute,
    nu_center,
    nu_group_algebra,
    nu_h2n2_closed,
    nu_hn3_closed,
    nu_literal,
    nu_product,
    nu_suzuki_cyclic_closed,
    nu_suzuki_noncyclic_closed,
)


def cyclic_cat(n, r):
    w = psi(n, r)
    return GTCategory(w.group, w, label=f"(Z{n},psi^{r})")


# groups for the engine test: cyclic, dihedral, direct products and the
# quaternion table, all of order 16 or less so that an exponent table has at
# most 4096 entries
ENGINE_GROUPS = [
    *(make_cyclic(n) for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 16)),
    *(make_dihedral(m) for m in (4, 6, 8, 10, 12, 16)),
    *(
        direct_product(a, b)
        for a, b in (
            (make_cyclic(2), make_cyclic(2)),
            (make_cyclic(2), direct_product(make_cyclic(2), make_cyclic(2))),
            (make_cyclic(2), make_cyclic(6)),
            (make_cyclic(4), make_cyclic(4)),
            (make_cyclic(3), make_dihedral(4)),
            (make_dihedral(4), make_cyclic(2)),
        )
    ),
    group_from_table_file(os.path.join(os.path.dirname(__file__), "..", "data", "q8.txt")),
]


def c_literal(w):
    """c(omega) as the lcm over every g of the order of omega_tilde_{ord g}(g)."""
    grp = w.group
    return math.lcm(
        *(omega_tilde_root(w, grp.element_order(g), g).multiplicative_order()
          for g in range(grp.order))
    )


class TestEngines:
    """nu_brute reads the order profile; nu_literal sums term by term."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(ENGINE_GROUPS),
        st.integers(1, 12),
        st.sampled_from([0.05, 0.5, 1.0]),
        st.integers(0, 2**32),
    )
    def test_profile_matches_literal_sum(self, grp, m, density, seed):
        # an arbitrary exponent table, neither a cocycle nor normalized: the
        # profile keeps f(g, 1, g) apart, so the engines agree for any f
        rng = random.Random(seed)
        size = grp.order
        table = [
            rng.randrange(-m, 2 * m) if rng.random() < density else 0
            for _ in range(size ** 3)
        ]
        w = ThreeCocycle(grp, m, lambda g, h, k: table[(g * size + h) * size + k])
        cat = GTCategory(grp, w)
        for n in range(1, 2 * grp.exponent() + 2):
            assert nu_brute(cat, n) == nu_literal(cat, n), (grp, m, n)
        assert c_omega(w) == c_literal(w)

    def test_c_omega_on_family_grids(self):
        for fam in FAMILIES.values():
            for params in fam.grid:
                w = fam.build(*params).omega
                assert c_omega(w) == c_literal(w), fam.spec(params)

    def test_order_profile_of_trivial_cocycle(self):
        w = trivial_cocycle(make_cyclic(6))
        assert w.order_profile == {(1, 0, 0): 1, (2, 0, 0): 1, (3, 0, 0): 2, (6, 0, 0): 2}


class TestOrderProfileByCyclicSubgroup:
    """A normalized cocycle's profile walks one element per cyclic subgroup;
    the per-element pass (is_cocycle=False) is its oracle."""

    def test_matches_the_per_element_pass(self):
        cocycles = [
            *(fam.build(*params).omega for fam in FAMILIES.values() for params in fam.grid),
            *(psi(big_n, r) for big_n in range(1, 81) for r in range(big_n)),
        ]
        for w in cocycles:
            assert w.is_cocycle, w.label
            oracle = dataclasses.replace(w, is_cocycle=False).order_profile
            assert w.order_profile == oracle, w.label

    def test_matches_the_per_element_pass_on_the_divisor_sweep(self):
        # the categories of perfbench's divisor-sweep: every parameter of
        # h2n2:20, hn3:9 and suzuki:5:30, and psi^r on Z_400 and Z_360 for r
        # of every gcd with N that the spread below reaches
        specs = [
            *(f"h2n2:20:{xi}" for xi in range(20)),
            *(f"hn3:9:{xi}:{zeta}" for xi in range(9) for zeta in range(9)),
            *(f"suzuki:5:30:{alpha}:{beta}" for alpha in (1, -1) for beta in (1, -1)),
        ]
        cocycles = [
            *(parse_family_spec(spec).omega for spec in specs),
            *(psi(400, r) for r in (0, 1, 2, 7, 16, 25, 40, 80, 150, 200, 399)),
            *(psi(360, r) for r in (0, 1, 3, 8, 11, 45, 60, 120, 180, 359)),
        ]
        for w in cocycles:
            oracle = dataclasses.replace(w, is_cocycle=False).order_profile
            assert w.order_profile == oracle, w.label

    @staticmethod
    def calls_to_exp_fn(w):
        """The calls to exp_fn that the order profile of w makes."""
        calls = 0
        f = w.exp_fn

        def counted(g, h, k):
            nonlocal calls
            calls += 1
            return f(g, h, k)

        assert dataclasses.replace(w, exp_fn=counted).order_profile == w.order_profile
        return calls

    def test_one_walk_per_cyclic_subgroup_on_z400(self):
        # Z_400 is one cyclic subgroup, reached whole by the walk of 1 in
        # 399 calls, against sigma(400) = 961 with one walk per cyclic
        # subgroup and 89,091 with one per element
        for r in (1, 7):
            assert self.calls_to_exp_fn(psi(400, r)) == 399, r

    def test_calls_on_the_divisor_sweep_families(self):
        # 1,771 and 1,426 with one walk per cyclic subgroup
        for spec, calls in (("h2n2:20:11", 1468), ("suzuki:5:30:-1:1", 924)):
            assert self.calls_to_exp_fn(parse_family_spec(spec).omega) == calls, spec

    def test_builders_set_the_field(self, tmp_path):
        z6 = make_cyclic(6)
        path = tmp_path / "omega.txt"
        path.write_text("order 1\n")
        built = [
            trivial_cocycle(z6),
            psi(6, 1),
            psi_on(z6, 5),
            parse_family_spec("h2n2:3:1").omega,  # omega_from_extension
            cocycle_from_file(z6, path),
        ]
        for w in built:
            assert w.is_cocycle, w.label
        assert not ThreeCocycle(z6, 1, lambda g, h, k: 0).is_cocycle

    def test_derived_cocycles_pass_the_field_on(self):
        bare = ThreeCocycle(make_cyclic(6), 1, lambda g, h, k: 0)
        for w in (psi(6, 1), bare):
            assert restrict(w, [0, 2, 4]).is_cocycle == w.is_cocycle
            assert conjugate_cocycle(w).is_cocycle == w.is_cocycle
            assert product_cocycle(w, w).is_cocycle == w.is_cocycle
        assert not product_cocycle(psi(3, 1), bare).is_cocycle
        assert not product_cocycle(bare, psi(3, 1)).is_cocycle


class TestBruteForce:
    def test_nu_1_is_one(self):
        for spec in ("h2n2:3:1", "hn3:3:1:1", "suzuki:1:2:-1:-1", "suzukiP:2:2:-1"):
            assert nu_brute(parse_family_spec(spec), 1) == 1

    def test_trivial_cocycle_counts_torsion(self):
        for grp in (make_cyclic(12), make_dihedral(10)):
            cat = GTCategory(grp, trivial_cocycle(grp))
            for n in range(1, grp.order + 1):
                assert nu_brute(cat, n) == len(grp.torsion(n))
                assert nu_group_algebra(grp, n) == len(grp.torsion(n))

    def test_cyclic_psi_gives_gauss_sums(self):
        # nu_n(Z_N, psi^r) = gcd(N,n)^2/N * S(n*r/d, d) would be fractional in
        # general; the direct statement tested here is the torsion-sum formula
        for big_n in range(1, 11):
            for r in range(big_n):
                cat = cyclic_cat(big_n, r)
                for n in range(1, 2 * big_n + 1):
                    d = math.gcd(big_n, n)
                    expected = gauss_sum_closed(n * r // d, d)
                    assert nu_brute(cat, n) == expected, (big_n, r, n)

    def test_nu_2_is_a_real_integer(self):
        specs = [
            "h2n2:2:1", "h2n2:5:2", "hn3:3:2:1",
            "suzuki:3:2:1:-1", "suzukiP:2:3:-1",
        ]
        for spec in specs:
            v = nu_brute(parse_family_spec(spec), 2)
            assert v.is_rational() and v == v.conjugate(), spec

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            nu_brute(cyclic_cat(3, 1), 0)


def grid_categories(kind):
    """(params, category) over the family's default sweep grid."""
    fam = FAMILIES[kind]
    return [(params, fam.build(*params)) for params in fam.grid]


class TestClosedFormH2N2:
    def test_matches_brute(self):
        for (big_n, xi_exp), cat in grid_categories("h2n2"):
            for n in divisors(2 * big_n) + [8, 12]:
                closed = nu_h2n2_closed(big_n, xi_exp, n)
                assert closed == nu_brute(cat, n), (big_n, xi_exp, n)

    def test_odd_n_square(self):
        assert nu_h2n2_closed(6, 1, 3) == 9
        assert nu_h2n2_closed(5, 2, 5) == 25

    def test_exceptional_even_branch(self):
        # the lower branch fires exactly when the 2-adic pattern aligns
        assert nu_h2n2_closed(2, 1, 4) == 4  # b2(N)=b2(ord xi)=1=b2(n)-1
        assert nu_h2n2_closed(2, 0, 4) == 8  # trivial xi escapes the branch


class TestClosedFormHN3:
    def test_matches_brute_n3(self):
        n3_grid = [p for p in FAMILIES["hn3"].grid if p[0] == 3]
        for params in n3_grid:
            cat = FAMILIES["hn3"].build(*params)
            for n in (1, 3, 9, 27):
                assert nu_hn3_closed(*params, n) == nu_brute(cat, n), (params, n)

    def test_exceptional_value(self):
        # the non-integer value in the dimension-27 family
        assert nu_hn3_closed(3, 0, 1, 3) == 3 * (5 + 4 * root(3, 1))
        assert nu_hn3_closed(3, 0, 2, 3) == 3 * (5 + 4 * root(3, 2))
        assert nu_hn3_closed(3, 1, 1, 3) == 3 * (5 - 2 * root(3, 1))

    def test_generic_branch_is_integer(self):
        for n in (1, 9, 27):
            for xi_exp in range(3):
                for zeta_exp in range(3):
                    v = nu_hn3_closed(3, xi_exp, zeta_exp, n)
                    assert v.is_rational()


class TestClosedFormSuzuki:
    def test_cyclic_matches_brute(self):
        for params, cat in grid_categories("suzuki"):
            for n in divisors(cat.group.order):
                closed = nu_suzuki_cyclic_closed(*params, n)
                assert closed == nu_brute(cat, n), (params, n)

    def test_noncyclic_matches_brute(self):
        for params, cat in grid_categories("suzukiP"):
            for n in divisors(cat.group.order):
                closed = nu_suzuki_noncyclic_closed(*params, n)
                assert closed == nu_brute(cat, n), (params, n)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            nu_suzuki_cyclic_closed(2, 2, 1, 1, 2)
        with pytest.raises(ValueError):
            nu_suzuki_noncyclic_closed(3, 2, 1, 2)


@st.composite
def closed_form_params(draw):
    """(kind, params) of a family with a closed form: accepted parameters,
    |Gamma| <= 1024, every allowed sign."""
    kind = draw(st.sampled_from(["h2n2", "hn3", "suzuki", "suzukiP"]))
    sign = st.sampled_from((1, -1))
    if kind == "h2n2":  # |Gamma| = 2N^2
        n = draw(st.integers(2, 22))
        return kind, (n, draw(st.integers(-3 * n, 3 * n)))
    if kind == "hn3":  # |Gamma| = N^3
        n = draw(st.sampled_from((3, 5, 7)))
        return kind, (n, draw(st.integers(-2 * n, 2 * n)), draw(st.integers(-2 * n, 2 * n)))
    # |Gamma| = 4NL with L >= 2
    n = draw(st.integers(1, 64).map(lambda k: 2 * k) if kind == "suzukiP" else st.integers(1, 128))
    l = draw(st.integers(2, 256 // n))
    if kind == "suzukiP":
        return kind, (n, l, draw(sign))
    return kind, (n, l, -1 if n % 2 == 0 else draw(sign), draw(sign))


class TestClosedFormsOffTheGrids:
    @settings(max_examples=200, deadline=None)
    @given(closed_form_params())
    def test_closed_form_matches_the_profile(self, drawn):
        kind, params = drawn
        fam = FAMILIES[kind]
        cat = fam.build(*params)
        order = cat.group.order
        for n in divisors(order) + [2 * order, 3 * order]:
            assert fam.closed(*params, n) == nu_brute(cat, n), (kind, params, n)


class TestParameterErrors:
    # the family parameters are N and L, as in the spec fields of FAMILIES;
    # n is the indicator index
    @pytest.mark.parametrize("closed, args, message", [
        (nu_h2n2_closed, (1, 0, 4), "N must be at least 2"),
        (nu_hn3_closed, (1, 0, 0, 3), "N must be odd and at least 3"),
        (nu_hn3_closed, (4, 0, 0, 3), "N must be odd and at least 3"),
        (nu_suzuki_cyclic_closed, (0, 2, -1, 1, 2), "N must be at least 1"),
        (nu_suzuki_noncyclic_closed, (0, 2, 1, 2), "N must be even and at least 2"),
        (nu_suzuki_noncyclic_closed, (3, 2, 1, 2), "N must be even and at least 2"),
        (nu_suzuki_cyclic_closed, (1, 1, -1, 1, 2), "L must be at least 2"),
        (nu_suzuki_noncyclic_closed, (2, 1, 1, 2), "L must be at least 2"),
    ])
    def test_out_of_range_family_parameters_are_named(self, closed, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            closed(*args)


class TestDerivedValues:
    def test_nu_center_matches_double_brute(self):
        # the center construction doubles the group and pairs the cocycle
        # with its conjugate; |nu_n|^2 must equal the brute value there
        for big_n in range(1, 7):
            for r in range(big_n):
                w = psi(big_n, r)
                doubled = product_cocycle(w, conjugate_cocycle(w))
                cat = GTCategory(doubled.group, doubled)
                base = cyclic_cat(big_n, r)
                for n in divisors(big_n):
                    lhs = nu_center(nu_brute(base, n))
                    rhs = nu_brute(cat, n)
                    assert lhs == rhs, (big_n, r, n)

    def test_nu_product(self):
        a = nu_brute(cyclic_cat(3, 1), 3)
        b = nu_brute(cyclic_cat(5, 1), 5)
        w = product_cocycle(psi(3, 1), psi(5, 1))
        cat = GTCategory(w.group, w)
        assert nu_product(a, b) == nu_brute(cat, 15)

    def test_tambara_yamagami(self):
        # Z_2: 2 involutions, nu_2 = 2 +/- sqrt(2)
        assert nu2_tambara_yamagami(make_cyclic(2), 1) == 2 + sqrt_int(2)
        # Z_4: values 2 +/- 2
        assert nu2_tambara_yamagami(make_cyclic(4), -1) == 0
        assert nu2_tambara_yamagami(make_cyclic(4), 1) == 4
        # Z_3 x Z_3: 1 involution, exact sqrt 9 = 3
        g9 = direct_product(make_cyclic(3), make_cyclic(3))
        assert nu2_tambara_yamagami(g9, -1) == -2

    def test_tambara_yamagami_rejects_nonabelian(self):
        with pytest.raises(ValueError):
            nu2_tambara_yamagami(make_dihedral(8), 1)

    def test_b_p(self):
        assert b_p(2, 48) == 4
        assert b_p(3, 48) == 1
        assert b_p(5, 48) == 0

    def test_b_p_refuses_zero(self):
        with at_once(), pytest.raises(ValueError, match="valuation of 0"):
            b_p(2, 0)

    @pytest.mark.parametrize("spec", [
        "h2n2:1:0", "h2n2:0:1", "h2n2:-2:1",
        "hn3:1:0:0", "hn3:4:1:1", "hn3:-3:1:1",
        "suzuki:0:2:-1:1",  # b_p(2, 0) never ended
        "suzuki:3:2:-1:7", "suzuki:-3:2:-1:1", "suzuki:3:2:0:1",
        "suzuki:2:2:1:1", "suzuki:1:1:1:1",
        "suzukiP:2:2:5", "suzukiP:3:2:1", "suzukiP:0:2:1", "suzukiP:-2:2:1", "suzukiP:2:1:1",
    ])
    def test_invalid_parameters_are_refused_by_builder_and_closed_form(self, spec):
        kind, *fields = spec.split(":")
        fam, params = FAMILIES[kind], list(map(int, fields))
        with at_once():
            with pytest.raises(ValueError):
                fam.data(*params)
            with pytest.raises(ValueError):
                fam.closed(*params, 4)


@contextlib.contextmanager
def at_once(seconds=5):
    """Fail, rather than hang, if the body runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestFrobeniusAnalyzer:
    def test_integrality_when_c_small(self):
        # gcd(n, c(omega)) <= 2 for all n forces every nu_n to be rational
        for spec in ("suzuki:1:2:1:-1", "suzuki:3:2:-1:1", "suzukiP:2:2:-1"):
            cat = parse_family_spec(spec)
            c = c_omega(cat.omega)
            assert c <= 2, spec
            report = frobenius_check(cat)
            for e in report.entries:
                assert e.value.conductor == 1, (spec, e.n)

    def test_positive_cases(self):
        for spec in ("h2n2:2:1", "h2n2:3:1", "suzuki:1:2:1:1", "suzukiP:2:2:1"):
            report = frobenius_check(parse_family_spec(spec))
            assert report.verdict, spec

    def test_cyclic_psi_failure_with_refined_pass(self):
        # (Z_5, psi^1): nu_5 is not divisible by 5, but nu_5 * sqrt(5)/5 is
        report = frobenius_check(cyclic_cat(5, 1))
        assert not report.verdict
        assert report.c_omega == 5
        entry = {e.n: e for e in report.entries}[5]
        assert not entry.divisible_by_n
        assert entry.p == 5
        assert entry.divisible_by_n_over_sqrt_p

    def test_composite_gcd_marked_inapplicable(self):
        # (Z_15, psi^1) has c = 15; at n = 15 the gcd is composite
        report = frobenius_check(cyclic_cat(15, 1))
        entry = {e.n: e for e in report.entries}[15]
        assert entry.p == 15
        assert "inapplicable" in entry.note

    def test_even_prime_note(self):
        report = frobenius_check(cyclic_cat(2, 1))
        entry = {e.n: e for e in report.entries}[2]
        assert entry.p == 2
        assert "even prime" in entry.note

    def test_entries_cover_all_divisors(self):
        cat = parse_family_spec("h2n2:3:1")
        report = frobenius_check(cat)
        assert [e.n for e in report.entries] == divisors(18)
