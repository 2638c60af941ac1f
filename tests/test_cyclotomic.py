"""Exact cyclotomic arithmetic: canonical forms, ring laws, divisibility."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsind.cyclotomic import (
    CyclotomicInteger,
    RootOfUnity,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    factorize,
    root,
    sqrt_int,
)

CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 20, 24]


def rand_value(rng, conductor=None):
    m = conductor or rng.choice(CONDUCTORS)
    coeffs = {rng.randrange(m): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))}
    return CyclotomicInteger(m, coeffs)


small_values = st.builds(
    lambda seed: rand_value(random.Random(seed)), st.integers(0, 10_000)
)

# composite conductors with several proper subfields each; 84 and 210 have
# three and four primes, so one shrink can strip several at once
WIDE_CONDUCTORS = CONDUCTORS + [28, 30, 36, 40, 45, 48, 60, 84, 210]
OPERATIONS = [
    lambda x, y: x + y,
    lambda x, y: x * y,
    lambda x, y: x * y.conjugate(),
    lambda x, y: x + x.conjugate(),
    lambda x, y: x * x.conjugate(),
    lambda x, y: 3 * x,
    lambda x, y: x * CyclotomicInteger.from_int(-2),
    lambda x, y: -x,
    lambda x, y: x + 5,
]


def _built_value(seed, op):
    rng = random.Random(seed)
    x, y = (rand_value(rng, rng.choice(WIDE_CONDUCTORS)) for _ in range(2))
    return op(x, y)


built_values = st.builds(_built_value, st.integers(0, 10_000), st.sampled_from(OPERATIONS))


def automorphism(x, a):
    """zeta_M -> zeta_M^a on x, M its stored conductor and a coprime to M."""
    m, coeffs = x.power_basis_coeffs()
    return sum((c * root(m, a * k) for k, c in enumerate(coeffs)), CyclotomicInteger.zero())


class TestBasics:
    def test_integer_embedding(self):
        assert CyclotomicInteger.from_int(7) == 7
        assert CyclotomicInteger.from_int(0).is_zero()
        assert CyclotomicInteger.from_int(-3).as_int() == -3

    def test_root_identities(self):
        assert root(4, 1) * root(4, 1) == -1
        assert root(3, 1) + root(3, 2) == -1
        total = CyclotomicInteger.zero()
        for k in range(1, 5):
            total = total + root(5, k)
        assert total == -1

    def test_root_conductor_reduction(self):
        assert root(6, 2) == root(3, 1)
        assert root(8, 4) == -1
        assert root(12, 3).conductor == 4

    def test_primitive_root_not_rational(self):
        for m in (3, 4, 5, 7, 8, 9):
            assert not root(m, 1).is_rational()

    def test_conjugate(self):
        x = 2 + 3 * root(5, 1)
        assert x.conjugate() == 2 + 3 * root(5, 4)
        assert (x * x.conjugate()).conjugate() == x * x.conjugate()


class TestRingLaws:
    @given(small_values, small_values, small_values)
    @settings(max_examples=60, deadline=None)
    def test_mul_associative_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_values, small_values)
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(small_values)
    @settings(max_examples=60, deadline=None)
    def test_neutral_elements(self, a):
        assert a + CyclotomicInteger.zero() == a
        assert a * 1 == a
        assert (a - a).is_zero()

    @given(built_values, st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_scalar_products_match_the_constructor(self, x, c):
        expected = CyclotomicInteger(x.conductor, {e: c * v for e, v in x._coeffs.items()})
        r = CyclotomicInteger.from_int(c)
        for y in (x * c, c * x, x * r, r * x):
            assert (y.conductor, y._coeffs) == (expected.conductor, expected._coeffs)
        zero = x * 0
        assert zero.is_zero() and zero.conductor == 1

    @given(small_values)
    @settings(max_examples=30, deadline=None)
    def test_power_is_repeated_product(self, x):
        product = CyclotomicInteger.from_int(1)
        for k in range(8):
            y = x**k
            assert (y.conductor, y._coeffs) == (product.conductor, product._coeffs)
            product = product * x
        with pytest.raises(ValueError):
            x ** -1

    @given(small_values)
    @settings(max_examples=40, deadline=None)
    def test_float_embedding_consistent(self, a):
        b = rand_value(random.Random(1), conductor=12)
        exact = (a * b).to_complex()
        approx = a.to_complex() * b.to_complex()
        assert abs(exact - approx) < 1e-6 * max(1.0, abs(exact))


class TestCyclotomicPolynomials:
    def test_known_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_degrees(self):
        for m in CONDUCTORS:
            assert len(cyclotomic_polynomial(m)) == euler_phi(m) + 1


class TestPowerBasis:
    def test_integer(self):
        assert CyclotomicInteger.from_int(9).power_basis_coeffs() == (1, [9])

    def test_sqrt5(self):
        m, coeffs = sqrt_int(5).power_basis_coeffs()
        assert m == 5 and len(coeffs) == euler_phi(5)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(30):
            x = rand_value(rng)
            m, coeffs = x.power_basis_coeffs()
            rebuilt = CyclotomicInteger.zero()
            for k, c in enumerate(coeffs):
                rebuilt = rebuilt + c * root(m, k)
            assert rebuilt == x


class TestDivisibility:
    def test_integers(self):
        assert CyclotomicInteger.from_int(6).is_divisible_by_integer(2)
        assert not CyclotomicInteger.from_int(7).is_divisible_by_integer(2)

    def test_sqrt5(self):
        s = sqrt_int(5)
        assert not s.is_divisible_by_integer(5)
        assert (s * s).is_divisible_by_integer(5)

    def test_against_charpoly_oracle(self):
        # x/n is an algebraic integer iff the characteristic polynomial of
        # multiplication by x/n on Q(zeta_M) has integer coefficients
        import sympy

        rng = random.Random(3)
        for _ in range(100):
            x = rand_value(rng)
            n = rng.randint(2, 6)
            assert x.is_divisible_by_integer(n) == _charpoly_integral(x, n, sympy)


def _charpoly_integral(x, n, sympy):
    m, coeffs = x.power_basis_coeffs()
    phi = euler_phi(m)
    mod = cyclotomic_polynomial(m)
    cols = []
    for j in range(phi):
        # x * zeta^j reduced mod Phi_m
        poly = [0] * j + list(coeffs)
        poly = _poly_mod_local(poly, mod)
        cols.append(poly + [0] * (phi - len(poly)))
    mat = sympy.Matrix(phi, phi, lambda i, j: sympy.Rational(cols[j][i], n))
    char = mat.charpoly().all_coeffs()
    return all(c.is_integer for c in char)


def _poly_mod_local(poly, mod):
    poly = list(poly)
    deg = len(mod) - 1
    while len(poly) > deg:
        lead = poly.pop()
        if lead:
            for i, c in enumerate(mod[:-1]):
                poly[len(poly) - deg + i] -= lead * c
    return poly


class TestNormalForm:
    def test_equality_across_conductors(self):
        assert root(6, 1) == -root(3, 2)
        assert root(12, 4) == root(3, 1)
        x = root(8, 2)
        assert x == root(4, 1)

    def test_minimize_reaches_subfield(self):
        x = root(12, 3)  # equals i
        assert x.conductor == 4 and x == root(4, 1)

    def test_minimize_fixed_point(self):
        s = sqrt_int(5)
        assert s.conductor == 5

    @given(built_values, st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_stored_conductor_is_minimal(self, x, k):
        # x lies in Z[zeta_d] iff every zeta -> zeta^a with a = 1 mod d fixes
        # it; d = 2 mod 4 gives the same subgroup as d / 2
        m = x.conductor
        assert m % 4 != 2
        for d in divisors(m)[:-1]:
            if d % 4 != 2:
                assert any(
                    not (automorphism(x, a) - x).is_zero()
                    for a in range(1 + d, m, d) if math.gcd(a, m) == 1
                ), (x, d)
        # the same value re-expressed at a multiple of its conductor
        m, coeffs = x.power_basis_coeffs()
        y = CyclotomicInteger(k * m, {k * j: c for j, c in enumerate(coeffs)})
        assert (y.conductor, y._coeffs) == (x.conductor, x._coeffs)

    def test_exponents_equal_mod_m_add_up(self):
        # 1 = 5 mod 4 and -1 = 2 mod 3: each pair is one monomial, twice
        assert CyclotomicInteger(4, {1: 1, 5: 1}) == 2 * root(4, 1)
        assert CyclotomicInteger(3, {-1: 1, 2: 1}) == 2 * root(3, 2)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_constructor_is_the_sum_of_its_terms(self, data):
        # exponents below 0 and at or above M, several in one class mod M, and
        # often all sharing a factor d with M
        m = data.draw(st.sampled_from(WIDE_CONDUCTORS))
        d = data.draw(st.sampled_from(divisors(m)))
        terms = data.draw(st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(-3, 3)), st.integers(-9, 9), max_size=8
        ))
        coeffs = {r * d + k * m: c for (r, k), c in terms.items()}
        expected = sum((c * root(m, x) for x, c in coeffs.items()), CyclotomicInteger.zero())
        assert CyclotomicInteger(m, coeffs) == expected

    def test_render(self):
        assert CyclotomicInteger.from_int(5).render_text() == "5"
        assert (15 + 12 * root(3, 1)).render_text() == "15 + 12*z3^1"
        assert CyclotomicInteger.zero().render_text() == "0"

    def test_json(self):
        d = sqrt_int(5).to_json_dict()
        assert set(d) == {"conductor", "coeffs", "approx"}
        assert abs(d["approx"]["re"] - math.sqrt(5)) < 1e-9


class TestHelpers:
    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(1) == {}

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]

    def test_euler_phi(self):
        assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_root_of_unity_type(self):
        r = RootOfUnity(6, 4)
        assert (r.order, r.exponent) == (3, 2)
        assert r.multiplicative_order() == 3
        assert (r * r.inverse()).order == 1
