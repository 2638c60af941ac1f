"""Quadratic Gauss sums and Jacobi symbols."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsind import cyclotomic
from fsind.cyclotomic import (
    CyclotomicInteger,
    divide_by_sqrt_p_and_test,
    divisors,
    gauss_sum_closed,
    gauss_sum_direct,
    jacobi_symbol,
    root,
    sqrt_int,
)


class TestJacobi:
    def test_known_values(self):
        assert jacobi_symbol(1, 1) == 1
        assert jacobi_symbol(2, 7) == 1
        assert jacobi_symbol(3, 7) == -1
        assert jacobi_symbol(7, 15) == -1
        assert jacobi_symbol(6, 15) == 0

    def test_against_euler_criterion(self):
        for p in (3, 5, 7, 11, 13, 17, 19):
            for a in range(1, p):
                euler = pow(a, (p - 1) // 2, p)
                expected = 1 if euler == 1 else -1
                assert jacobi_symbol(a, p) == expected

    @given(st.integers(0, 400), st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=80, deadline=None)
    def test_multiplicative_in_top(self, a, i, j):
        m = 2 * i + 1
        n = 2 * j + 1
        assert jacobi_symbol(a, m * n) == jacobi_symbol(a, m) * jacobi_symbol(a, n)

    @given(st.integers(0, 400), st.integers(0, 400), st.integers(1, 100))
    @settings(max_examples=80, deadline=None)
    def test_multiplicative_in_bottom(self, a, b, i):
        m = 2 * i + 1
        assert jacobi_symbol(a * b, m) == jacobi_symbol(a, m) * jacobi_symbol(b, m)


class TestGaussSums:
    def test_direct_small(self):
        assert gauss_sum_direct(0, 1) == 1
        # S(1, 4) = 1 + i + 1 + i = 2 + 2i
        assert gauss_sum_direct(1, 4) == 2 + 2 * root(4, 1)

    def test_closed_sqrt_values(self):
        # S(1, p) = sqrt(p) for p = 1 mod 4, i*sqrt(p) for p = 3 mod 4
        assert gauss_sum_closed(1, 5) == sqrt_int(5)
        assert gauss_sum_closed(1, 13) == sqrt_int(13)
        assert gauss_sum_closed(1, 3) == root(4, 1) * sqrt_int(3)
        assert gauss_sum_closed(1, 7) == root(4, 1) * sqrt_int(7)

    def test_magnitudes(self):
        for m in (3, 5, 7, 9, 11):
            s = gauss_sum_closed(1, m)
            assert s * s.conjugate() == m

    def test_closed_equals_direct_exhaustive(self):
        for m in range(1, 81):
            for a in range(m):
                assert gauss_sum_closed(a, m) == gauss_sum_direct(a, m), (a, m)

    def test_direct_reads_a_mod_m(self):
        # a below 0, at or above m, and far beyond the range of a machine word
        for m in range(1, 41):
            for a in (-m - 1, -1, m, 2 * m + 3, 10**20, -(10**20) - 1):
                direct = gauss_sum_direct(a, m)
                assert direct == gauss_sum_closed(a, m), (a, m)
                assert direct == gauss_sum_direct(a % m, m), (a, m)

    def test_closed_and_direct_print_the_same_json(self):
        # equal values give equal approx floats, however their terms are stored
        for m in range(1, 81):
            for a in range(m):
                closed = gauss_sum_closed(a, m).to_json_dict()
                assert closed == gauss_sum_direct(a, m).to_json_dict(), (a, m)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_closed_equals_direct_off_the_grid(self, data):
        # m beyond the exhaustive range; a of any sign, often sharing factors with m
        m = data.draw(st.integers(81, 600))
        a = data.draw(st.sampled_from(divisors(m))) * data.draw(st.integers(-2000, 2000))
        closed, direct = gauss_sum_closed(a, m), gauss_sum_direct(a, m)
        assert closed == direct, (a, m)
        assert closed.to_json_dict() == direct.to_json_dict(), (a, m)

    def test_repeated_closed_forms_make_no_ring_products(self, monkeypatch):
        # the unit eps_m * sqrt(m) is built once per modulus class; a second
        # pass only scales it, reducing nothing above conductor 1
        pairs = [(a, m) for m in range(1, 81) for a in range(m)]
        for a, m in pairs:
            gauss_sum_closed(a, m)
        reductions = []
        canonicalize = cyclotomic._canonicalize

        def counted(m, coeffs):
            if m > 1:
                reductions.append(m)
            return canonicalize(m, coeffs)

        monkeypatch.setattr(cyclotomic, "_canonicalize", counted)
        for a, m in pairs:
            gauss_sum_closed(a, m)
        assert reductions == []

    def test_zero_cases(self):
        # a odd, m = 2 mod 4 with gcd stripped gives 0
        assert gauss_sum_closed(1, 2).is_zero()
        assert gauss_sum_direct(1, 2).is_zero()
        assert gauss_sum_closed(3, 6).is_zero()

    def test_a_reduced_mod_m(self):
        for m in (5, 8, 12):
            for a in range(m):
                assert gauss_sum_closed(a + m, m) == gauss_sum_closed(a, m)


class TestSqrtInt:
    def test_perfect_squares_and_primes(self):
        for n in range(1, 200):
            s = sqrt_int(n)
            assert s * s == n
            assert abs(s.to_complex() - math.sqrt(n)) < 1e-9  # positive branch

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sqrt_int(0)


class TestSqrtDivision:
    def test_sqrt5_over_5(self):
        # 5*sqrt(5) * sqrt(5)/5 = 5: integral; zeta_5 * sqrt(5)/5 is not
        assert divide_by_sqrt_p_and_test(5 * sqrt_int(5), 5, 5)
        assert divide_by_sqrt_p_and_test(sqrt_int(5), 5, 5)  # sqrt(5)^2/5 = 1
        assert not divide_by_sqrt_p_and_test(root(5, 1), 5, 5)

    def test_rational_case(self):
        # 15/(3/sqrt(3)) = 5*sqrt(3): integral
        assert divide_by_sqrt_p_and_test(CyclotomicInteger.from_int(15), 3, 3)
        assert not divide_by_sqrt_p_and_test(CyclotomicInteger.from_int(1), 3, 3)
