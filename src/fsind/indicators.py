"""Indicator engines: brute-force evaluation over (group, cocycle) pairs,
closed-form evaluators for the built-in families, derived quantities, and the
divisibility analyzer for the Frobenius property.

The n-th indicator of a pair (Gamma, omega) is

    nu_n = sum over g with g^n = 1 of prod_{k=1}^{n-1} omega(g, g^k, g),

an exact cyclotomic integer.  The brute-force engine reads every nu_n from
the cocycle's order profile (cached; for a normalized cocycle the walk of g
fills in every power of g not yet seen, else g alone): an element g
of order o | n contributes zeta_M^((n/o) * E_g - u_g).  It accumulates
integer exponent counts and builds a single exact value at the end, so the
hot loop stays in machine arithmetic.  `nu_literal` evaluates the
sum term by term and is kept as the oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cyclotomic import (
    CyclotomicInteger,
    divide_by_sqrt_p_and_test,
    divisors,
    factorize,
    root,
    sqrt_int,
)
from .cocycles import c_omega, omega_tilde_root


def b_p(p, n):
    """The p-adic valuation of n (n != 0)."""
    if n == 0:
        raise ValueError("the p-adic valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# brute force


def nu_brute(cat, n):
    """The exact n-th indicator of a GTCategory, read from the order profile
    of its cocycle."""
    if n < 1:
        raise ValueError("n must be positive")
    m = cat.omega.value_order
    counts: dict[int, int] = {}
    for (o, e, u), count in cat.omega.order_profile.items():
        if n % o == 0:
            acc = (n // o * e - u) % m
            counts[acc] = counts.get(acc, 0) + count
    return CyclotomicInteger(m, counts)


def nu_literal(cat, n):
    """The exact n-th indicator of a GTCategory by direct summation."""
    omega = cat.omega
    m = omega.value_order
    counts: dict[int, int] = {}
    for g in cat.group.torsion(n):
        r = omega_tilde_root(omega, n, g)
        x = r.exponent * (m // r.order)
        counts[x] = counts.get(x, 0) + 1
    return CyclotomicInteger(m, counts)


def nu_group_algebra(grp, n):
    """|{g : g^n = 1}| as an exact integer value."""
    return CyclotomicInteger.from_int(len(grp.torsion(n)))


# ---------------------------------------------------------------------------
# closed forms, each after the one check of its family's parameters, which
# the family's builder (in the extensions module) calls too


def check_h2n2(n_param):
    if n_param < 2:
        raise ValueError("N must be at least 2")


def check_hn3(n_param):
    if n_param < 3 or n_param % 2 == 0:
        raise ValueError("N must be odd and at least 3")


def check_suzuki_cyclic(n_param, l, alpha, beta):
    if alpha not in (1, -1) or beta not in (1, -1):
        raise ValueError("alpha and beta must be +1 or -1")
    if l < 2:
        raise ValueError("L must be at least 2")
    if n_param < 1:
        raise ValueError("N must be at least 1")
    if n_param % 2 == 0 and alpha == 1:
        raise ValueError("the cyclic case requires (N, alpha) != (even, +1)")


def check_suzuki_noncyclic(n_param, l, beta):
    if beta not in (1, -1):
        raise ValueError("beta must be +1 or -1")
    if n_param % 2 or n_param < 2:
        raise ValueError("N must be even and at least 2")
    if l < 2:
        raise ValueError("L must be at least 2")


def nu_h2n2_closed(n_param, xi_exp, n):
    """Closed form for the dimension-2N^2 family (always a rational integer)."""
    check_h2n2(n_param)
    if n < 1:
        raise ValueError("n must be positive")
    big_n = n_param
    d = math.gcd(big_n, n)
    if n % 2 == 1:
        return CyclotomicInteger.from_int(d * d)
    ord_xi = big_n // math.gcd(big_n, xi_exp)
    if b_p(2, big_n) == b_p(2, ord_xi) == b_p(2, n) - 1 and b_p(2, big_n) >= 1:
        return CyclotomicInteger.from_int(d * d)
    return CyclotomicInteger.from_int(d * d + big_n * math.gcd(big_n, n // 2))


def nu_hn3_closed(n_param, xi_exp, zeta_exp, n):
    """Closed form for the dimension-N^3 family (N odd).

    Lies in Z[zeta_3] in the exceptional branch, otherwise a rational integer.
    """
    check_hn3(n_param)
    if n < 1:
        raise ValueError("n must be positive")
    big_n = n_param
    d = math.gcd(big_n, n)
    e1 = big_n * n // (d * d)
    alpha_exp = (xi_exp * e1) % big_n
    ord_alpha = big_n // math.gcd(big_n, alpha_exp)
    ord_xi = big_n // math.gcd(big_n, xi_exp)
    ord_zeta = big_n // math.gcd(big_n, zeta_exp)
    exceptional = (
        b_p(3, n) == b_p(3, big_n) == b_p(3, ord_zeta)
        and b_p(3, n) >= 1
        and b_p(3, ord_xi) <= 1
    )
    if not exceptional:
        return CyclotomicInteger.from_int(d ** 3 // ord_alpha)
    e2 = math.comb(n, 3) * big_n ** 4 // d ** 4
    beta_exp = (zeta_exp * e2) % big_n
    # beta is a primitive third root of unity in this branch
    beta = root(3, beta_exp // (big_n // 3))
    scale = d ** 3 // (9 * ord_alpha)
    if b_p(3, ord_xi) == 0:
        return scale * (5 + 4 * beta)
    return scale * 3 * (5 - 2 * beta)


def nu_suzuki_cyclic_closed(n_param, l, alpha, beta, n):
    """Closed form for the Suzuki family, cyclic case; a rational integer."""
    check_suzuki_cyclic(n_param, l, alpha, beta)
    if n < 1:
        raise ValueError("n must be positive")
    dn = math.gcd(n_param, n)
    dl = math.gcd(l, n)
    total = dn * dl
    if b_p(2, n) - 1 >= b_p(2, n_param):
        total += 2 * l * dn
        if b_p(2, n) - 1 >= b_p(2, l):
            eps = -alpha if b_p(2, n) == 1 else 1
            if b_p(2, n) == b_p(2, n_param) + 1:
                eps *= -1
            if b_p(2, n) == b_p(2, l) + 1:
                eps *= beta
            total += eps * dn * dl
    return CyclotomicInteger.from_int(total)


def nu_suzuki_noncyclic_closed(n_param, l, beta, n):
    """Closed form for the Suzuki family, non-cyclic case (N even)."""
    check_suzuki_noncyclic(n_param, l, beta)
    if n < 1:
        raise ValueError("n must be positive")
    dn = math.gcd(n_param, n)
    dl = math.gcd(l, n)
    total = dn * dl
    if b_p(2, n) >= 1:
        total += l * dn
    if b_p(2, n) - 1 >= b_p(2, n_param):
        total += l * dn
    if b_p(2, n) - 1 >= max(b_p(2, n_param), b_p(2, l)):
        total += (beta if b_p(2, n) - 1 == b_p(2, l) else 1) * dn * dl
    return CyclotomicInteger.from_int(total)


# ---------------------------------------------------------------------------
# derived quantities


def nu_center(value):
    """|value|^2: the value times its complex conjugate."""
    return value * value.conjugate()


def nu_product(a, b):
    """Indicator of a Deligne product: the product of component indicators."""
    return a * b


def nu2_tambara_yamagami(grp, sign_tau):
    """The second indicator of a Tambara-Yamagami type category over an
    abelian group: #{a : a^2 = 1} + sign * sqrt(|A|)."""
    if sign_tau not in (1, -1):
        raise ValueError("sign_tau must be +1 or -1")
    for g in range(grp.order):
        for h in range(g):
            if grp.mul(g, h) != grp.mul(h, g):
                raise ValueError("the underlying group must be abelian")
    involutions = len(grp.torsion(2))
    return involutions + sign_tau * sqrt_int(grp.order)


# ---------------------------------------------------------------------------
# reports and the Frobenius analyzer


@dataclass
class FrobeniusEntry:
    n: int
    value: CyclotomicInteger
    divisible_by_n: bool
    p: int | None = None  # gcd(n, c(omega)) when informative
    divisible_by_n_over_sqrt_p: bool | None = None
    note: str = ""


@dataclass
class FrobeniusReport:
    label: str
    group_order: int
    c_omega: int
    entries: list[FrobeniusEntry] = field(default_factory=list)

    @property
    def verdict(self):
        return all(e.divisible_by_n for e in self.entries)


def frobenius_check(cat):
    """Divisibility of nu_n by n over every divisor n of the group order.

    When p = gcd(n, c(omega)) is an odd prime, additionally tests the weaker
    divisibility of nu_n * sqrt(p) by n; when p is composite, records that
    the refined test does not apply.
    """
    grp = cat.group
    c = c_omega(cat.omega)
    report = FrobeniusReport(cat.label, grp.order, c)
    for n in divisors(grp.order):
        value = nu_brute(cat, n)
        entry = FrobeniusEntry(n, value, value.is_divisible_by_integer(n))
        p = math.gcd(n, c)
        if p > 1:
            entry.p = p
            if p == 2:
                entry.note = "even prime: plain divisibility expected"
            elif factorize(p) == {p: 1}:
                entry.divisible_by_n_over_sqrt_p = divide_by_sqrt_p_and_test(
                    value, n, p
                )
            else:
                entry.note = "refined test inapplicable (gcd with c(omega) composite)"
        report.entries.append(entry)
    return report
