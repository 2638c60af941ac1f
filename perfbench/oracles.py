"""Computations the benchmark checks fsind's outputs against.

Each is made apart from the engine it checks: family indicators against the
paper's closed forms, cyclic indicators against quadratic Gauss sums, c(omega)
against a literal omega-tilde pass, divisibility against power-basis
coordinates, and rendered text and JSON by reading them back.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from fsind import cyclotomic as cy
from fsind import indicators as ind


@dataclass(frozen=True)
class Family:
    """A built-in family with its parameters, e.g. Family("hn3", (9, 2, 5))."""

    kind: str
    params: tuple

    @property
    def spec(self):
        return ":".join([self.kind, *map(str, self.params)])

    @property
    def order(self):
        p = self.params
        if self.kind == "h2n2":
            return 2 * p[0] * p[0]
        if self.kind == "hn3":
            return p[0] ** 3
        return 4 * p[0] * p[1]  # suzuki, suzukiP

    @property
    def value_order(self):
        """The root-of-unity order the family's cocycle values live in."""
        p = self.params
        if self.kind == "h2n2":
            return p[0]
        if self.kind == "hn3":
            return p[0] ** 2
        return math.lcm(4 * p[1], 2 * p[0])

    def closed(self, n):
        """nu_n by the paper's closed form for this family."""
        closed_form = {
            "h2n2": ind.nu_h2n2_closed,
            "hn3": ind.nu_hn3_closed,
            "suzuki": ind.nu_suzuki_cyclic_closed,
            "suzukiP": ind.nu_suzuki_noncyclic_closed,
        }[self.kind]
        return closed_form(*self.params, n)


def nu_cyclic(big_n, r, n):
    """nu_n(Z_N, psi^r) = S(r*n/d, d) with d = gcd(n, N).

    On the n-torsion, omega_tilde_n(g) = zeta_{N^2}^(r*n*g^2), and the
    n-torsion of Z_N is (N/d)Z_N, a cyclic group of order d.
    """
    d = math.gcd(n, big_n)
    return cy.gauss_sum_closed(r * n // d, d)


def c_cyclic(big_n, r):
    """c(psi^r) on Z_N."""
    return big_n // math.gcd(big_n, r)


def c_from_omega_tilde(cat):
    """c(omega) as the lcm, over every element g, of the multiplicative order
    of omega_tilde_{ord g}(g), each evaluated by a literal product."""
    grp = cat.group
    f = cat.omega.exp_fn
    m = cat.omega.value_order
    out = 1
    for g in range(grp.order):
        acc = 0
        gk = g  # g^k for k = 1 .. ord(g) - 1
        while gk != 0:
            acc += f(g, gk, g)
            gk = grp.mul(gk, g)
        out = math.lcm(out, m // math.gcd(m, acc % m))
    return out


def divisible(value, n):
    """value/n is an algebraic integer: the power basis is an integral basis,
    so every power-basis coordinate must be divisible by n."""
    _, coeffs = value.power_basis_coeffs()
    return all(c % n == 0 for c in coeffs)


def divisible_over_sqrt_p(value, n, p):
    """value*sqrt(p)/n is an algebraic integer."""
    return divisible(value * cy.sqrt_int(p), n)


def is_odd_prime(p):
    return p > 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def from_text(text):
    """Read back a rendering such as `3 - 2*z9^1 + 4*z9^4`."""
    tokens = text.split(" ")
    terms = [("+", tokens[0])] + list(zip(tokens[1::2], tokens[2::2]))
    total = cy.CyclotomicInteger.zero()
    for sign, term in terms:
        neg = sign == "-" or term.startswith("-")
        coeff, _, power = term.lstrip("-").partition("*z")
        if power:
            conductor, _, k = power.partition("^")
            part = int(coeff) * cy.root(int(conductor), int(k))
        else:
            part = cy.CyclotomicInteger.from_int(int(coeff))
        total = total - part if neg else total + part
    return total


def from_json(record):
    """Read back to_json_dict(): power-basis coordinates and a float value."""
    m = record["conductor"]
    value = cy.CyclotomicInteger.zero()
    approx = 0j
    for k, c in enumerate(record["coeffs"]):
        value = value + c * cy.root(m, k)
        approx += c * cmath.exp(2j * cmath.pi * k / m)
    got = complex(record["approx"]["re"], record["approx"]["im"])
    scale = 1 + sum(abs(c) for c in record["coeffs"])
    return value, abs(got - approx) <= 1e-9 * scale
