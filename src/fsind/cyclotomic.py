"""Exact arithmetic in rings of cyclotomic integers Z[zeta_M].

Internally an element is stored at a conductor M as an integer combination of
the monomials zeta_M^x.  The canonical support is the CRT-style basis: an
exponent x is kept iff, for every prime power p^e || M, the residue x mod p^e
is below phi(p^e).  Reduction uses the vanishing sums
zeta^x + zeta^{x + M/p} + ... + zeta^{x + (p-1)M/p} = 0, which makes zero
tests, equality and integer-divisibility purely coordinatewise.

Every value is stored at its minimal conductor, the least d with the value in
Z[zeta_d]; it is well defined because Z[zeta_a] and Z[zeta_b] meet in
Z[zeta_gcd(a, b)] (Washington, Introduction to Cyclotomic Fields, ch. 2).
The constructor establishes this once, in `_shrink_conductor`, so equal
values have equal conductors and equal coefficients.

The constructor takes any integer exponents, summing those equal mod M.  It
divides M and them by their gcd g first (zeta_M^x = zeta_{M/g}^{x/g}) and
canonicalizes once at M/g, then `_shrink_conductor` catches what cancellation
lowers further.  Sums and products hand it their unreduced terms, so each
canonicalizes once, plus once at the minimal conductor when that is smaller; a
product with a rational c (negation is c = -1) not at all: c != 0 keeps the
support, and c*x in Z[zeta_d] puts x in Q(zeta_d) & Z[zeta_M] = Z[zeta_d], so
the conductor stays.

The power basis 1, zeta, ..., zeta^{phi(M)-1} (remainder modulo the M-th
cyclotomic polynomial) is used for serialization and text rendering.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache


# ---------------------------------------------------------------------------
# elementary number theory helpers


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: multiplicity}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 1, via quadratic reciprocity."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol requires positive odd n, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    # divide x^m - 1 by the product of Phi_d for proper divisors d
    poly = [0] * (m + 1)
    poly[0], poly[m] = -1, 1
    for d in divisors(m)[:-1]:
        poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
        if any(rem):
            raise ArithmeticError("polynomial division was not exact")
    return tuple(poly)


def _poly_divmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (ascending coefficients),
    den monic and no longer than num."""
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for j, dc in enumerate(den):
                num[i - dn + j] -= c * dc
    return quot, num[:dn]


@lru_cache(maxsize=None)
def _prime_powers(m: int) -> tuple[tuple[int, int, int], ...]:
    """(p, p^e, phi(p^e)) for each prime power in m."""
    return tuple(
        (p, p**e, (p - 1) * p ** (e - 1)) for p, e in sorted(factorize(m).items())
    )


def _canonicalize(m: int, coeffs: dict[int, int]) -> dict[int, int]:
    """Reduce any support in 0..M-1 onto the canonical CRT basis, drop zeros.

    For p^e || M, each x with x mod p^e >= phi(p^e) goes to its partners
    x + j*M/p (0 < j < p), whose residues fall below phi(p^e) mod p^e and stay
    put mod the other prime powers: one pass per prime reaches the basis.
    """
    for p, pe, phi_pe in _prime_powers(m):
        step = m // p
        for x in [x for x in coeffs if x % pe >= phi_pe]:
            c = coeffs.pop(x)
            if c:
                for j in range(1, p):
                    y = (x + j * step) % m
                    coeffs[y] = coeffs.get(y, 0) - c
    return {x: c for x, c in coeffs.items() if c}


class CyclotomicInteger:
    """An exact element of Z[zeta_M], canonically reduced."""

    __slots__ = ("conductor", "_coeffs")

    def __init__(self, conductor: int, coeffs: dict[int, int]):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        g = math.gcd(conductor, *coeffs)
        self.conductor = m = conductor // g
        summed: dict[int, int] = {}
        for x, c in coeffs.items():
            y = x // g % m
            summed[y] = summed.get(y, 0) + c
        self._coeffs = _canonicalize(m, summed)
        self._shrink_conductor()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "CyclotomicInteger":
        return cls(1, {0: n})

    @classmethod
    def zero(cls) -> "CyclotomicInteger":
        return cls(1, {})

    # -- internal normal form ----------------------------------------------

    def _shrink_conductor(self) -> None:
        """Lower the conductor to the minimal one d, found by one gcd.

        With g = gcd(M, every canonical exponent), the value lies in
        Z[zeta_{M/g}], so d divides M/g.  Conversely every canonical exponent
        at M is a multiple of M/d: zeta_d^y = zeta_M^{(M/d)y}, and each
        reduction step by M/p keeps that divisibility (for p not dividing d
        the exponents are 0 mod p^e and need no p-step; for p | d, p^(e-1)
        divides M/p; the other primes' shares divide M/p wholly).  So M/d
        divides g, and M/g = d (zero has no exponents: g = M, d = 1).  It is
        never 2 mod 4, as Z[zeta_2k] = Z[zeta_k] for odd k.
        """
        g = math.gcd(self.conductor, *self._coeffs)
        if g > 1:
            m = self.conductor = self.conductor // g
            self._coeffs = _canonicalize(m, {x // g: c for x, c in self._coeffs.items()})

    def _embed(self, target: int) -> dict[int, int]:
        """Coefficients at a multiple of the conductor (x -> kx), not reduced."""
        k = target // self.conductor
        return {x * k: c for x, c in self._coeffs.items()}

    def _scaled(self, c: int) -> "CyclotomicInteger":
        """c * self, in normal form as built (module docstring)."""
        out = object.__new__(CyclotomicInteger)
        out.conductor, out._coeffs = self.conductor, {x: c * v for x, v in self._coeffs.items()}
        return out if c else CyclotomicInteger.zero()

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "CyclotomicInteger":
        other = _coerce(other)
        m = math.lcm(self.conductor, other.conductor)
        a = self._embed(m)
        for x, c in other._embed(m).items():
            a[x] = a.get(x, 0) + c
        return CyclotomicInteger(m, a)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicInteger":
        return self._scaled(-1)

    def __sub__(self, other) -> "CyclotomicInteger":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "CyclotomicInteger":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "CyclotomicInteger":
        if isinstance(other, int):
            return self._scaled(other)
        other = _coerce(other)
        if other.conductor == 1 or self.conductor == 1:
            x, y = (self, other) if other.conductor == 1 else (other, self)
            return x._scaled(y._coeffs.get(0, 0))
        m = math.lcm(self.conductor, other.conductor)
        a, b = self._embed(m), other._embed(m)
        out: dict[int, int] = {}
        for x1, c1 in a.items():
            for x2, c2 in b.items():
                out[x1 + x2] = out.get(x1 + x2, 0) + c1 * c2
        return CyclotomicInteger(m, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CyclotomicInteger":
        if k < 0:
            raise ValueError("negative powers are not defined in Z[zeta]")
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conjugate(self) -> "CyclotomicInteger":
        m = self.conductor
        return CyclotomicInteger(m, {-x: c for x, c in self._coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, CyclotomicInteger)):
            return NotImplemented
        other = _coerce(other)
        return self.conductor == other.conductor and self._coeffs == other._coeffs

    __hash__ = None

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- rationality, divisibility ------------------------------------------

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_int(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not a rational integer")
        return self._coeffs.get(0, 0)

    def is_divisible_by_integer(self, n: int) -> bool:
        """True iff self / n is an algebraic integer (n >= 1)."""
        if n < 1:
            raise ValueError("divisor must be a positive integer")
        return all(c % n == 0 for c in self._coeffs.values())

    # -- presentation -------------------------------------------------------

    def power_basis_coeffs(self) -> tuple[int, list[int]]:
        """(minimal conductor M, coordinates in the basis 1, zeta_M, ...)."""
        m = self.conductor
        poly = [0] * m
        for e, c in self._coeffs.items():
            poly[e] = c
        return m, _poly_divmod(poly, cyclotomic_polynomial(m))[1]

    def to_complex(self) -> complex:
        """The complex value, its real and imaginary parts each summed with
        math.fsum, so that it does not depend on the order of the terms."""
        m = self.conductor
        terms = [c * cmath.exp(2j * cmath.pi * x / m) for x, c in self._coeffs.items()]
        return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))

    def render_text(self) -> str:
        m, coeffs = self.power_basis_coeffs()
        if m == 1:
            return str(coeffs[0])
        parts: list[str] = []
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            term = str(abs(c)) if k == 0 else f"{abs(c)}*z{m}^{k}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts) if parts else "0"

    def to_json_dict(self) -> dict:
        m, coeffs = self.power_basis_coeffs()
        z = self.to_complex()
        return {
            "conductor": m,
            "coeffs": coeffs,
            "approx": {"re": z.real, "im": z.imag},
        }

    def __repr__(self) -> str:
        return f"CyclotomicInteger({self.render_text()!r})"


def _coerce(x) -> CyclotomicInteger:
    if isinstance(x, CyclotomicInteger):
        return x
    if isinstance(x, int):
        return CyclotomicInteger.from_int(x)
    raise TypeError(f"cannot interpret {x!r} as a cyclotomic integer")


# ---------------------------------------------------------------------------
# roots of unity


@dataclass(frozen=True)
class RootOfUnity:
    """exp(2*pi*i*exponent/order), stored with order/exponent in lowest terms."""

    order: int
    exponent: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        k = self.exponent % self.order
        g = math.gcd(k, self.order)
        object.__setattr__(self, "order", self.order // g)
        object.__setattr__(self, "exponent", k // g)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        m = math.lcm(self.order, other.order)
        return RootOfUnity(m, self.exponent * (m // self.order) + other.exponent * (m // other.order))

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.order, self.exponent * k)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(self.order, -self.exponent)

    def multiplicative_order(self) -> int:
        return self.order

    def as_cyclotomic(self) -> CyclotomicInteger:
        return CyclotomicInteger(self.order, {self.exponent: 1})


def root(order: int, exponent: int) -> CyclotomicInteger:
    """zeta_order^exponent as an exact cyclotomic integer."""
    if order < 1:
        raise ValueError("order must be positive")
    return CyclotomicInteger(order, {exponent: 1})


ONE = CyclotomicInteger.from_int(1)
I_UNIT = root(4, 1)


# ---------------------------------------------------------------------------
# quadratic Gauss sums


@lru_cache(maxsize=None)
def _square_counts(m: int) -> tuple[tuple[int, int], ...]:
    """(x, #{i < m : i^2 = x mod m}) for each square x mod m."""
    counts = [0] * m
    for i in range(m):
        counts[i * i % m] += 1
    return tuple((x, c) for x, c in enumerate(counts) if c)


def gauss_sum_direct(a: int, m: int) -> CyclotomicInteger:
    """S(a, m) = sum_{i<m} exp(2*pi*i*a*i^2/m), summed literally, the terms
    grouped by i^2 mod m (a histogram cached per modulus)."""
    if m < 1:
        raise ValueError("modulus must be positive")
    a %= m
    counts: dict[int, int] = {}
    for x, c in _square_counts(m):
        y = a * x % m
        counts[y] = counts.get(y, 0) + c
    return CyclotomicInteger(m, counts)


@lru_cache(maxsize=None)
def sqrt_int(n: int) -> CyclotomicInteger:
    """Exact sqrt(n) for n >= 1, as a cyclotomic integer."""
    if n < 1:
        raise ValueError("sqrt_int requires n >= 1")
    out, square = ONE, 1
    for p, e in factorize(n).items():
        square *= p ** (e // 2)
        if e % 2:
            out = out * _sqrt_prime(p)
    return square * out


@lru_cache(maxsize=None)
def _sqrt_prime(p: int) -> CyclotomicInteger:
    if p == 2:
        return root(8, 1) + root(8, 7)
    s = CyclotomicInteger(p, {i: jacobi_symbol(i, p) for i in range(1, p)})  # sqrt(p) or i*sqrt(p)
    return s if p % 4 == 1 else (-I_UNIT) * s


@lru_cache(maxsize=None)
def _gauss_unit(m: int, a_mod_4: int) -> CyclotomicInteger:
    """eps_m * sqrt(m): S(a, m) = +-_gauss_unit(m, a % 4) for gcd(a, m) = 1 and
    m != 2 mod 4.  a_mod_4 is 0 unless 4 | m, so m has at most two entries."""
    if m % 2:
        return sqrt_int(m) if m % 4 == 1 else I_UNIT * sqrt_int(m)
    return sqrt_int(m) * (ONE + (I_UNIT if a_mod_4 == 1 else -I_UNIT))


def gauss_sum_closed(a: int, m: int) -> CyclotomicInteger:
    """S(a, m) by the classical closed forms: for gcd(a, m) = 1, a Jacobi sign
    times eps_m * sqrt(m), a unit cached per modulus class (m, a mod 4 if 4 | m)."""
    if m < 1:
        raise ValueError("modulus must be positive")
    a %= m
    if a == 0:
        return CyclotomicInteger.from_int(m)
    d = math.gcd(a, m)
    if d > 1:
        return d * gauss_sum_closed(a // d, m // d)
    if m % 4 == 2:
        return CyclotomicInteger.zero()
    if m % 2:
        return _gauss_unit(m, 0)._scaled(jacobi_symbol(a, m))
    return _gauss_unit(m, a % 4)._scaled(jacobi_symbol(m, a))


def divide_by_sqrt_p_and_test(x: CyclotomicInteger, n: int, p: int) -> bool:
    """True iff x * sqrt(p) / n is an algebraic integer; p a prime dividing n."""
    if n < 1 or n % p != 0:
        raise ValueError("p must divide n")
    if factorize(p) != {p: 1}:
        raise ValueError(f"{p} is not prime")
    return (x * sqrt_int(p)).is_divisible_by_integer(n)
