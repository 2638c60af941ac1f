"""Normalized 3-cocycles with root-of-unity values.

A cocycle stores its values as exponents of a fixed root of unity: the value
at (g, h, k) is exp(2*pi*i * exp_fn(g, h, k) / value_order).  Keeping the hot
path in machine integers lets indicator sweeps defer all exact cyclotomic
work to a single accumulation step.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .cyclotomic import CyclotomicInteger, RootOfUnity
from .groups import FiniteGroup, SpecError, direct_product, make_cyclic, spec_int

_FULL_VERIFY_BOUND = 40
_DEFAULT_SAMPLES = 1_000_000


class CocycleError(ValueError):
    """A function that is not a normalized 3-cocycle on its group."""


@dataclass
class ThreeCocycle:
    """A normalized 3-cocycle on `group` valued in value_order-th roots of unity."""

    group: FiniteGroup
    value_order: int
    exp_fn: Callable[[int, int, int], int]
    label: str = "omega"

    def value(self, g, h, k):
        return RootOfUnity(self.value_order, self.exp_fn(g, h, k))

    def exponent(self, g, h, k):
        return self.exp_fn(g, h, k) % self.value_order

    @cached_property
    def order_profile(self):
        """{(ord g, E_g, u_g): count}, from one pass over the group.

        E_g = sum_{k=1}^{ord g} f(g, g^k, g) and u_g = f(g, 1, g), both mod
        value_order, with f = exp_fn.  For n = q * ord g the exponent of
        omega_tilde_n(g) is q * E_g - u_g: the product over k = 1..n-1 runs q
        full periods of g^k less the k = n term.  This holds for any exponent
        function, normalized or not, and costs sum_g ord g calls to exp_fn.
        """
        grp = self.group
        m = self.value_order
        f = self.exp_fn
        mul = grp.mul
        profile: dict[tuple[int, int, int], int] = {}
        for g in range(grp.order):
            acc = 0
            gk = g
            while gk:  # k = 1 .. ord g - 1
                acc += f(g, gk, g)
                gk = mul(gk, g)
            u = f(g, 0, g)  # k = ord g, where g^k = 1
            key = (grp.element_order(g), (acc + u) % m, u % m)
            profile[key] = profile.get(key, 0) + 1
        return profile


@dataclass
class VerificationReport:
    ok: bool
    mode: str
    checked: int
    failure: tuple | None = None  # (kind, quadruple-or-triple)

    def __str__(self):
        if self.ok:
            return f"cocycle check passed ({self.mode}, {self.checked} cases)"
        kind, where = self.failure
        return f"cocycle check FAILED: {kind} violated at {where}"


def trivial_cocycle(group):
    return ThreeCocycle(group, 1, lambda g, h, k: 0, label="trivial")


def psi(n, r):
    """The standard generator (raised to the r-th power) of H^3 of Z_n.

    Value at (j, k, l) is exp(2*pi*i/n^2 * r * jb*(kb + lb - (k+l)b)) where
    xb is the representative of x in 0..n-1.
    """
    if n < 1:
        raise ValueError("cyclic order must be positive")
    return ThreeCocycle(make_cyclic_cached(n), n * n, _psi_exp(n, r), label=f"psi_{n}^{r}")


def _psi_exp(n, r):
    """The exponent function of psi^r on Z_n, valued mod n^2."""
    nn = n * n

    def exp_fn(j, k, l):
        return (r * (j % n) * ((k % n) + (l % n) - ((k + l) % n))) % nn

    return exp_fn


# psi() is often called repeatedly with the same n in sweeps; building the
# cyclic group once keeps those loops cheap.
_cyclic_cache: dict[int, FiniteGroup] = {}


def make_cyclic_cached(n):
    grp = _cyclic_cache.get(n)
    if grp is None:
        grp = make_cyclic(n)
        _cyclic_cache[n] = grp
    return grp


def psi_on(group, r):
    """psi^r on any cyclic group, read through the discrete log to its
    smallest generator (on Z_N that generator is 1 and the log the identity)."""
    n = group.order
    gen = next((g for g in range(n) if group.element_order(g) == n), None)
    if gen is None:
        raise CocycleError("psi cocycles require a cyclic group")
    log = [0] * n
    x = 0
    for k in range(n):
        log[x] = k
        x = group.mul(x, gen)
    base = _psi_exp(n, r)
    return ThreeCocycle(
        group, n * n, lambda a, b, c: base(log[a], log[b], log[c]), label=f"psi_{n}^{r}"
    )


def verify_cocycle(cocycle, mode="auto", samples=_DEFAULT_SAMPLES, rng_seed=0):
    """Check normalization and the 3-cocycle identity.

    mode: "full" checks every quadruple; "sampled" checks `samples` random
    quadruples; "auto" picks full for groups of order <= 40.
    Returns a VerificationReport naming the first violation if any.
    """
    grp = cocycle.group
    n = grp.order
    m = cocycle.value_order
    f = cocycle.exp_fn
    mul = grp.mul

    for g in range(n):
        for h in range(n):
            if f(0, g, h) % m or f(g, 0, h) % m or f(g, h, 0) % m:
                return VerificationReport(False, "normalization", n * n, ("normalization", (g, h)))

    if mode == "auto":
        mode = "full" if n <= _FULL_VERIFY_BOUND else "sampled"

    def identity_holds(g, h, k, l):
        lhs = f(h, k, l) + f(g, mul(h, k), l) + f(g, h, k)
        rhs = f(mul(g, h), k, l) + f(g, h, mul(k, l))
        return (lhs - rhs) % m == 0

    if mode == "full":
        checked = 0
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    for l in range(n):
                        checked += 1
                        if not identity_holds(g, h, k, l):
                            return VerificationReport(False, mode, checked, ("cocycle identity", (g, h, k, l)))
        return VerificationReport(True, mode, checked)

    rng = random.Random(rng_seed)
    for i in range(samples):
        g, h, k, l = (rng.randrange(n) for _ in range(4))
        if not identity_holds(g, h, k, l):
            return VerificationReport(False, mode, i + 1, ("cocycle identity", (g, h, k, l)))
    return VerificationReport(True, mode, samples)


# ---------------------------------------------------------------------------
# the omega-tilde kernel


def omega_tilde_root(cocycle, n, g):
    """omega_tilde_n(g) as a RootOfUnity, or None when g^n != identity."""
    grp = cocycle.group
    if grp.power(g, n) != 0:
        return None
    m = cocycle.value_order
    f = cocycle.exp_fn
    mul = grp.mul
    acc = 0
    gk = g
    for _ in range(1, n):
        acc += f(g, gk, g)
        gk = mul(gk, g)
    return RootOfUnity(m, acc % m)

def omega_tilde(cocycle, n, g):
    """omega_tilde_n(g) as an exact cyclotomic value (0 when g^n != 1)."""
    r = omega_tilde_root(cocycle, n, g)
    if r is None:
        return CyclotomicInteger.zero()
    return r.as_cyclotomic()


def c_omega(cocycle):
    """lcm of cohomological orders over all cyclic subgroups of the group.

    On <g> the class of any cocycle is a power of the standard generator,
    and omega_tilde_{ord g}(g) detects exactly that power, so the order of
    the class is the multiplicative order of omega_tilde_{ord g}(g), whose
    exponent is E_g - u_g in the order profile.
    """
    m = cocycle.value_order
    out = 1
    for _, e, u in cocycle.order_profile:
        out = math.lcm(out, m // math.gcd(m, e - u))
    return out


# ---------------------------------------------------------------------------
# derived cocycles


def restrict(cocycle, elements, label=None):
    """Restriction to a multiplicatively closed subset (as its own group)."""
    sub, elems = cocycle.group.subgroup(elements, label=label)
    f = cocycle.exp_fn

    def exp_fn(g, h, k):
        return f(elems[g], elems[h], elems[k])

    return ThreeCocycle(sub, cocycle.value_order, exp_fn, label=f"{cocycle.label}|H")


def product_cocycle(ca, cb):
    """The componentwise product cocycle on group_A x group_B."""
    grp = direct_product(ca.group, cb.group)
    nb = cb.group.order
    m = math.lcm(ca.value_order, cb.value_order)
    sa = m // ca.value_order
    sb = m // cb.value_order
    fa = ca.exp_fn
    fb = cb.exp_fn

    def exp_fn(g, h, k):
        xa, ya = divmod(g, nb)
        xb, yb = divmod(h, nb)
        xc, yc = divmod(k, nb)
        return sa * fa(xa, xb, xc) + sb * fb(ya, yb, yc)

    return ThreeCocycle(grp, m, exp_fn, label=f"{ca.label}(x){cb.label}")


def conjugate_cocycle(cocycle):
    """The complex-conjugate cocycle (all values inverted)."""
    f = cocycle.exp_fn
    return ThreeCocycle(
        cocycle.group, cocycle.value_order, lambda g, h, k: -f(g, h, k), label=f"conj({cocycle.label})"
    )


# ---------------------------------------------------------------------------
# file-backed cocycles


def cocycle_from_file(group, path, verify=True):
    """Load a cocycle from lines `g h k e` under a header `order M`.

    The value at (g, h, k) is exp(2*pi*i*e/M); absent triples default to 1.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, ln.split()) for i, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1][0] != "order" or len(lines[0][1]) != 2:
        raise SpecError("cocycle file must start with 'order M'")
    word = lines[0][1][1]
    m = spec_int(word, f"cocycle file header 'order M': expected an integer, got {word!r}")
    if m < 1:
        raise SpecError("value order must be positive")
    table: dict[tuple[int, int, int], int] = {}
    for i, parts in lines[1:]:
        if len(parts) != 4:
            raise SpecError(f"cocycle file line {i}: expected 'g h k e', got {' '.join(parts)!r}")
        g, h, k, e = (
            spec_int(t, f"cocycle file line {i}, field {f}: expected an integer, got {t!r}")
            for t, f in zip(parts, "ghke")
        )
        for v in (g, h, k):
            if not 0 <= v < group.order:
                raise SpecError(f"cocycle file line {i}: element index {v} out of range")
        table[(g, h, k)] = e % m

    cocycle = ThreeCocycle(
        group, m, lambda g, h, k: table.get((g, h, k), 0), label="file"
    )
    if verify:
        report = verify_cocycle(cocycle, mode="auto")
        if not report.ok:
            raise CocycleError(str(report))
    return cocycle


def parse_cocycle_spec(spec, group):
    """Parse `trivial`, `psi:r` (cyclic groups only), `file:<path>`."""
    if spec == "trivial":
        return trivial_cocycle(group)
    kind, _, rest = spec.partition(":")
    if kind == "psi":
        r = spec_int(rest, f"psi expects an integer power r, got {spec!r}")
        return psi_on(group, r)
    if kind == "file":
        return cocycle_from_file(group, rest)
    raise SpecError(f"unknown cocycle spec: {spec!r}")
