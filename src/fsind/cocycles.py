"""Normalized 3-cocycles with root-of-unity values.

A cocycle stores its values as exponents of a fixed root of unity: the value
at (g, h, k) is exp(2*pi*i * exp_fn(g, h, k) / value_order).  Keeping the hot
path in machine integers lets indicator sweeps defer all exact cyclotomic
work to a single accumulation step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import itemgetter
from typing import Callable

from .cyclotomic import CyclotomicInteger, RootOfUnity
from .groups import FiniteGroup, SpecError, direct_product, make_cyclic, spec_int


class CocycleError(ValueError):
    """A function that is not a normalized 3-cocycle on its group."""


@dataclass
class ThreeCocycle:
    """A normalized 3-cocycle on `group` valued in value_order-th roots of unity."""

    group: FiniteGroup
    value_order: int
    exp_fn: Callable[[int, int, int], int]
    label: str = "omega"

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
    checked: int
    failure: tuple | None = None  # (kind, quadruple-or-pair)

    def __str__(self):
        if self.ok:
            return f"cocycle check passed ({self.checked} cases)"
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


def verify_cocycle(cocycle, mode="auto"):
    """Check normalization and the 3-cocycle identity, exactly.

    With f = exp_fn the identity is D = delta(omega) = 0 mod value_order, where
    D(g, h, k, l) = f(h,k,l) - f(gh,k,l) + f(g,hk,l) - f(g,h,kl) + f(g,h,k).
    As delta(D) = 0, D(g,h,k,l) - D(ag,h,k,l) + D(a,gh,k,l) - D(a,g,hk,l)
    + D(a,g,h,kl) - D(a,g,h,k) = 0, so {a : D(a, ., ., .) = 0} is closed
    under products, and it holds 1 once omega is normalized.  Mode "auto"
    therefore checks D(s, h, k, l) for s in group.generators() alone:
    |S| * |G|^3 cases, exact at every order.  Mode "full" checks all |G|^4
    quadruples, the definition, kept as the reference.
    """
    if mode not in ("auto", "full"):
        raise ValueError(f"unknown verification mode: {mode!r}")
    grp = cocycle.group
    n = grp.order
    m = cocycle.value_order
    f = cocycle.exp_fn
    mul = grp.mul
    for g, h in product(range(n), repeat=2):
        if f(0, g, h) % m or f(g, 0, h) % m or f(g, h, 0) % m:
            return VerificationReport(False, n * n, ("normalization", (g, h)))

    checked = 0
    if mode == "full":
        for g, h, k in product(range(n), repeat=3):
            gh, hk, e = mul(g, h), mul(h, k), f(g, h, k)
            for l in range(n):
                if (f(h, k, l) - f(gh, k, l) + f(g, hk, l) - f(g, h, mul(k, l)) + e) % m:
                    where = ("cocycle identity", (g, h, k, l))
                    return VerificationReport(False, checked + l + 1, where)
            checked += n
        return VerificationReport(True, checked)

    at_kl = [itemgetter(*[mul(k, l) for l in range(n)]) for k in range(n)]  # row[kl], all l

    def slice_of(h):  # f(h, k, l) for every k, l
        return [[f(h, k, l) for l in range(n)] for k in range(n)]

    for s in grp.generators():
        w, seen = slice_of(s), [False] * n
        for h in range(n):
            if seen[h]:
                continue
            here = first = slice_of(h)
            while not seen[h]:  # walk the orbit h -> s*h, one new slice a step
                seen[h] = True
                sh = mul(s, h)
                there = first if seen[sh] else slice_of(sh)
                for k in range(n):  # w[b][l] = f(s, b, l)
                    e = w[h][k]
                    # f(h,k,l), f(sh,k,l), f(s,hk,l), f(s,h,kl) for every l
                    terms = zip(here[k], there[k], w[mul(h, k)], at_kl[k](w[h]))
                    for l, (a, b, c, d) in enumerate(terms):
                        if (a - b + c - d + e) % m:
                            where = ("cocycle identity", (s, h, k, l))
                            return VerificationReport(False, checked + l + 1, where)
                    checked += n
                h, here = sh, there
    return VerificationReport(True, checked)


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


def cocycle_from_file(group, path):
    """Load and verify a cocycle from lines `g h k e` under a header `order M`.

    The value at (g, h, k) is exp(2*pi*i*e/M); absent triples default to 1.
    A file that is not a normalized 3-cocycle raises CocycleError.
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
    report = verify_cocycle(cocycle)
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
