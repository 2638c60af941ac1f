"""Normalized 3-cocycles with root-of-unity values.

A cocycle stores its values as exponents of a fixed root of unity: the value
at (g, h, k) is exp(2*pi*i * exp_fn(g, h, k) / value_order).  Keeping the hot
path in machine integers lets indicator sweeps defer all exact cyclotomic
work to a single accumulation step.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product, repeat
from operator import itemgetter
from typing import Callable

from .cyclotomic import CyclotomicInteger, RootOfUnity
from .groups import FiniteGroup, SpecError, direct_product, make_cyclic, records, spec_int


_ARRAY_CODES = {array(c).itemsize: c for c in "QLIHB"}  # bytes per item: array code


class CocycleError(ValueError):
    """A function that is not a normalized 3-cocycle on its group."""


@dataclass
class ThreeCocycle:
    """A 3-cocycle on `group` valued in value_order-th roots of unity.

    `exp_fn(g, h, k)` depends on k only through k // block, which is 1 or
    group.coset_block; the exact check reads one k per block (see
    verify_cocycle).  A block b > 1 also claims that exp_fn reads g only
    through g % b, and the check builds one slice omega(g, ., .) per g % b.
    b = 1 claims nothing of either argument.

    `is_cocycle` claims that exp_fn is a normalized 3-cocycle, and lets
    order_profile walk one element per cyclic subgroup.  It is set by the
    builders that produce cocycles by construction or verify them, and passed
    on by restrict, conjugate_cocycle and product_cocycle; anything else
    leaves it False and gets the per-element pass, which is right for any
    exponent function.  A caller who swaps exp_fn with dataclasses.replace
    must clear it.
    """

    group: FiniteGroup
    value_order: int
    exp_fn: Callable[[int, int, int], int]
    label: str = "omega"
    block: int = 1
    is_cocycle: bool = False

    def exponent(self, g, h, k):
        return self.exp_fn(g, h, k) % self.value_order

    @cached_property
    def order_profile(self):
        """{(ord g, E_g, u_g): count} over the group.

        E_g = sum_{k=1}^{ord g} f(g, g^k, g) and u_g = f(g, 1, g), both mod
        value_order, with f = exp_fn.  For n = q * ord g the exponent of
        omega_tilde_n(g) is q * E_g - u_g: the product over k = 1..n-1 runs q
        full periods of g^k less the k = n term.

        Without is_cocycle this walks every element: right for any exponent
        function, normalized or not, at sum_g ord g calls to exp_fn.  With
        it, u_g = 0, and E_{g^j} = j^2 * E_g for j prime to o = ord g: on
        <g> = Z_o the class of omega is a power of the generator c^2 of
        H^3(Z_o, C^x) = Z_o, and g -> g^j sends c to j*c (K. S. Brown,
        Cohomology of Groups, GTM 87).  So one walk per cyclic subgroup
        fills in all its generators, at sum_C |C| calls.
        """
        grp = self.group
        m = self.value_order
        f = self.exp_fn
        profile: dict[tuple[int, int, int], int] = {}
        seen = bytearray(grp.order)
        for g in range(grp.order):
            if seen[g]:
                continue
            powers = grp.powers(g)  # g^0 .. g^(o-1)
            o = len(powers)
            acc = sum(f(g, x, g) for x in powers[1:])  # k = 1 .. o - 1
            if not self.is_cocycle:
                u = f(g, 0, g)  # k = o, where g^k = 1
                key = (o, (acc + u) % m, u % m)
                profile[key] = profile.get(key, 0) + 1
                continue
            for j, x in enumerate(powers):
                if math.gcd(j, o) == 1:  # g^j generates <g>; j = 0 when o = 1
                    seen[x] = 1
                    key = (o, j * j * acc % m, 0)
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
    return ThreeCocycle(group, 1, lambda g, h, k: 0, label="trivial", is_cocycle=True)


def psi(n, r):
    """The standard generator (raised to the r-th power) of H^3 of Z_n.

    Value at (j, k, l) is exp(2*pi*i/n^2 * r * jb*(kb + lb - (k+l)b)) where
    xb is the representative of x in 0..n-1.
    """
    return ThreeCocycle(
        make_cyclic(n), n * n, _psi_exp(n, r), label=f"psi_{n}^{r}", is_cocycle=True
    )


def _psi_exp(n, r):
    """The exponent function of psi^r on Z_n, valued mod n^2."""
    nn = n * n

    def exp_fn(j, k, l):
        return (r * (j % n) * ((k % n) + (l % n) - ((k + l) % n))) % nn

    return exp_fn


def psi_on(group, r):
    """psi^r on any cyclic group, read through the discrete log to its
    smallest generator (on Z_N that generator is 1 and the log the identity)."""
    n = group.order
    gen = next((g for g in range(n) if group.element_order(g) == n), None)
    if gen is None:
        raise CocycleError("psi cocycles require a cyclic group")
    log = [0] * n
    for k, x in enumerate(group.powers(gen)):
        log[x] = k
    base = _psi_exp(n, r)
    return ThreeCocycle(
        group, n * n, lambda a, b, c: base(log[a], log[b], log[c]), f"psi_{n}^{r}", is_cocycle=True
    )


def verify_cocycle(cocycle, mode="auto"):
    """Check normalization and the 3-cocycle identity, exactly.

    With f = exp_fn the identity is D = delta(omega) = 0 mod value_order, where
    D(g, h, k, l) = f(h,k,l) - f(gh,k,l) + f(g,hk,l) - f(g,h,kl) + f(g,h,k).
    As delta(D) = 0, D(g,h,k,l) - D(ag,h,k,l) + D(a,gh,k,l) - D(a,g,hk,l)
    + D(a,g,h,kl) - D(a,g,h,k) = 0, so {a : D(a, ., ., .) = 0} is closed
    under products, and it holds 1 once omega is normalized.  Mode "auto"
    therefore checks D(s, h, k, l) for s in group.generators() alone:
    |S| * |G|^3 cases, exact at every order.

    Mode "auto" also reads b = cocycle.block: 1 or group.coset_block (a
    ValueError if neither), whose blocks of b consecutive indices are the
    left cosets lH of H = {0..b-1}.  Then k(lH) = (kl)H, so kl's block
    depends on l only through l's block, and every term of D reads l or kl
    through its block alone: D(s, h, k, .) is constant on blocks, and
    l = 0, b, 2b, ... decide it.  The check reads slices f(h, ., .) mod m,
    every k and one l per block.  With b > 1, f also reads its first
    argument only through h % b, so the b distinct slices are built first
    and kept, and normalization reads them too: |G|^2 calls to f in all.
    With b = 1 nothing is claimed: each slice is built afresh and dropped,
    and normalization calls f.

    Each (s, h) of the walk is decided at once.  Its values of D, one per
    (k, block of l) in that order, are the lanes of one int, width bits each:
    the least of 8, 16, 32 and 64 (packed by array) with 5m < 2^(width - 1),
    else wider (packed by int.to_bytes).  With the five terms t1..t5 of D
    reduced mod m, every lane of t1 - t2 + t3 - t4 + t5 + 2m lies in
    [2, 5m), so none borrows from the next, and conditional subtractions of
    4m, 2m and m leave each lane in [0, m): the int is 0 exactly when
    D(s, h, ., .) is, and otherwise its first lane that is not 0 is the first
    (k, l) that fails.  `checked` counts every quadruple decided, and a
    violation is reported at the first l of its block, the first l at which
    it occurs, so the report is the one b = 1 gives.

    Mode "full" ignores the block and checks all |G|^4 quadruples, the
    definition, kept as the reference: it tabulates f mod m once and decides
    each quadruple from the table.  In every mode a normalization failure at
    (g, h) reports the g * |G| + h + 1 pairs decided.
    """
    if mode not in ("auto", "full"):
        raise ValueError(f"unknown verification mode: {mode!r}")
    grp = cocycle.group
    n = grp.order
    m = cocycle.value_order
    f = cocycle.exp_fn
    mul = grp.mul
    blk = cocycle.block if mode == "auto" else 1
    if blk not in (1, grp.coset_block):
        raise ValueError(f"block {blk} is neither 1 nor the group's coset block {grp.coset_block}")
    reps = range(0, n, blk)  # one l per block

    def rows_of(h):  # f(h, k, l) mod m for every k and one l per block
        return [[f(h, k, r) % m for r in reps] for k in range(n)]

    # f(g, ., .) is slice g % len(kept): all of f in mode "full", the b
    # distinct slices with b > 1, none with b = 1
    kept = list(map(rows_of, range(n if mode == "full" else blk if blk > 1 else 0)))
    for g in range(n):
        if kept:
            w = kept[g % len(kept)]
            at_1g, at_g1, at_gh1 = kept[0][g], w[0], [row[0] for row in w]
        else:
            at_1g, at_g1 = [f(0, g, r) % m for r in reps], [f(g, 0, r) % m for r in reps]
            at_gh1 = [f(g, h, 0) % m for h in range(n)]
        if any(at_1g) or any(at_g1) or any(at_gh1):
            h = next(h for h in range(n) if at_1g[h // blk] or at_g1[h // blk] or at_gh1[h])
            return VerificationReport(False, g * n + h + 1, ("normalization", (g, h)))

    checked = 0
    if mode == "full":
        for g, h, k in product(range(n), repeat=3):
            a, b, c, d = kept[h][k], kept[mul(g, h)][k], kept[g][mul(h, k)], kept[g][h]
            for l in range(n):
                if (a[l] - b[l] + c[l] - d[mul(k, l)] + d[k]) % m:
                    where = ("cocycle identity", (g, h, k, l))
                    return VerificationReport(False, checked + l + 1, where)
            checked += n
        return VerificationReport(True, checked)

    wide = 8 * ((5 * m).bit_length() // 8 + 1)
    width = next(w for w in (8, 16, 32, 64, wide) if 5 * m < 1 << (w - 1))
    w8 = width // 8  # bytes per lane
    code = _ARRAY_CODES.get(w8)

    def pack(values):  # one lane of width bits per value, in order
        if code:
            return array(code, values).tobytes()
        return b"".join(v.to_bytes(w8, sys.byteorder) for v in values)

    def lanes(buf):
        return int.from_bytes(buf, sys.byteorder)

    def as_int(rows):  # a slice as one int, lane (k, j) = rows[k][j]
        return lanes(pack(chain.from_iterable(rows)))

    ones = lanes(pack([1] * (n * len(reps))))  # one lane per (k, block of l)
    high, two_m = ones << (width - 1), 2 * m * ones
    steps = [(t * m * ones, t * m) for t in (4, 2, 1)]
    # lane (k, j) of f(s, h, kl) is cell (kl) // blk of row h of the s-slice
    # (an order-1 group has no generators, so no one-index itemgetter is called)
    at_kl = itemgetter(*[mul(k, r) // blk for k in range(n) for r in reps])
    ints = list(map(as_int, kept))
    slice_of = (lambda h: ints[h % blk]) if kept else (lambda h: as_int(rows_of(h)))

    for s in grp.generators():
        ws_bytes, seen = list(map(pack, kept[s % blk] if kept else rows_of(s))), [False] * n
        for h in range(n):
            if seen[h]:
                continue
            here = first = slice_of(h)
            while not seen[h]:  # walk the orbit h -> s*h, one new slice a step
                seen[h] = True
                sh = mul(s, h)
                there = first if seen[sh] else slice_of(sh)
                hk = list(map(mul, repeat(h, n), range(n)))
                row = ws_bytes[h]
                cells = [row[i:i + w8] for i in range(0, len(row), w8)]
                # t1 + t3 + t5 + 2m - t2 - t4: f(h,k,l), f(s,hk,l), f(s,h,k) (each
                # cell fills the n lanes of its block of k), f(sh,k,l), f(s,h,kl)
                z = here + lanes(b"".join(map(ws_bytes.__getitem__, hk))) + two_m
                z += lanes(b"".join([c * n for c in cells])) - there - lanes(b"".join(at_kl(cells)))
                for tm_ones, tm in steps:  # lanes >= t*m lose t*m
                    z -= ((((z | high) - tm_ones) & high) >> (width - 1)) * tm
                if z:  # the first lane that is not 0: lane i is bytes i*w8 .. of z, natively
                    buf = z.to_bytes(n * len(reps) * w8, sys.byteorder)
                    k, j = divmod((len(buf) - len(buf.lstrip(b"\0"))) // w8, len(reps))
                    where = ("cocycle identity", (s, h, k, j * blk))
                    return VerificationReport(False, checked + k * n + j * blk + 1, where)
                checked += n * n
                h, here = sh, there
    return VerificationReport(True, checked)


# ---------------------------------------------------------------------------
# the omega-tilde kernel


def omega_tilde_root(cocycle, n, g):
    """omega_tilde_n(g) as a RootOfUnity, or None when g^n != identity: the
    product over k = 1..n-1 term by term, g^k read from group.powers(g), with
    no table and no period shortcut (the order profile's literal oracle)."""
    ps = cocycle.group.powers(g)
    o = len(ps)
    if n % o:
        return None
    m = cocycle.value_order
    f = cocycle.exp_fn
    acc = sum(f(g, ps[k % o], g) for k in range(1, n))
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

    return ThreeCocycle(
        sub, cocycle.value_order, exp_fn, f"{cocycle.label}|H", is_cocycle=cocycle.is_cocycle
    )


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

    both = ca.is_cocycle and cb.is_cocycle
    return ThreeCocycle(grp, m, exp_fn, f"{ca.label}(x){cb.label}", is_cocycle=both)


def conjugate_cocycle(cocycle):
    """The complex-conjugate cocycle (all values inverted)."""
    f = cocycle.exp_fn
    return ThreeCocycle(
        cocycle.group,
        cocycle.value_order,
        lambda g, h, k: -f(g, h, k),
        label=f"conj({cocycle.label})",
        is_cocycle=cocycle.is_cocycle,
    )


# ---------------------------------------------------------------------------
# file-backed cocycles


def cocycle_from_file(group, path):
    """Load and verify a cocycle from lines `g h k e` under a header `order M`.

    The value at (g, h, k) is exp(2*pi*i*e/M); absent triples default to 1.
    The file is read a line at a time and refused (SpecError) at its first bad
    line.  A file that is not a normalized 3-cocycle raises CocycleError.
    """
    table: dict[tuple[int, int, int], int] = {}
    with records(path) as recs:
        _, head = next(recs, (0, []))
        if len(head) != 2 or head[0] != "order":
            raise SpecError("cocycle file must start with 'order M'")
        m = spec_int(head[1], f"cocycle file header 'order M': expected an integer, got {head[1]!r}")
        if m < 1:
            raise SpecError("value order must be positive")
        for i, parts in recs:
            if len(parts) != 4:
                got = " ".join(parts)
                raise SpecError(f"cocycle file line {i}: expected 'g h k e', got {got!r}")
            g, h, k, e = (
                spec_int(t, f"cocycle file line {i}, field {f}: expected an integer, got {t!r}")
                for t, f in zip(parts, "ghke")
            )
            for v in (g, h, k):
                if not 0 <= v < group.order:
                    raise SpecError(f"cocycle file line {i}: element index {v} out of range")
            if (g, h, k) in table:
                raise SpecError(f"cocycle file line {i}: triple {(g, h, k)} is given twice")
            table[(g, h, k)] = e % m

    cocycle = ThreeCocycle(group, m, lambda g, h, k: table.get((g, h, k), 0), label="file")
    report = verify_cocycle(cocycle)
    if not report.ok:
        raise CocycleError(str(report))
    cocycle.is_cocycle = True
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
