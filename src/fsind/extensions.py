"""Matched pairs, bicrossed products, and the built-in (group, cocycle) families.

A matched pair (F, G) with actions g |> x in F and g <| x in G yields the
bicrossed product group F |><| G on pairs (x, g) with multiplication
(x, g)(y, h) = (x (g |> y), (g <| y) h).  Extension cocycle data (sigma, tau)
on the pair induces a normalized 3-cocycle on the bicrossed product:

    omega(X, Y, Z) = sigma(X_G; Y_F, Y_G |> Z_F) * tau(X_G <| Y_F, Y_G; Z_F)

All concrete families below store cocycle values as integer exponents of a
fixed root of unity (see the cocycles module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .cocycles import CocycleError, ThreeCocycle, trivial_cocycle, verify_cocycle
from .groups import (
    FiniteGroup,
    SpecError,
    bicrossed_rows,
    direct_product,
    make_cyclic,
    make_dihedral,
    parse_group_spec,
)
from .indicators import (
    nu_h2n2_closed,
    nu_hn3_closed,
    nu_suzuki_cyclic_closed,
    nu_suzuki_noncyclic_closed,
)


@dataclass
class MatchedPair:
    """Groups F, G with right action g <| x on G and left action g |> x in F."""

    F: FiniteGroup
    G: FiniteGroup
    act_right: Callable[[int, int], int]  # (g, x) -> g <| x in G
    act_left: Callable[[int, int], int]  # (g, x) -> g |> x in F

    def __post_init__(self):
        for x in range(self.F.order):
            if self.act_left(0, x) != x:
                raise ValueError("identity of G must act trivially on F")
            if self.act_right(0, x) != 0:
                raise ValueError("1 <| x must be 1")
        for g in range(self.G.order):
            if self.act_right(g, 0) != g:
                raise ValueError("identity of F must act trivially on G")
            if self.act_left(g, 0) != 0:
                raise ValueError("g |> 1 must be 1")


def trivial_pair(f_group, g_group):
    return MatchedPair(f_group, g_group, lambda g, x: g, lambda g, x: x)


def bicrossed_product(pair, label=None, check=True):
    """The group F |><| G on pairs (x, g) encoded as x*|G| + g.

    Construction runs the exact group-axiom check, which is what validates
    the matched-pair compatibility conditions.
    """
    nf, ng = pair.F.order, pair.G.order
    left = [[pair.act_left(g, y) for y in range(nf)] for g in range(ng)]
    right = [[pair.act_right(g, y) for y in range(nf)] for g in range(ng)]
    rows = bicrossed_rows(pair.F, pair.G, left, right)
    name = label or f"({pair.F.label}|><|{pair.G.label})"
    return FiniteGroup(nf * ng, rows, label=name, check=check)


def power_iteration(pair, x, g, n):
    """(x_n, g_n) with (x, g)^n = (x_n, g_n) in the bicrossed product."""
    if n < 1:
        raise ValueError("n must be positive")
    xn, gn = x, g
    for _ in range(n - 1):
        xn = pair.F.mul(x, pair.act_left(g, xn))
        gn = pair.G.mul(pair.act_right(gn, x), g)
    return xn, gn


@dataclass
class ExtensionData:
    """Normalized extension cocycle data (sigma, tau) over a matched pair.

    sigma_exp(g; x, y) and tau_exp(g, h; x) give values as integer exponents
    of exp(2*pi*i/value_order).
    """

    pair: MatchedPair
    value_order: int
    sigma_exp: Callable[[int, int, int], int]
    tau_exp: Callable[[int, int, int], int]
    label: str = "extension"


@dataclass
class GTCategory:
    """A finite group together with a normalized 3-cocycle on it."""

    group: FiniteGroup
    omega: ThreeCocycle
    label: str = "C"


def omega_from_extension(data, verify=True, label=None):
    """Induce the 3-cocycle on the bicrossed product from (sigma, tau)."""
    pair = data.pair
    grp = bicrossed_product(pair)
    ng = pair.G.order
    act_l = pair.act_left
    act_r = pair.act_right
    sigma = data.sigma_exp
    tau = data.tau_exp

    def exp_fn(p, q, r):
        y_f, y_g = divmod(q, ng)
        x_g = p % ng
        z_f = r // ng
        return sigma(x_g, y_f, act_l(y_g, z_f)) + tau(act_r(x_g, y_f), y_g, z_f)

    omega = ThreeCocycle(grp, data.value_order, exp_fn, label=f"omega[{data.label}]")
    if verify:
        report = verify_cocycle(omega)
        if not report.ok:
            raise CocycleError(f"inconsistent extension data: {report}")
    return GTCategory(grp, omega, label=label or data.label)


# ---------------------------------------------------------------------------
# family: dimension 2N^2 (F = Z_2 swapping the coordinates of G = Z_N x Z_N)


def h2n2_pair(n):
    g_group = direct_product(make_cyclic(n), make_cyclic(n))

    def act_right(g, x):
        if x % 2 == 0:
            return g
        i, j = divmod(g, n)
        return j * n + i

    return MatchedPair(make_cyclic(2), g_group, act_right, lambda g, x: x)


def family_h2n2(n, xi_exp):
    """Extension data for the dimension-2N^2 family with xi = zeta_N^xi_exp."""
    if n < 2:
        raise ValueError("n must be at least 2")
    pair = h2n2_pair(n)

    def sigma_exp(g, a, b):
        if a % 2 == 1 and b % 2 == 1:
            i, j = divmod(g, n)
            return (xi_exp * i * j) % n
        return 0

    def tau_exp(g, h, a):
        if a % 2 == 1:
            j = g % n
            k = h // n
            return (xi_exp * j * k) % n
        return 0

    return ExtensionData(pair, n, sigma_exp, tau_exp, label=f"H_{2 * n * n}(xi^{xi_exp})")


# ---------------------------------------------------------------------------
# family: dimension N^3 (F = Z_N acting on G = Z_N x Z_N by (i,j) <| a = (i+aj, j))


def hn3_pair(n):
    g_group = direct_product(make_cyclic(n), make_cyclic(n))

    def act_right(g, a):
        i, j = divmod(g, n)
        return ((i + a * j) % n) * n + j

    return MatchedPair(make_cyclic(n), g_group, act_right, lambda g, x: x)


def family_hn3(n, xi_exp, zeta_exp, lambda_exp=None):
    """Extension data for the dimension-N^3 family (N odd).

    xi = zeta_N^xi_exp, zeta = zeta_N^zeta_exp.  lambda is an N-th root of
    xi^(-1); the default is the principal choice zeta_{N^2}^(-xi_exp), and any
    admissible lambda_exp (congruent to -xi_exp mod N) may be supplied to
    exercise choice-independence.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3")
    if lambda_exp is None:
        lambda_exp = (-xi_exp) % (n * n)
    if (lambda_exp + xi_exp) % n != 0:
        raise ValueError("lambda_exp must represent an N-th root of xi^(-1)")
    pair = hn3_pair(n)
    nn = n * n

    def tau_exp(g, h, a):
        j = g % n
        l = h % n
        k = h // n
        a = a % n
        lam = lambda_exp * (((j + l) % n) - j - l)  # lambda_{j+l} / (lambda_j lambda_l)
        zet = n * zeta_exp * (a * j * k + (a * (a - 1) // 2) * j * l)
        return (a * lam + zet) % nn

    return ExtensionData(
        pair, nn, lambda g, x, y: 0, tau_exp, label=f"H_{n ** 3}(xi^{xi_exp},zeta^{zeta_exp})"
    )


# ---------------------------------------------------------------------------
# family: Suzuki Hopf algebras, cyclic case (direct presentation)


def _dihedral_bar(d, half):
    """The flip automorphism on D_2L indices: r^i s^j -> r^(-i-j) s^j."""
    i, j = divmod(d, 2)
    return 2 * ((-i - j) % half) + j


def suzuki_cyclic_group(n, l):
    """The order-4NL group <b, r, s | b^2N = r^L = s^2 = 1, srs = r^-1,
    brb^-1 = r^-1, bsb^-1 = r^-1 s>, encoded as i*2L + (2j+k) for b^i r^j s^k.

    It is Z_2N |><| D_2L with trivial left action and d <| i = bar^i(d)."""
    two_l = 2 * l
    flip = [_dihedral_bar(d, l) for d in range(two_l)]
    left = [range(2 * n)] * two_l
    right = [[d, flip[d]] * n for d in range(two_l)]
    rows = bicrossed_rows(make_cyclic(2 * n), make_dihedral(two_l), left, right)
    return FiniteGroup(4 * n * l, rows, label=f"Gamma_{n},{l}", check=True)


def family_suzuki_cyclic(n, l, alpha, beta, eta_exp=None):
    """The Suzuki family category in the cyclic case ((N, alpha) != (even, +1)).

    eta is a 2L-th root of beta; the default is the principal choice (1 when
    beta = 1, zeta_{4L} when beta = -1), and any admissible eta_exp (an
    exponent of zeta_{4L} with eta^{2L} = beta) may be supplied to exercise
    choice-independence.  The 2N-th root of unity in the cocycle is principal.
    """
    if alpha not in (1, -1) or beta not in (1, -1):
        raise ValueError("alpha and beta must be +1 or -1")
    if l < 2:
        raise ValueError("l must be at least 2")
    if n % 2 == 0 and alpha == 1:
        raise ValueError("the cyclic case requires (N, alpha) != (even, +1)")
    grp = suzuki_cyclic_group(n, l)
    two_l = 2 * l
    m = math.lcm(4 * l, 2 * n)
    eta_unit = m // (4 * l)  # exponent of the principal 4L-th root
    c_unit = m // (2 * n)  # exponent of zeta_2N
    if eta_exp is None:
        eta_exp = 0 if beta == 1 else eta_unit
    else:
        eta_exp = eta_exp * eta_unit  # given as an exponent of zeta_{4L}
        want = 0 if beta == 1 else m // 2
        if (eta_exp * two_l) % m != want:
            raise ValueError("eta_exp must represent a 2L-th root of beta")
    neg_alpha_zeta = (1 + (n if alpha == 1 else 0)) * c_unit  # -alpha * zeta_2N

    # The cocycle is the extension formula sigma(b^i; y', b^j |> z') transported
    # through the normal form b^i x = x' b^i with x' = bar^i(x): the dihedral
    # part of the third argument gets flipped j+k times in total.
    def exp_fn(p, q, r):
        ly = q % two_l
        if ly % 2 == 0:
            return 0
        i = p // two_l
        j = q // two_l
        k = r // two_l
        lz = r % two_l
        if (j + k) % 2 and lz:
            lz = _dihedral_bar(lz, l)  # ell(bar(z)) = 2L - ell(z)
        acc = 0
        if i % 2:
            acc += 2 * lz * eta_exp
        if lz % 2:
            acc += i * neg_alpha_zeta
        return acc % m

    omega = ThreeCocycle(grp, m, exp_fn, label=f"omega[A_{n},{l}^{alpha},{beta}]")
    return GTCategory(grp, omega, label=f"A_{n},{l}^{alpha},{beta}")


# ---------------------------------------------------------------------------
# family: Suzuki Hopf algebras, non-cyclic case (via the extension machinery)


def suzuki_noncyclic_pair(n, l):
    """Matched pair with G = Z_N x Z_2 (a^i b^j), F = D_2L; b acts by the flip."""
    g_group = direct_product(make_cyclic(n), make_cyclic(2))

    def act_left(g, x):
        return _dihedral_bar(x, l) if g % 2 else x

    return MatchedPair(make_dihedral(2 * l), g_group, lambda g, x: g, act_left)


def family_suzuki_noncyclic(n, l, beta):
    """The Suzuki family in the non-cyclic case (N even, alpha = +1)."""
    if beta not in (1, -1):
        raise ValueError("beta must be +1 or -1")
    if n % 2 or n < 2:
        raise ValueError("the non-cyclic case requires even N")
    if l < 2:
        raise ValueError("l must be at least 2")
    pair = suzuki_noncyclic_pair(n, l)
    m = math.lcm(4 * l, 2 * n)
    eta_unit = m // (4 * l)
    c_unit = m // (2 * n)
    eta_exp = 0 if beta == 1 else eta_unit

    def sigma_exp(g, x, y):
        if x % 2 == 0:  # ell(x) = index in the dihedral encoding
            return 0
        i, j = divmod(g, 2)
        acc = 0
        if j % 2:
            acc += 2 * y * eta_exp
        if y % 2:
            acc += (2 * i + j * n) * c_unit  # (-1)^j * zeta_N^i
        return acc % m

    data = ExtensionData(
        pair, m, sigma_exp, lambda g, h, x: 0, label=f"A_{n},{l}^+1,{beta}"
    )
    return omega_from_extension(data, verify=False)


# ---------------------------------------------------------------------------
# bismash products and spec parsing


def family_bismash(pair, label=None):
    """The bismash product category: trivial sigma and tau, trivial cocycle."""
    grp = bicrossed_product(pair, label=label)
    return GTCategory(grp, trivial_cocycle(grp), label=label or f"bismash[{grp.label}]")


def pair_from_file(path):
    """Load a matched pair from a text file.

    Format:
        F <group spec>
        G <group spec>
        act_left            (optional; |G| rows of |F| entries in F: g |> x)
        ...rows...
        act_right           (optional; |G| rows of |F| entries in G: g <| x)
        ...rows...
    Omitted action sections default to the trivial action.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    groups = {}
    tables = {}
    i = 0
    while i < len(lines):
        head = lines[i]
        i += 1
        if head[0] in ("F", "G") and len(head) == 2:
            groups[head[0]] = parse_group_spec(head[1])
        elif head[0] in ("act_left", "act_right") and len(head) == 1:
            if len(groups) < 2:
                raise SpecError("group specs must precede action tables")
            n_rows, width = groups["G"].order, groups["F"].order
            bound = width if head[0] == "act_left" else n_rows
            rows = lines[i:i + n_rows]
            if len(rows) < n_rows:
                raise SpecError(f"{head[0]} has {len(rows)} rows, expected |G| = {n_rows}")
            tables[head[0]] = [
                _action_row(head[0], r, row, width, bound) for r, row in enumerate(rows)
            ]
            i += n_rows
        else:
            raise SpecError(f"unexpected line in pair file: {' '.join(head)!r}")
    if len(groups) < 2:
        raise SpecError("pair file must declare both F and G")
    left = tables.get("act_left")
    right = tables.get("act_right")
    return MatchedPair(
        groups["F"],
        groups["G"],
        (lambda g, x: right[g][x]) if right else (lambda g, x: g),
        (lambda g, x: left[g][x]) if left else (lambda g, x: x),
    )


def _action_row(section, r, row, width, bound):
    """One action-table row: `width` element indices, each in 0..bound-1."""
    try:
        values = [int(t) for t in row]
    except ValueError:
        values = []
    if len(values) != width or not all(0 <= v < bound for v in values):
        raise SpecError(f"{section} row {r}: expected {width} entries in 0..{bound - 1}")
    return values


# ---------------------------------------------------------------------------
# the family registry


@dataclass(frozen=True)
class Family:
    """A built-in family: the fields of its spec `kind:field:...`, its
    builder, its closed form nu(*params, n) and its default sweep grid."""

    kind: str
    fields: tuple[str, ...]
    build: Callable[..., GTCategory]
    closed: Callable | None = None
    grid: tuple[tuple, ...] = ()

    def spec(self, params):
        return ":".join([self.kind, *map(str, params)])


_SIGNS = (1, -1)

FAMILIES = {
    fam.kind: fam
    for fam in (
        Family(
            "h2n2", ("N", "xi"),
            lambda n, xi: omega_from_extension(family_h2n2(n, xi), verify=False),
            nu_h2n2_closed,
            tuple((n, xi) for n in range(2, 7) for xi in range(n)),
        ),
        Family(
            "hn3", ("N", "xi", "zeta"),
            lambda n, xi, zeta: omega_from_extension(family_hn3(n, xi, zeta), verify=False),
            nu_hn3_closed,
            tuple((n, xi, zeta) for n in (3, 5) for xi in range(n) for zeta in range(n)),
        ),
        Family(
            "suzuki", ("N", "L", "alpha", "beta"),
            family_suzuki_cyclic,
            nu_suzuki_cyclic_closed,
            tuple(
                (n, l, alpha, beta)
                for n in (1, 2, 3) for l in (2, 3, 4) for alpha in _SIGNS for beta in _SIGNS
                if n % 2 or alpha == -1
            ),
        ),
        Family(
            "suzukiP", ("N", "L", "beta"),
            family_suzuki_noncyclic,
            nu_suzuki_noncyclic_closed,
            tuple((n, l, beta) for n in (2, 4) for l in (2, 3) for beta in _SIGNS),
        ),
        Family("bismash", ("pair-file",), lambda path: family_bismash(pair_from_file(path))),
    )
}


def split_family_spec(spec):
    """(family, params) for a family spec: the one place a spec is split.

    Fields are integers, except bismash's pair-file path, which is the whole
    rest of the spec.  Range checks are left to the builders.
    """
    kind, _, rest = spec.partition(":")
    fam = FAMILIES.get(kind)
    if fam is None:
        raise SpecError(f"unknown family spec: {spec!r}")
    if kind == "bismash":
        return fam, (rest,)
    parts = rest.split(":")
    try:
        if len(parts) == len(fam.fields):
            return fam, tuple(int(p) for p in parts)
    except ValueError:
        pass
    raise SpecError(f"{kind} expects {':'.join(fam.fields)} (integers), got {spec!r}")


def parse_family_spec(spec):
    """Build the GTCategory of a family spec (see FAMILIES for the kinds)."""
    fam, params = split_family_spec(spec)
    return fam.build(*params)
