"""Extension data on matched pairs, and the built-in (group, cocycle) families.

A MatchedPair (F, G) with actions g |> x in F and g <| x in G yields the
BicrossedGroup F |><| G on pairs (x, g) with multiplication
(x, g)(y, h) = (x (g |> y), (g <| y) h).  Extension cocycle data (sigma, tau)
on the pair induces a normalized 3-cocycle on the bicrossed product:

    omega(X, Y, Z) = sigma(X_G; Y_F, Y_G |> Z_F) * tau(X_G <| Y_F, Y_G; Z_F)

Every built-in family is extension data on a matched pair, and builds
through omega_from_extension.  The values are integer exponents of a fixed
root of unity (see the cocycles module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from .cocycles import ThreeCocycle
from .groups import (
    BicrossedGroup,
    FiniteGroup,
    MatchedPair,
    SpecError,
    check_order,
    direct_product,
    make_cyclic,
    make_dihedral,
    parse_group_spec,
    records,
    spec_int,
    trivial_actions,
)
from .indicators import (
    check_h2n2,
    check_hn3,
    check_suzuki_cyclic,
    check_suzuki_noncyclic,
    nu_h2n2_closed,
    nu_hn3_closed,
    nu_suzuki_cyclic_closed,
    nu_suzuki_noncyclic_closed,
)


def power_iteration(pair, x, g, n):
    """(x_n, g_n) with (x, g)^n = (x_n, g_n) in the bicrossed product."""
    if n < 1:
        raise ValueError("n must be positive")
    ng = pair.G.order
    return divmod(BicrossedGroup(pair).power(x * ng + g, n), ng)


@dataclass
class ExtensionData:
    """Normalized extension cocycle data (sigma, tau) over a matched pair.

    sigma_exp(g; x, y) and tau_exp(g, h; x) give values as integer exponents
    of exp(2*pi*i/value_order); None stands for a term that is 1 throughout.
    """

    pair: MatchedPair
    value_order: int
    sigma_exp: Callable[[int, int, int], int] | None
    tau_exp: Callable[[int, int, int], int] | None
    label: str = "extension"


@dataclass
class GTCategory:
    """A finite group together with a normalized 3-cocycle on it."""

    group: FiniteGroup
    omega: ThreeCocycle
    label: str = "C"


def omega_from_extension(data):
    """Induce the 3-cocycle on the bicrossed product from (sigma, tau).

    omega reads its third argument r only through its F-part r // |G|, and
    its first argument p only through its G-part p % |G|, so the cocycle
    carries the group's coset block |G|, and the exact check (verify_cocycle)
    reads one r per block, |F| in place of |F|*|G|, and builds one slice
    omega(p, ., .) per G-part.

    The cocycle is marked is_cocycle without a check: sigma and tau must
    satisfy the extension equations, or the order profile, and every
    indicator read from it, is wrong.  verify_cocycle decides it.
    """
    pair = data.pair
    grp = BicrossedGroup(pair)
    ng, act_l, act_r = pair.G.order, pair.act_left, pair.act_right
    sigma, tau = data.sigma_exp, data.tau_exp

    # one function per set of terms present: no call returns a constant 0
    def exp_fn(p, q, r):
        y_f, y_g = divmod(q, ng)
        x_g, z_f = p % ng, r // ng
        return sigma(x_g, y_f, act_l[y_g][z_f]) + tau(act_r[x_g][y_f], y_g, z_f)

    def sigma_only(p, q, r):
        y_f, y_g = divmod(q, ng)
        return sigma(p % ng, y_f, act_l[y_g][r // ng])

    def tau_only(p, q, r):
        y_f, y_g = divmod(q, ng)
        return tau(act_r[p % ng][y_f], y_g, r // ng)

    if sigma is None:
        exp_fn = tau_only if tau else lambda p, q, r: 0  # neither: omega = 1
    elif tau is None:
        exp_fn = sigma_only

    omega = ThreeCocycle(
        grp, data.value_order, exp_fn, f"omega[{data.label}]", grp.coset_block, is_cocycle=True
    )
    return GTCategory(grp, omega, label=data.label)


# ---------------------------------------------------------------------------
# family: dimension 2N^2 (F = Z_2 swapping the coordinates of G = Z_N x Z_N)


def h2n2_pair(n):
    check_order(2 * n * n)
    g_group = direct_product(make_cyclic(n), make_cyclic(n))
    swap = [[i * n + j, j * n + i] for i in range(n) for j in range(n)]
    return MatchedPair(make_cyclic(2), g_group, swap, [range(2)] * (n * n))


def family_h2n2(n, xi_exp):
    """Extension data for the dimension-2N^2 family with xi = zeta_N^xi_exp."""
    check_h2n2(n)
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
    check_order(n ** 3)
    g_group = direct_product(make_cyclic(n), make_cyclic(n))
    shear = [[(i + a * j) % n * n + j for a in range(n)] for i in range(n) for j in range(n)]
    return MatchedPair(make_cyclic(n), g_group, shear, [range(n)] * (n * n))


def family_hn3(n, xi_exp, zeta_exp, lambda_exp=None):
    """Extension data for the dimension-N^3 family (N odd).

    xi = zeta_N^xi_exp, zeta = zeta_N^zeta_exp.  lambda is an N-th root of
    xi^(-1); the default is the principal choice zeta_{N^2}^(-xi_exp), and any
    admissible lambda_exp (congruent to -xi_exp mod N) may be supplied to
    exercise choice-independence.
    """
    check_hn3(n)
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

    return ExtensionData(pair, nn, None, tau_exp, label=f"H_{n ** 3}(xi^{xi_exp},zeta^{zeta_exp})")


# ---------------------------------------------------------------------------
# family: Suzuki Hopf algebras A_{N,L}^{alpha,beta}, on D_2L |><| G with
# G = Z_2N (the cyclic case) or Z_N x Z_2 (the non-cyclic case)


def _dihedral_bar(d, half):
    """The flip automorphism on D_2L indices: r^i s^j -> r^(-i-j) s^j."""
    i, j = divmod(d, 2)
    return 2 * ((-i - j) % half) + j


def suzuki_pair(g_group, l):
    """F = D_2L, on which the odd elements of G act by the flip and the even
    ones trivially; F acts trivially on G."""
    two_l, ng = 2 * l, g_group.order
    flip = [_dihedral_bar(x, l) for x in range(two_l)]
    left = [flip if g % 2 else range(two_l) for g in range(ng)]
    return MatchedPair(make_dihedral(two_l), g_group, [[g] * two_l for g in range(ng)], left)


def _suzuki_data(g_group, l, chi, beta, eta_exp, label):
    """Extension data (sigma only) for a Suzuki algebra on suzuki_pair(G, L),
    |G| = 2N.  chi[g] is a character of G as exponents of zeta_2N, and eta =
    zeta_4L^eta_exp is a 2L-th root of beta (default: 1 when beta = 1,
    zeta_4L when beta = -1).  With ell(y) the index of y in D_2L,

        sigma(g; x, y) = eta^(2 ell(y) [g odd]) * chi(g)^[y a reflection]

    when x is a reflection, and 1 otherwise.
    """
    if eta_exp is None:
        eta_exp = 0 if beta == 1 else 1
    elif eta_exp % 2 != (beta == -1):  # eta^2L = (-1)^eta_exp
        raise ValueError("eta_exp must represent a 2L-th root of beta")
    m = math.lcm(4 * l, g_group.order)
    eta = eta_exp * (m // (4 * l))
    chi = [c * (m // g_group.order) for c in chi]

    def sigma_exp(g, x, y):
        if x % 2 == 0:
            return 0
        acc = 2 * y * eta if g % 2 else 0
        if y % 2:
            acc += chi[g]
        return acc % m

    return ExtensionData(suzuki_pair(g_group, l), m, sigma_exp, None, label=label)


def family_suzuki_cyclic(n, l, alpha, beta, eta_exp=None):
    """Extension data for the Suzuki family in the cyclic case ((N, alpha) !=
    (even, +1)): G = Z_2N = <b> and chi(b^i) = (-alpha zeta_2N)^i, with the
    principal zeta_2N.  eta_exp as in _suzuki_data; any admissible choice
    gives the same indicators."""
    check_suzuki_cyclic(n, l, alpha, beta)
    check_order(4 * n * l)
    neg_alpha_zeta = 1 + (n if alpha == 1 else 0)  # -alpha zeta_2N = zeta_2N^(1 or 1 + N)
    chi = [i * neg_alpha_zeta for i in range(2 * n)]
    return _suzuki_data(make_cyclic(2 * n), l, chi, beta, eta_exp, f"A_{n},{l}^{alpha},{beta}")


def family_suzuki_noncyclic(n, l, beta):
    """Extension data for the Suzuki family in the non-cyclic case (N even,
    alpha = +1): G = Z_N x Z_2 = <a> x <b> and chi(a^i b^j) = (-1)^j zeta_N^i."""
    check_suzuki_noncyclic(n, l, beta)
    check_order(4 * n * l)
    chi = [2 * i + j * n for i in range(n) for j in range(2)]
    g_group = direct_product(make_cyclic(n), make_cyclic(2))
    return _suzuki_data(g_group, l, chi, beta, None, f"A_{n},{l}^+1,{beta}")


# ---------------------------------------------------------------------------
# bismash products and spec parsing


def family_bismash(pair):
    """Extension data of the bismash product: sigma = tau = 1."""
    label = f"bismash[({pair.F.label}|><|{pair.G.label})]"
    return ExtensionData(pair, 1, None, None, label=label)


def pair_from_file(path):
    """Load a matched pair from a text file.

    Format:
        F <group spec>
        G <group spec>
        act_left            (optional; |G| rows of |F| entries in F: g |> x)
        ...rows...
        act_right           (optional; |G| rows of |F| entries in G: g <| x)
        ...rows...
    Omitted action sections default to the trivial action.  The file is read a
    line at a time, a section as the next |G| non-blank lines, and |F|*|G| is
    checked against the order cap as soon as both groups are declared.
    """
    groups, tables = {}, {}
    with records(path) as recs:
        for _, head in recs:
            if head[0] in groups or head[0] in tables:
                raise SpecError(f"pair file declares {head[0]} twice")
            if head[0] in ("F", "G") and len(head) == 2:
                groups[head[0]] = parse_group_spec(head[1])
                if len(groups) == 2:  # the cap, then the default actions
                    defaults = trivial_actions(groups["F"].order, groups["G"].order)
            elif head[0] in ("act_left", "act_right") and len(head) == 1:
                if len(groups) < 2:
                    raise SpecError("group specs must precede action tables")
                rows = list(islice(recs, n_rows := groups["G"].order))
                if len(rows) < n_rows:
                    raise SpecError(f"{head[0]} has {len(rows)} rows, expected |G| = {n_rows}")
                tables[head[0]] = [
                    [spec_int(t, f"{head[0]} row {r}, column {c}: expected an integer, got {t!r}")
                     for c, t in enumerate(row)]
                    for r, (_, row) in enumerate(rows)
                ]
            else:
                raise SpecError(f"unexpected line in pair file: {' '.join(head)!r}")
    if len(groups) < 2:
        raise SpecError("pair file must declare both F and G")
    right, left = defaults
    return MatchedPair(groups["F"], groups["G"], tables.get("act_right", right),
                       tables.get("act_left", left))


# ---------------------------------------------------------------------------
# the family registry


@dataclass(frozen=True)
class Family:
    """A built-in family: the fields of its spec `kind:field:...`, its
    extension data data(*params), its closed form nu(*params, n) and its
    default sweep grid."""

    kind: str
    fields: tuple[str, ...]
    data: Callable[..., ExtensionData]
    closed: Callable | None = None
    grid: tuple[tuple, ...] = ()

    def build(self, *params):
        return omega_from_extension(self.data(*params))

    def spec(self, params):
        return ":".join([self.kind, *map(str, params)])


_SIGNS = (1, -1)

FAMILIES = {
    fam.kind: fam
    for fam in (
        Family(
            "h2n2", ("N", "xi"), family_h2n2, nu_h2n2_closed,
            tuple((n, xi) for n in range(2, 7) for xi in range(n)),
        ),
        Family(
            "hn3", ("N", "xi", "zeta"), family_hn3, nu_hn3_closed,
            tuple((n, xi, zeta) for n in (3, 5) for xi in range(n) for zeta in range(n)),
        ),
        Family(
            "suzuki", ("N", "L", "alpha", "beta"), family_suzuki_cyclic, nu_suzuki_cyclic_closed,
            tuple(
                (n, l, alpha, beta)
                for n in (1, 2, 3) for l in (2, 3, 4) for alpha in _SIGNS for beta in _SIGNS
                if n % 2 or alpha == -1
            ),
        ),
        Family(
            "suzukiP", ("N", "L", "beta"), family_suzuki_noncyclic, nu_suzuki_noncyclic_closed,
            tuple((n, l, beta) for n in (2, 4) for l in (2, 3) for beta in _SIGNS),
        ),
        Family("bismash", ("pair-file",), family_bismash),
    )
}


def split_family_spec(spec):
    """(family, params) for a family spec: the one place a spec is split.

    Fields are integers, except bismash's pair file, whose path is the whole
    rest of the spec and which is read here into its matched pair.  Range
    checks are left to the builders.
    """
    kind, _, rest = spec.partition(":")
    fam = FAMILIES.get(kind)
    if fam is None:
        raise SpecError(f"unknown family spec: {spec!r}")
    if kind == "bismash":
        return fam, (pair_from_file(rest),)
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
