"""Exact Frobenius-Schur indicators of group-theoretical categories."""

from .cyclotomic import (
    CyclotomicInteger,
    RootOfUnity,
    divide_by_sqrt_p_and_test,
    divisors,
    euler_phi,
    factorize,
    gauss_sum_closed,
    gauss_sum_direct,
    jacobi_symbol,
    root,
    sqrt_int,
)
from .groups import (
    BicrossedGroup,
    FiniteGroup,
    MatchedPair,
    SpecError,
    direct_product,
    group_from_table_file,
    make_cyclic,
    make_dihedral,
    parse_group_spec,
    trivial_pair,
)
from .cocycles import (
    CocycleError,
    ThreeCocycle,
    c_omega,
    cocycle_from_file,
    conjugate_cocycle,
    omega_tilde,
    omega_tilde_root,
    parse_cocycle_spec,
    product_cocycle,
    psi,
    restrict,
    trivial_cocycle,
    verify_cocycle,
)
from .extensions import (
    FAMILIES,
    ExtensionData,
    GTCategory,
    family_bismash,
    family_h2n2,
    family_hn3,
    family_suzuki_cyclic,
    family_suzuki_noncyclic,
    omega_from_extension,
    parse_family_spec,
    power_iteration,
)
from .indicators import (
    FrobeniusReport,
    frobenius_check,
    nu2_tambara_yamagami,
    nu_brute,
    nu_center,
    nu_group_algebra,
    nu_h2n2_closed,
    nu_hn3_closed,
    nu_literal,
    nu_product,
    nu_suzuki_cyclic_closed,
    nu_suzuki_noncyclic_closed,
)

__version__ = "0.1.0"
