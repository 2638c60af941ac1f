"""Refusals of bad arguments that the other tests do not reach, each with its
exception and message, in one table."""

from __future__ import annotations

import re

import pytest

from fsind.cocycles import psi, verify_cocycle
from fsind.cyclotomic import (
    ONE,
    CyclotomicInteger,
    RootOfUnity,
    divide_by_sqrt_p_and_test,
    gauss_sum_closed,
    gauss_sum_direct,
    jacobi_symbol,
    root,
)
from fsind.extensions import family_suzuki_cyclic, h2n2_pair, power_iteration
from fsind.groups import FiniteGroup, SpecError, make_cyclic, make_dihedral, parse_group_spec
from fsind.indicators import (
    nu2_tambara_yamagami,
    nu_h2n2_closed,
    nu_hn3_closed,
    nu_suzuki_cyclic_closed,
    nu_suzuki_noncyclic_closed,
)


@pytest.mark.parametrize("call, exception, message", [
    # cyclotomic
    (lambda: jacobi_symbol(3, 4), ValueError, "Jacobi symbol requires positive odd n, got 4"),
    (lambda: CyclotomicInteger(0, {}), ValueError, "conductor must be positive"),
    (lambda: root(3, 1).as_int(), ValueError,
     "CyclotomicInteger('1*z3^1') is not a rational integer"),
    (lambda: root(3, 1).is_divisible_by_integer(0), ValueError,
     "divisor must be a positive integer"),
    (lambda: root(3, 1) + 1.5, TypeError, "cannot interpret 1.5 as a cyclotomic integer"),
    (lambda: RootOfUnity(0, 1), ValueError, "order must be positive"),
    (lambda: root(0, 1), ValueError, "order must be positive"),
    (lambda: gauss_sum_direct(1, 0), ValueError, "modulus must be positive"),
    (lambda: gauss_sum_closed(1, 0), ValueError, "modulus must be positive"),
    (lambda: divide_by_sqrt_p_and_test(ONE, 3, 2), ValueError, "p must divide n"),
    (lambda: divide_by_sqrt_p_and_test(ONE, 4, 4), ValueError, "4 is not prime"),
    # groups
    (lambda: make_cyclic(6).torsion(0), ValueError, "n must be positive"),
    (lambda: make_cyclic(6).subgroup([2, 4]), ValueError, "subgroup must contain the identity"),
    (lambda: make_cyclic(6).subgroup([0, 1]), ValueError,
     "element subset is not closed under multiplication"),
    (lambda: make_dihedral(7), ValueError, "dihedral order must be an even integer >= 4"),
    (lambda: make_dihedral(2), ValueError, "dihedral order must be an even integer >= 4"),
    (lambda: parse_group_spec("product:cyclic:2"), SpecError,
     "product spec needs two comma-separated parts: 'cyclic:2'"),
    (lambda: FiniteGroup(2, [[0, 1], [1, 1]], check=False).powers(1), ValueError,
     "element 1 has no finite order"),
    # extensions
    (lambda: power_iteration(h2n2_pair(2), 0, 0, 0), ValueError, "n must be positive"),
    (lambda: family_suzuki_cyclic(1, 2, -1, 1, eta_exp=1), ValueError,
     "eta_exp must represent a 2L-th root of beta"),
    # indicators
    (lambda: nu_h2n2_closed(2, 0, 0), ValueError, "n must be positive"),
    (lambda: nu_hn3_closed(3, 0, 0, 0), ValueError, "n must be positive"),
    (lambda: nu_suzuki_cyclic_closed(1, 2, -1, 1, 0), ValueError, "n must be positive"),
    (lambda: nu_suzuki_noncyclic_closed(2, 2, 1, 0), ValueError, "n must be positive"),
    (lambda: nu2_tambara_yamagami(make_cyclic(4), 0), ValueError, "sign_tau must be +1 or -1"),
])
def test_bad_arguments_are_refused(call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call()


def test_a_value_is_not_equal_to_a_string():
    assert (root(3, 1) == "x") is False


def test_a_passed_cocycle_check_reports_its_cases():
    assert str(verify_cocycle(psi(3, 1))) == "cocycle check passed (27 cases)"
