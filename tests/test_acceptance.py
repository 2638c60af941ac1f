"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail line
(visible in the terminal even under capture) with its runtime.
"""

from __future__ import annotations

import math
import os
import time

import pytest

from fsind.cyclotomic import (
    CyclotomicInteger,
    divisors,
    gauss_sum_closed,
    gauss_sum_direct,
    root,
    sqrt_int,
)
from fsind.groups import group_from_table_file, make_dihedral
from fsind.cocycles import (
    conjugate_cocycle,
    omega_tilde,
    omega_tilde_root,
    product_cocycle,
    psi,
)
from fsind.extensions import (
    FAMILIES,
    GTCategory,
    family_bismash,
    family_hn3,
    family_suzuki_cyclic,
    h2n2_pair,
    omega_from_extension,
    parse_family_spec,
)
from fsind.indicators import (
    frobenius_check,
    nu_brute,
    nu_center,
    nu_group_algebra,
    nu_h2n2_closed,
    nu_hn3_closed,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")

# categories are shared between the sweep and Frobenius criteria so the
# expensive group constructions run once
_category_cache: dict[str, GTCategory] = {}


def category(spec):
    if spec not in _category_cache:
        _category_cache[spec] = parse_family_spec(spec)
    return _category_cache[spec]


def family_grid():
    """(family, params) over every family's default sweep grid."""
    return [(fam, params) for fam in FAMILIES.values() for params in fam.grid]


def report(capsys, number, name, started, limit_s):
    elapsed = time.perf_counter() - started
    line = f"criterion {number} ({name}): PASS ({elapsed:.1f}s, limit {limit_s}s)"
    with capsys.disabled():
        print(line)
    assert elapsed < limit_s, f"runtime budget exceeded: {line}"


def test_criterion_1_table27(capsys):
    t0 = time.perf_counter()
    beta = root(3, 1)
    beta2 = root(3, 2)
    # rows in table order: (xi, zeta) = (1,1), (b,1), (1,b), (b,b), (1,b2), (b,b2)
    expected_nu3 = [
        27,
        9,
        3 * (5 + 4 * beta2),
        3 * (5 - 2 * beta2),
        3 * (5 + 4 * beta),
        3 * (5 - 2 * beta),
    ]
    rows = [(i, j) for j in (0, 1, 2) for i in (0, 1)]
    for (i, j), nu3 in zip(rows, expected_nu3):
        zeta_exp = (-j) % 3
        assert nu_hn3_closed(3, i, zeta_exp, 1) == 1
        assert nu_hn3_closed(3, i, zeta_exp, 3) == nu3, (i, j)
        assert nu_hn3_closed(3, i, zeta_exp, 9) == 27
        assert nu_hn3_closed(3, i, zeta_exp, 27) == 27
    # the CLI table renders the same values
    from fsind.cli import main

    assert main(["table27", "--format", "json"]) == 0
    capsys.readouterr()
    report(capsys, 1, "dimension-27 table reproduction", t0, 5)


def test_criterion_2_dimension_8_separation(capsys):
    t0 = time.perf_counter()
    # three dimension-8 objects with nu_2 = 6, 6, 2
    b8 = omega_from_extension(family_bismash(h2n2_pair(2)))
    assert nu_brute(b8, 2) == 6
    assert nu_group_algebra(make_dihedral(8), 2) == 6
    q8 = group_from_table_file(os.path.join(DATA_DIR, "q8.txt"))
    assert nu_group_algebra(q8, 2) == 2
    # the two dimension-8 family members separate at nu_4
    assert nu_h2n2_closed(2, 1, 4) == 4
    assert nu_h2n2_closed(2, 0, 4) == 8
    assert nu_brute(category("h2n2:2:1"), 4) == 4
    assert nu_brute(category("h2n2:2:0"), 4) == 8
    report(capsys, 2, "dimension-8 separation", t0, 1)


def test_criterion_3_closed_equals_brute(capsys):
    t0 = time.perf_counter()
    checked = 0
    for fam, params in family_grid():
        cat = category(fam.spec(params))
        for n in divisors(cat.group.order):
            assert fam.closed(*params, n) == nu_brute(cat, n), (fam.spec(params), n)
            checked += 1
    assert checked < 10_000
    report(capsys, 3, f"closed form = brute force ({checked} values)", t0, 120)


def test_criterion_4_gauss_sum_oracle(capsys):
    t0 = time.perf_counter()
    for m in range(1, 201):
        for a in range(m):
            assert gauss_sum_closed(a, m) == gauss_sum_direct(a, m), (a, m)
    report(capsys, 4, "Gauss sums closed = direct, m <= 200", t0, 60)


def test_criterion_5_cyclic_counterexample(capsys):
    t0 = time.perf_counter()
    for p in (5, 13):
        w = psi(p, 1)
        cat = GTCategory(w.group, w)
        assert nu_brute(cat, p) == sqrt_int(p)
        rep = frobenius_check(cat)
        assert not rep.verdict
        entry = {e.n: e for e in rep.entries}[p]
        assert not entry.divisible_by_n
        assert entry.p == p and entry.divisible_by_n_over_sqrt_p
    report(capsys, 5, "sqrt(p) counterexample with refined divisibility", t0, 1)


def test_criterion_6_frobenius_positive_suite(capsys):
    t0 = time.perf_counter()
    h2n2_orders = sorted({params[0] for params in FAMILIES["h2n2"].grid})
    cats = [omega_from_extension(family_bismash(h2n2_pair(big_n))) for big_n in h2n2_orders]
    cats += [category(fam.spec(params)) for fam, params in family_grid()]
    for cat in cats:
        rep = frobenius_check(cat)
        assert rep.verdict, (cat.label, [e.n for e in rep.entries if not e.divisible_by_n])
    report(capsys, 6, f"Frobenius positive suite ({len(cats)} categories)", t0, 180)


def test_criterion_7_property_suites(capsys):
    t0 = time.perf_counter()
    # class-function property on every built-in category of order <= 200
    small_cats = [
        cat for cat in _category_cache.values() if cat.group.order <= 200
    ] or [category("h2n2:3:1")]
    for cat in small_cats:
        grp, w = cat.group, cat.omega
        for cls in grp.conjugacy_classes():
            rep = cls[0]
            for n in divisors(grp.exponent()):
                ref = omega_tilde_root(w, n, rep)
                assert all(omega_tilde_root(w, n, g) == ref for g in cls[1:])
    # order bound and square-power law for cyclic cocycles, N <= 12
    for big_n in range(1, 13):
        for r in range(big_n):
            w = psi(big_n, r)
            e = big_n // math.gcd(big_n, r) if r else 1
            for n in range(1, 2 * big_n + 1):
                for i in range(big_n):
                    if (n * i) % big_n == 0:
                        val = omega_tilde_root(w, n, i)
                        bound = math.gcd(big_n, math.gcd(n, e))
                        assert bound % val.multiplicative_order() == 0
                        for a in range(big_n):
                            assert omega_tilde_root(w, n, (a * i) % big_n) == val ** (a * a)
                # torsion sum = quadratic Gauss sum
                total = CyclotomicInteger.zero()
                for i in range(big_n):
                    total = total + omega_tilde(w, n, i)
                d = math.gcd(big_n, n)
                assert total == gauss_sum_closed(n * r // d, d), (big_n, r, n)
    # nu_2 is a rational integer for every cached family
    for cat in _category_cache.values():
        v = nu_brute(cat, 2)
        assert v.is_rational()
    # lambda / eta choices do not change indicators
    base = category("hn3:3:1:2")
    for lambda_exp in (2, 5, 8):
        alt = omega_from_extension(family_hn3(3, 1, 2, lambda_exp=lambda_exp))
        assert all(nu_brute(alt, n) == nu_brute(base, n) for n in (1, 3, 9, 27))
    for beta, exps in ((1, (2, 4)), (-1, (3, 5))):
        ref = omega_from_extension(family_suzuki_cyclic(1, 3, 1, beta))
        for eta_exp in exps:
            alt = omega_from_extension(family_suzuki_cyclic(1, 3, 1, beta, eta_exp=eta_exp))
            assert all(
                nu_brute(alt, n) == nu_brute(ref, n) for n in divisors(12)
            ), (beta, eta_exp)
    report(capsys, 7, "standalone property suites", t0, 120)


def test_criterion_8_center_consistency(capsys):
    t0 = time.perf_counter()
    for big_n in range(1, 7):
        for r in range(big_n):
            w = psi(big_n, r)
            base = GTCategory(w.group, w)
            doubled = product_cocycle(w, conjugate_cocycle(w))
            squared = GTCategory(doubled.group, doubled)
            for n in range(1, 2 * big_n + 1):
                lhs = nu_center(nu_brute(base, n))
                assert lhs == nu_brute(squared, n), (big_n, r, n)
    report(capsys, 8, "center norm-square consistency", t0, 30)
