#!/usr/bin/env python3
"""Survey the Frobenius divisibility property (n | nu_n for every divisor n of
the group order) across the built-in families' default grids (FAMILIES in
fsind.extensions) and cyclic counterexamples.

Usage:
    python scripts/frobenius_survey.py
"""

from __future__ import annotations

import argparse
import sys
import time

from fsind.cocycles import psi
from fsind.extensions import FAMILIES, GTCategory
from fsind.indicators import frobenius_check

CYCLIC_CASES = [(2, 1), (3, 1), (4, 1), (5, 1), (9, 3), (13, 1), (15, 1)]


def survey_one(cat):
    report = frobenius_check(cat)
    fails = [e.n for e in report.entries if not e.divisible_by_n]
    refined = [
        (e.n, e.divisible_by_n_over_sqrt_p)
        for e in report.entries
        if e.divisible_by_n_over_sqrt_p is not None
    ]
    verdict = "pass" if report.verdict else f"FAIL at n={fails}"
    extra = f" refined={refined}" if refined else ""
    print(
        f"{report.label:<28} order={report.group_order:<4} "
        f"c(omega)={report.c_omega:<3} {verdict}{extra}"
    )
    return report.verdict


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    t0 = time.perf_counter()
    print("== built-in families (expected: all pass) ==")
    family_ok = all(
        [survey_one(fam.build(*params)) for fam in FAMILIES.values() for params in fam.grid]
    )
    print("\n== cyclic groups with nontrivial cocycles ==")
    for big_n, r in CYCLIC_CASES:
        w = psi(big_n, r)
        survey_one(GTCategory(w.group, w, label=f"(Z{big_n},psi^{r})"))
    print(f"\nelapsed {time.perf_counter() - t0:.1f}s")
    return 0 if family_ok else 1


if __name__ == "__main__":
    sys.exit(main())
