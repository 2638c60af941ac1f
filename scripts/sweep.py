#!/usr/bin/env python3
"""Sweep every built-in family over its default grid (FAMILIES in
fsind.extensions) in one pass.  Each category is built and analysed by
frobenius_check once; each entry's nu_n (the order-profile engine) is
compared with the closed form and the term-by-term sum (nu_literal), and a
disagreement names the engine that differs from the other two.  The same
entries decide Frobenius divisibility (n | nu_n).  Then the cyclic
(Z_N, psi^r) counterexamples are analysed.

Exits 1 on any engine mismatch or any family category that fails
divisibility; the cyclic cases fail by design and do not set the exit code.

Usage:
    python scripts/sweep.py
"""

from __future__ import annotations

import argparse
import sys
import time

from fsind.cocycles import psi
from fsind.extensions import FAMILIES, GTCategory
from fsind.indicators import frobenius_check, nu_literal

ENGINES = ("closed", "profile", "literal")
CYCLIC_CASES = [(2, 1), (3, 1), (4, 1), (5, 1), (9, 3), (13, 1), (15, 1)]


def odd_one_out(values):
    """The engine whose value differs from the other two, or 'all' when no
    two agree."""
    for i, name in enumerate(ENGINES):
        rest = values[:i] + values[i + 1:]
        if rest[0] == rest[1] != values[i]:
            return name
    return "all"


def divisibility(report):
    """c(omega), the verdict on n | nu_n and the sqrt(p)-refined results."""
    fails = [e.n for e in report.entries if not e.divisible_by_n]
    refined = [(e.n, e.divisible_by_n_over_sqrt_p) for e in report.entries
               if e.divisible_by_n_over_sqrt_p is not None]
    verdict = "pass" if report.verdict else f"FAIL at n={fails}"
    extra = f" refined={refined}" if refined else ""
    return f"c(omega)={report.c_omega:<3} {verdict}{extra}"


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    total = mismatches = 0
    family_ok = True
    t0 = time.perf_counter()
    print("== built-in families: closed vs profile vs literal, n | nu_n ==")
    for fam in FAMILIES.values():
        for params in fam.grid:
            cat = fam.build(*params)
            report = frobenius_check(cat)
            bad = []
            for e in report.entries:
                values = (fam.closed(*params, e.n), e.value, nu_literal(cat, e.n))
                if not values[0] == values[1] == values[2]:
                    bad.append((e.n, odd_one_out(values), *(v.render_text() for v in values)))
            total += len(report.entries)
            mismatches += len(bad)
            family_ok = family_ok and report.verdict
            status = "ok" if not bad else f"MISMATCH {bad}"
            print(
                f"{fam.spec(params):<22} {report.label:<28} order={report.group_order:<4} "
                f"n-values={len(report.entries):<3} {status} {divisibility(report)}"
            )
    print("\n== cyclic groups with nontrivial cocycles ==")
    for big_n, r in CYCLIC_CASES:
        w = psi(big_n, r)
        report = frobenius_check(GTCategory(w.group, w, label=f"(Z{big_n},psi^{r})"))
        print(f"{report.label:<28} order={report.group_order:<4} {divisibility(report)}")
    print(f"\n{total} comparisons, {mismatches} mismatches, {time.perf_counter() - t0:.1f}s")
    return 1 if mismatches or not family_ok else 0


if __name__ == "__main__":
    sys.exit(main())
