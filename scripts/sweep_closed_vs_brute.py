#!/usr/bin/env python3
"""Sweep every built-in family over its default grid (FAMILIES in
fsind.extensions), comparing three engines for each indicator: the closed
form, the order-profile engine (nu_brute) and the term-by-term sum
(nu_literal).  Print a per-family summary table; a disagreement names the
engine that differs from the other two.

Usage:
    python scripts/sweep_closed_vs_brute.py
"""

from __future__ import annotations

import argparse
import sys
import time

from fsind.cyclotomic import divisors
from fsind.extensions import FAMILIES
from fsind.indicators import nu_brute, nu_literal

ENGINES = ("closed", "profile", "literal")


def odd_one_out(values):
    """The engine whose value differs from the other two, or 'all' when no
    two agree."""
    for i, name in enumerate(ENGINES):
        rest = values[:i] + values[i + 1:]
        if rest[0] == rest[1] != values[i]:
            return name
    return "all"


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    total = mismatches = 0
    t0 = time.perf_counter()
    for fam in FAMILIES.values():
        for params in fam.grid:
            cat = fam.build(*params)
            n_values = divisors(cat.group.order)
            bad = []
            for n in n_values:
                total += 1
                values = (fam.closed(*params, n), nu_brute(cat, n), nu_literal(cat, n))
                if not values[0] == values[1] == values[2]:
                    mismatches += 1
                    bad.append((n, odd_one_out(values), *(v.render_text() for v in values)))
            status = "ok" if not bad else f"MISMATCH {bad}"
            print(
                f"{fam.spec(params):<22} order={cat.group.order:<4} "
                f"n-values={len(n_values):<3} {status}"
            )
    elapsed = time.perf_counter() - t0
    print(f"\n{total} comparisons, {mismatches} mismatches, {elapsed:.1f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
