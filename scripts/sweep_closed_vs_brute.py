#!/usr/bin/env python3
"""Sweep every built-in family over its default grid (FAMILIES in
fsind.extensions), comparing closed-form indicators against brute-force
evaluation, and print a per-family summary table.

Usage:
    python scripts/sweep_closed_vs_brute.py
"""

from __future__ import annotations

import argparse
import sys
import time

from fsind.cyclotomic import divisors
from fsind.extensions import FAMILIES
from fsind.indicators import nu_brute


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
                want = fam.closed(*params, n)
                got = nu_brute(cat, n)
                if want != got:
                    mismatches += 1
                    bad.append((n, want.render_text(), got.render_text()))
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
