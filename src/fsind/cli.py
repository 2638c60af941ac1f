"""Command-line front end.

Subcommands:
    group      indicators of a plain group algebra
    gt         brute-force indicators of a (group, cocycle) pair
    family     closed-form indicators of a built-in family, with --check
    table27    the dimension-27 family table (n = 1, 3, 9, 27)
    frobenius  divisibility analysis over all divisors of the group order
    gauss      direct vs closed-form quadratic Gauss sums

Exit codes: 0 success, 2 parse error, 3 invalid cocycle, 4 Frobenius
failure, 5 closed-form/brute-force mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .cyclotomic import divisors, gauss_sum_closed, gauss_sum_direct
from .groups import SpecError, parse_group_spec, spec_int
from .cocycles import CocycleError, parse_cocycle_spec, verify_cocycle
from .extensions import GTCategory, parse_family_spec, split_family_spec
from .indicators import frobenius_check, nu_brute, nu_group_algebra, nu_hn3_closed

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_COCYCLE = 3
EXIT_FROBENIUS = 4
EXIT_MISMATCH = 5


def parse_n_list(text, group_order=None):
    """Parse `1,2,3`, ranges `1..27`, and the keyword `all-divisors`."""
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if item == "all-divisors":
            if group_order is None:
                raise SpecError("all-divisors needs a group context")
            out.extend(divisors(group_order))
        elif ".." in item:
            lo, _, hi = item.partition("..")
            lo_i, hi_i = (spec_int(end, f"bad range {item!r}") for end in (lo, hi))
            if lo_i > hi_i or lo_i < 1:
                raise SpecError(f"bad range {item!r}")
            out.extend(range(lo_i, hi_i + 1))
        else:
            out.append(spec_int(item, f"bad n value {item!r}"))
    if not out or any(n < 1 for n in out):
        raise SpecError(f"invalid n list {text!r}")
    seen = set()
    uniq = []
    for n in out:
        if n not in seen:
            seen.add(n)
            uniq.append(n)
    return uniq


# ---------------------------------------------------------------------------
# output formatting


def _result_row(n, value, method, elapsed, stable):
    row = {
        "n": n,
        "value": value.to_json_dict(),
        "text": value.render_text(),
        "method": method,
    }
    if not stable:
        row["elapsed_ms"] = round(elapsed * 1000.0, 3)
    return row


def emit(record, fmt, stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(record, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return
    results = record.get("results", [])
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(["n", "value", "approx_re", "approx_im", "method"])
        for row in results:
            approx = row["value"]["approx"]
            writer.writerow(
                [row["n"], row["text"], approx["re"], approx["im"], row["method"]]
            )
        return
    # text
    header = record.get("title") or record.get("command", "")
    if header:
        stream.write(f"# {header}\n")
    for row in results:
        approx = row["value"]["approx"]
        stream.write(
            f"nu_{row['n']} = {row['text']}"
            f"  (~{approx['re']:.6g}{approx['im']:+.6g}i)  [{row['method']}]\n"
        )
    for line in record.get("lines", []):
        stream.write(line + "\n")
    if "verdict" in record:
        stream.write(f"verdict: {'pass' if record['verdict'] else 'FAIL'}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_group(args):
    grp = parse_group_spec(args.spec)
    n_list = parse_n_list(args.n, grp.order)
    results = []
    for n in n_list:
        t0 = time.perf_counter()
        value = nu_group_algebra(grp, n)
        results.append(
            _result_row(n, value, "torsion-count", time.perf_counter() - t0, args.stable)
        )
    emit(
        {
            "command": "group",
            "title": f"group algebra of {grp.label} (order {grp.order})",
            "params": {"spec": args.spec, "order": grp.order},
            "results": results,
        },
        args.format,
    )
    return EXIT_OK


def cmd_gt(args):
    grp = parse_group_spec(args.group)
    cocycle = parse_cocycle_spec(args.cocycle, grp)
    if args.verify and not args.cocycle.startswith("file:"):  # a file is verified on load
        report = verify_cocycle(cocycle)
        if not report.ok:
            raise CocycleError(str(report))
    cat = GTCategory(grp, cocycle, label=f"({grp.label},{cocycle.label})")
    n_list = parse_n_list(args.n, grp.order)
    results = []
    for n in n_list:
        t0 = time.perf_counter()
        value = nu_brute(cat, n)
        results.append(
            _result_row(n, value, "brute", time.perf_counter() - t0, args.stable)
        )
    emit(
        {
            "command": "gt",
            "title": f"{grp.label} with {cocycle.label}",
            "params": {"group": args.group, "cocycle": args.cocycle},
            "results": results,
        },
        args.format,
    )
    return EXIT_OK


def cmd_family(args):
    fam, params = split_family_spec(args.spec)
    cat = fam.build(*params)
    n_list = parse_n_list(args.n, cat.group.order)
    results = []
    mismatch = None
    for n in n_list:
        t0 = time.perf_counter()
        if fam.closed is None:
            value = nu_brute(cat, n)
            method = "brute"
        else:
            value = fam.closed(*params, n)
            method = "closed-form"
        if args.check:
            brute = nu_brute(cat, n)
            if value != brute:
                mismatch = (n, value, brute)
            method += "+checked"
        results.append(
            _result_row(n, value, method, time.perf_counter() - t0, args.stable)
        )
    record = {
        "command": "family",
        "title": cat.label,
        "params": {"spec": args.spec, "order": cat.group.order},
        "results": results,
    }
    if args.check:
        record["verdict"] = mismatch is None
        if mismatch is not None:
            n, closed_v, brute_v = mismatch
            record["lines"] = [
                f"mismatch at n={n}: closed={closed_v.render_text()} "
                f"brute={brute_v.render_text()}"
            ]
    emit(record, args.format)
    if mismatch is not None:
        return EXIT_MISMATCH
    return EXIT_OK


def _power_name(j):
    return "1" if j == 0 else ("b" if j == 1 else f"b^{j}")


def _table27_cell_text(i, j, value):
    """Compact g(x + y*b^k) rendering for the dimension-27 table column n=3."""
    if value.conductor == 1:
        return str(value.as_int())
    power = (-j) % 3  # exponent of the third root appearing in the closed form
    if i == 0:
        return f"3(5 + 4{_power_name(power)})"
    return f"3(5 - 2{_power_name(power)})"


def cmd_table27(args):
    rows = []
    results = []
    for j in (0, 1, 2):
        for i in (0, 1):
            label = f"H27({_power_name(i)},{_power_name(j)})"
            values = [nu_hn3_closed(3, i, (-j) % 3, n) for n in (1, 3, 9, 27)]
            rows.append((label, (i, j), values))
            for n, v in zip((1, 3, 9, 27), values):
                results.append(
                    {
                        "row": label,
                        "n": n,
                        "value": v.to_json_dict(),
                        "text": v.render_text(),
                    }
                )
    if args.format == "json":
        emit({"command": "table27", "results27": results}, "json")
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["row", "nu_1", "nu_3", "nu_9", "nu_27"])
        for label, _, values in rows:
            writer.writerow([label] + [v.render_text() for v in values])
    else:
        print("H                nu_1  nu_3        nu_9  nu_27")
        for label, (i, j), values in rows:
            cells = [
                str(values[0].as_int()),
                _table27_cell_text(i, j, values[1]),
                str(values[2].as_int()),
                str(values[3].as_int()),
            ]
            print(f"{label:<16} {cells[0]:<5} {cells[1]:<11} {cells[2]:<5} {cells[3]}")
    return EXIT_OK


def _target_category(args):
    if args.family:
        return parse_family_spec(args.family)
    if not args.group:
        raise SpecError("frobenius needs --family or --group")
    grp = parse_group_spec(args.group)
    cocycle = parse_cocycle_spec(args.cocycle or "trivial", grp)
    return GTCategory(grp, cocycle, label=f"({grp.label},{cocycle.label})")


def cmd_frobenius(args):
    report = frobenius_check(_target_category(args))
    lines = []
    results = []
    for e in report.entries:
        flag = "ok" if e.divisible_by_n else "FAIL"
        extra = ""
        if e.divisible_by_n_over_sqrt_p is not None:
            extra = (
                f"  n/sqrt({e.p}): "
                + ("ok" if e.divisible_by_n_over_sqrt_p else "FAIL")
            )
        elif e.note:
            extra = f"  ({e.note})"
        lines.append(f"n={e.n}: nu={e.value.render_text()}  n|nu: {flag}{extra}")
        results.append(
            {
                "n": e.n,
                "value": e.value.to_json_dict(),
                "text": e.value.render_text(),
                "divisible_by_n": e.divisible_by_n,
                "p": e.p,
                "divisible_by_n_over_sqrt_p": e.divisible_by_n_over_sqrt_p,
                "method": "brute",
            }
        )
    record = {
        "command": "frobenius",
        "title": f"Frobenius divisibility for {report.label} "
        f"(order {report.group_order}, c(omega)={report.c_omega})",
        "params": {"c_omega": report.c_omega, "order": report.group_order},
        "entries": results,
        "lines": lines,
        "verdict": report.verdict,
    }
    if args.format == "json":
        emit(record, "json")
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "value", "divisible_by_n", "p", "divisible_by_n_over_sqrt_p"])
        for r in results:
            writer.writerow(
                [r["n"], r["text"], r["divisible_by_n"], r["p"], r["divisible_by_n_over_sqrt_p"]]
            )
    else:
        emit({"title": record["title"], "lines": lines, "verdict": record["verdict"], "results": []}, "text")
    return EXIT_OK if report.verdict else EXIT_FROBENIUS


def cmd_gauss(args):
    direct = gauss_sum_direct(args.a, args.m)
    closed = gauss_sum_closed(args.a, args.m)
    equal = direct == closed
    record = {
        "command": "gauss",
        "title": f"S({args.a}, {args.m})",
        "params": {"a": args.a, "m": args.m},
        "results": [
            _result_row(args.m, direct, "direct", 0.0, True),
            _result_row(args.m, closed, "closed", 0.0, True),
        ],
        "verdict": equal,
    }
    if args.format == "text":
        print(f"S({args.a}, {args.m}) direct = {direct.render_text()}")
        print(f"S({args.a}, {args.m}) closed = {closed.render_text()}")
        print(f"verdict: {'pass' if equal else 'FAIL'}")
    else:
        emit(record, args.format)
    return EXIT_OK if equal else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fsind",
        description="Exact Frobenius-Schur indicators of group-theoretical categories",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--stable", action="store_true", help="omit timing fields")

    p = sub.add_parser("group", help="group-algebra indicators")
    p.add_argument("spec")
    p.add_argument("--n", required=True)
    common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("gt", help="brute-force indicators for group + cocycle")
    p.add_argument("--group", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--verify", action="store_true", help="verify the cocycle first")
    common(p)
    p.set_defaults(func=cmd_gt)

    p = sub.add_parser("family", help="closed-form family indicators")
    p.add_argument("spec")
    p.add_argument("--n", required=True)
    p.add_argument("--check", action="store_true", help="cross-check with brute force")
    common(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("table27", help="dimension-27 indicator table")
    common(p)
    p.set_defaults(func=cmd_table27)

    p = sub.add_parser("frobenius", help="Frobenius divisibility analysis")
    p.add_argument("--family")
    p.add_argument("--group")
    p.add_argument("--cocycle")
    common(p)
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("gauss", help="quadratic Gauss sum, both evaluations")
    p.add_argument("a", type=int)
    p.add_argument("m", type=int)
    common(p)
    p.set_defaults(func=cmd_gauss)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches our parse-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CocycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COCYCLE
    except (ValueError, OSError) as exc:  # SpecError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
