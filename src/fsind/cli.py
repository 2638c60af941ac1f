"""Command-line front end.

Subcommands:
    group      indicators of a plain group algebra
    gt         brute-force indicators of a (group, cocycle) pair
    family     closed-form indicators of a built-in family, with --check
    table27    the dimension-27 family table (n = 1, 3, 9, 27)
    frobenius  divisibility analysis over all divisors of the group order
    gauss      direct vs closed-form quadratic Gauss sums

Each subcommand returns one Output (its JSON record, text lines, CSV rows and
exit code), and main writes it in the chosen --format.

Exit codes: 0 success, 2 parse error, 3 invalid cocycle, 4 Frobenius
failure, 5 closed-form/brute-force mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass

from .cyclotomic import divisors, gauss_sum_closed, gauss_sum_direct
from .groups import SpecError, parse_group_spec, spec_int
from .cocycles import CocycleError, parse_cocycle_spec
from .extensions import GTCategory, parse_family_spec, split_family_spec
from .indicators import frobenius_check, nu_brute, nu_group_algebra, nu_hn3_closed, nu_literal

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_COCYCLE = 3
EXIT_FROBENIUS = 4
EXIT_MISMATCH = 5

# The most n values one --n list may hold, counted before any is made; also
# the largest gauss modulus, refused before its m terms are summed
MAX_N_VALUES = 100_000


def parse_n_list(text, group_order=None):
    """Parse `1,2,3`, ranges `1..27` and `all-divisors`: MAX_N_VALUES values at most."""
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if item == "all-divisors":
            if group_order is None:
                raise SpecError("all-divisors needs a group context")
            values = divisors(group_order)
        elif ".." in item:
            lo, _, hi = item.partition("..")
            lo_i, hi_i = (spec_int(end, "bad range {!r}", item) for end in (lo, hi))
            if lo_i > hi_i or lo_i < 1:
                raise SpecError(f"bad range {item!r}")
            # cut one past the cap, so a longer range is refused below
            values = range(lo_i, min(hi_i, lo_i + MAX_N_VALUES) + 1)
        else:
            values = [spec_int(item, "bad n value {!r}", item)]
        if len(out) + len(values) > MAX_N_VALUES:
            raise SpecError(f"an n list may hold at most {MAX_N_VALUES} values")
        out.extend(values)
    if not out or any(n < 1 for n in out):
        raise SpecError(f"invalid n list {text!r}")
    return list(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# output


@dataclass
class Output:
    """What a subcommand prints: its JSON record, text lines, CSV rows (header
    first) and exit code."""

    record: dict
    text: list
    table: list
    code: int = EXIT_OK


def write(out, fmt, stream):
    if fmt == "json":
        json.dump(out.record, stream, indent=2, sort_keys=True)
        stream.write("\n")
    elif fmt == "csv":
        csv.writer(stream).writerows(out.table)
    else:
        stream.writelines(line + "\n" for line in out.text)


VALUE_COLUMNS = ["n", "value", "approx_re", "approx_im", "method"]


def _value_row(n, value, method):
    return {"n": n, "value": value.to_json_dict(), "text": value.render_text(), "method": method}


def _csv_row(row):
    approx = row["value"]["approx"]
    return [row["n"], row["text"], approx["re"], approx["im"], row["method"]]


def _verdict_line(ok):
    return f"verdict: {'pass' if ok else 'FAIL'}"


def _indicators(args, order, evaluate, **record):
    """Output of group, gt and family: evaluate(n) -> (value, method), timed,
    for each n of args.n."""
    rows = record["results"] = []
    text = [f"# {record['title']}"]
    for n in parse_n_list(args.n, order):
        t0 = time.perf_counter()
        value, method = evaluate(n)
        elapsed = time.perf_counter() - t0
        row = _value_row(n, value, method)
        if not args.stable:
            row["elapsed_ms"] = round(elapsed * 1000.0, 3)
        rows.append(row)
        approx = row["value"]["approx"]
        text.append(
            f"nu_{n} = {row['text']}  (~{approx['re']:.6g}{approx['im']:+.6g}i)  [{method}]"
        )
    return Output(record, text, [VALUE_COLUMNS, *map(_csv_row, rows)])


def _gt_category(group_spec, cocycle_spec):
    grp = parse_group_spec(group_spec)
    cocycle = parse_cocycle_spec(cocycle_spec, grp)
    return GTCategory(grp, cocycle, label=f"({grp.label},{cocycle.label})")


# ---------------------------------------------------------------------------
# subcommands


def cmd_group(args):
    grp = parse_group_spec(args.spec)
    return _indicators(
        args,
        grp.order,
        lambda n: (nu_group_algebra(grp, n), "torsion-count"),
        command="group",
        title=f"group algebra of {grp.label} (order {grp.order})",
        params={"spec": args.spec, "order": grp.order},
    )


def cmd_gt(args):
    cat = _gt_category(args.group, args.cocycle)
    return _indicators(
        args,
        cat.group.order,
        lambda n: (nu_brute(cat, n), "brute"),
        command="gt",
        title=f"{cat.group.label} with {cat.omega.label}",
        params={"group": args.group, "cocycle": args.cocycle},
    )


def cmd_family(args):
    fam, params = split_family_spec(args.spec)
    cat = fam.build(*params)
    mismatches = []

    def evaluate(n):
        if fam.closed is None:  # checked against the direct sum, the oracle engine
            value, method, name = nu_brute(cat, n), "brute", "brute"
            oracle, oracle_name = nu_literal, "literal"
        else:
            value, method, name = fam.closed(*params, n), "closed-form", "closed"
            oracle, oracle_name = nu_brute, "brute"
        if args.check:
            ref = oracle(cat, n)
            if value != ref:
                mismatches.append(
                    f"mismatch at n={n}: {name}={value.render_text()} "
                    f"{oracle_name}={ref.render_text()}"
                )
            method += "+checked"
        return value, method

    out = _indicators(
        args,
        cat.group.order,
        evaluate,
        command="family",
        title=cat.label,
        params={"spec": args.spec, "order": cat.group.order},
    )
    if args.check:
        out.record["verdict"] = not mismatches
        if mismatches:
            out.record["lines"] = mismatches
            out.code = EXIT_MISMATCH
        out.text += [*mismatches, _verdict_line(not mismatches)]
    return out


def _power_name(j):
    return "1" if j == 0 else ("b" if j == 1 else f"b^{j}")


def cmd_table27(args):
    results = []
    text = ["H                nu_1  nu_3        nu_9  nu_27"]
    table = [["row", "nu_1", "nu_3", "nu_9", "nu_27"]]
    for j in (0, 1, 2):
        for i in (0, 1):
            label = f"H27({_power_name(i)},{_power_name(j)})"
            values = [nu_hn3_closed(3, i, (-j) % 3, n) for n in (1, 3, 9, 27)]
            for n, v in zip((1, 3, 9, 27), values):
                results.append(
                    {"row": label, "n": n, "value": v.to_json_dict(), "text": v.render_text()}
                )
            cells = [v.render_text() for v in values]
            table.append([label, *cells])
            if values[1].conductor != 1:
                # nu_3 as 3(5 + 4b^k) or 3(5 - 2b^k), b^k the third root in the closed form
                cells[1] = f"3(5 {'+ 4' if i == 0 else '- 2'}{_power_name((-j) % 3)})"
            text.append(f"{label:<16} {cells[0]:<5} {cells[1]:<11} {cells[2]:<5} {cells[3]}")
    return Output({"command": "table27", "results27": results}, text, table)


def cmd_frobenius(args):
    if args.family:
        if args.cocycle is not None:
            raise SpecError("--cocycle goes with --group, not --family")
        cat = parse_family_spec(args.family)
    else:
        cat = _gt_category(args.group, args.cocycle or "trivial")
    report = frobenius_check(cat)
    title = (
        f"Frobenius divisibility for {report.label} "
        f"(order {report.group_order}, c(omega)={report.c_omega})"
    )
    lines = []
    entries = []
    table = [["n", "value", "divisible_by_n", "p", "divisible_by_n_over_sqrt_p"]]
    for e in report.entries:
        row = _value_row(e.n, e.value, "brute")
        row.update(
            divisible_by_n=e.divisible_by_n,
            p=e.p,
            divisible_by_n_over_sqrt_p=e.divisible_by_n_over_sqrt_p,
        )
        entries.append(row)
        table.append([e.n, row["text"], e.divisible_by_n, e.p, e.divisible_by_n_over_sqrt_p])
        extra = f"  ({e.note})" if e.note else ""
        if e.divisible_by_n_over_sqrt_p is not None:
            extra = f"  n/sqrt({e.p}): {'ok' if e.divisible_by_n_over_sqrt_p else 'FAIL'}"
        flag = "ok" if e.divisible_by_n else "FAIL"
        lines.append(f"n={e.n}: nu={row['text']}  n|nu: {flag}{extra}")
    record = {
        "command": "frobenius",
        "title": title,
        "params": {"c_omega": report.c_omega, "order": report.group_order},
        "entries": entries,
        "lines": lines,
        "verdict": report.verdict,
    }
    return Output(
        record,
        [f"# {title}", *lines, _verdict_line(report.verdict)],
        table,
        EXIT_OK if report.verdict else EXIT_FROBENIUS,
    )


def cmd_gauss(args):
    if args.m > MAX_N_VALUES:
        raise SpecError(f"the gauss modulus may be at most {MAX_N_VALUES}")
    direct = gauss_sum_direct(args.a, args.m)
    closed = gauss_sum_closed(args.a, args.m)
    equal = direct == closed
    title = f"S({args.a}, {args.m})"
    rows = [_value_row(args.m, direct, "direct"), _value_row(args.m, closed, "closed")]
    record = {
        "command": "gauss",
        "title": title,
        "params": {"a": args.a, "m": args.m},
        "results": rows,
        "verdict": equal,
    }
    return Output(
        record,
        [f"{title} {row['method']} = {row['text']}" for row in rows] + [_verdict_line(equal)],
        [VALUE_COLUMNS, *map(_csv_row, rows)],
        EXIT_OK if equal else EXIT_MISMATCH,
    )


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
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--family")
    target.add_argument("--group")
    p.add_argument("--cocycle", help="with --group (default trivial)")
    common(p)
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("gauss", help="quadratic Gauss sum, both evaluations")
    p.add_argument("a", type=int)
    p.add_argument("m", type=int)
    common(p)
    p.set_defaults(func=cmd_gauss)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches our parse-error code
        return int(exc.code or 0)
    try:
        out = args.func(args)
        write(out, args.format, sys.stdout)
    except CocycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COCYCLE
    except (ValueError, OSError) as exc:  # SpecError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return out.code


if __name__ == "__main__":
    sys.exit(main())
