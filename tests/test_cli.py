"""Command-line interface: parsing, output formats, exit codes."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsind import cli, cocycles
from fsind.cocycles import verify_cocycle
from fsind.cyclotomic import divisors, gauss_sum_closed
from fsind.extensions import FAMILIES, h2n2_pair
from fsind.groups import BicrossedGroup
from fsind.indicators import nu_brute
from fsind.cli import (
    EXIT_COCYCLE,
    EXIT_FROBENIUS,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    MAX_N_VALUES,
    SpecError,
    main,
    parse_n_list,
)


# family specs for the fuzz test: a registry kind or junk, then 0-5 fields
# from -2..4 and non-numeric tokens (half the draws take the kind's own field
# count, so the builders are reached); parameters of at most 4 keep every
# group that gets built at order 64 or below
_FIELD = st.sampled_from([*map(str, range(-2, 5)), "", "x", "1.5"])


def _fields(kind):
    arity = len(FAMILIES[kind].fields) if kind in FAMILIES else 2
    return st.lists(_FIELD, max_size=5) | st.lists(_FIELD, min_size=arity, max_size=arity)


FAMILY_SPECS = st.sampled_from([*FAMILIES, "", "junk", "H2N2"]).flatmap(
    lambda kind: _fields(kind).map(lambda fields: ":".join([kind, *fields]))
)


# file bodies for the fuzz tests: a header `order M` (or junk), then `width`
# lines of `width` tokens (or lines of any number of tokens), three tokens in
# four in 0..M-1 and the rest negative, too large, junk or a header word; M of
# at most 4 keeps every table and cocycle check cheap
_JUNK = st.sampled_from(["-1", "5", "", "x", "1.5", "order"])


def _body(order, width):
    valid = st.sampled_from([str(v) for v in range(order)])
    token = st.one_of(valid, valid, valid, _JUNK)
    line = st.lists(token, min_size=width, max_size=width) | st.lists(token, max_size=5)
    lines = st.lists(line, min_size=width, max_size=width) | st.lists(line, max_size=width + 1)
    junk_header = st.lists(token, max_size=2).map(lambda words: ["order", *words])
    header = st.just(["order", str(order)]) | junk_header
    return st.tuples(header, lines).map(
        lambda parts: "\n".join(" ".join(words) for words in [parts[0], *parts[1]]) + "\n"
    )


# pair-file bodies for the fuzz test: F and G lines naming groups of order at
# most 4 (or junk), then action sections of |G| rows of |F| tokens drawn like
# the table tokens above; or free lines mixing all of these.  Every bicrossed
# product that gets built has order 16 or below.
_PAIR_GROUPS = {"cyclic:1": 1, "cyclic:2": 2, "cyclic:3": 3, "dihedral:4": 4}
_PAIR_GROUP = st.sampled_from([*_PAIR_GROUPS, "cyclic:0", "cyclic:x", "junk"])


def _pair_section(name, rows, width, bound):
    valid = st.sampled_from([str(v) for v in range(bound)])
    token = st.one_of(valid, valid, valid, _JUNK)
    row = st.lists(token, min_size=width, max_size=width).map(" ".join)
    return st.lists(row, min_size=rows, max_size=rows).map(lambda body: [name, *body])


def _pair_sections(f_spec, g_spec):
    nf, ng = _PAIR_GROUPS[f_spec], _PAIR_GROUPS[g_spec]
    left = st.just([]) | _pair_section("act_left", ng, nf, nf)
    right = st.just([]) | _pair_section("act_right", ng, nf, ng)
    return st.tuples(left, right).map(
        lambda parts: [f"F {f_spec}", f"G {g_spec}", *parts[0], *parts[1]]
    )


_PAIR_LINE = st.one_of(
    st.tuples(st.sampled_from(["F", "G", "H", "act_left"]), _PAIR_GROUP).map(" ".join),
    st.sampled_from(["act_left", "act_right", "act_right 1"]),
    st.lists(st.sampled_from(["0", "1", "2", "3", "-1", "x"]), max_size=5).map(" ".join),
)
PAIR_BODIES = st.one_of(
    st.tuples(st.sampled_from(list(_PAIR_GROUPS)), st.sampled_from(list(_PAIR_GROUPS)))
    .flatmap(lambda specs: _pair_sections(*specs)),
    st.lists(_PAIR_LINE, max_size=8),
).map(lambda lines: "\n".join(lines) + "\n")

# every value in range and every identity row and column right, but both
# elements of order 3 in Z_3 invert Z_4, so the actions are not compatible
INCOMPATIBLE_PAIR = "F cyclic:4\nG cyclic:3\nact_left\n0 1 2 3\n0 3 2 1\n0 3 2 1\n"


def run_on_file(argv, body):
    """main(argv with {path} replaced by a file holding body): (code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "body.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(path=path) for arg in argv])
    return code, err.getvalue()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNListParsing:
    def test_commas_and_ranges(self):
        assert parse_n_list("1,2,3") == [1, 2, 3]
        assert parse_n_list("1..5") == [1, 2, 3, 4, 5]
        assert parse_n_list("2,4..6,9") == [2, 4, 5, 6, 9]

    def test_deduplication_keeps_order(self):
        assert parse_n_list("3,1..4,3") == [3, 1, 2, 4]

    def test_all_divisors(self):
        assert parse_n_list("all-divisors", group_order=12) == [1, 2, 3, 4, 6, 12]
        with pytest.raises(SpecError):
            parse_n_list("all-divisors")

    def test_rejects_garbage(self):
        for bad in ("", "0", "a", "3..1", "-2"):
            with pytest.raises(SpecError):
                parse_n_list(bad)

    def test_list_above_the_cap_is_refused_before_it_is_made(self, capsys):
        assert len(parse_n_list(f"1..{cli.MAX_N_VALUES}")) == cli.MAX_N_VALUES
        for text in (f"1..{cli.MAX_N_VALUES + 1}", f"5,1..{cli.MAX_N_VALUES}", f"1..{10**30}"):
            with pytest.raises(SpecError):
                parse_n_list(text)
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "gt", "--group", "cyclic:3", "--cocycle", "psi:1", "--n", "1..1000000000000"
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_PARSE and out == ""
        assert f"at most {cli.MAX_N_VALUES} values" in err and "Traceback" not in err


class TestGroupCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "group", "cyclic:6", "--n", "1,2,3,6")
        assert code == EXIT_OK
        assert "nu_6 = 6" in out

    def test_json_stable(self, capsys):
        code, out, _ = run(
            capsys, "group", "dihedral:8", "--n", "2", "--format", "json", "--stable"
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["results"][0]["text"] == "6"
        assert "elapsed_ms" not in record["results"][0]

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "group", "cyclic:4", "--n", "2,4", "--format", "csv"
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:2] == ["n", "value"]
        assert rows[1][1] == "2" and rows[2][1] == "4"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "group", "nonsense:4", "--n", "1")
        assert code == EXIT_PARSE
        assert "error" in err

    def test_order_above_the_cap_is_parse_error(self, capsys):
        code, out, err = run(capsys, "group", "cyclic:20000", "--n", "1")
        assert code == EXIT_PARSE
        assert "exceeds the limit" in err and "Traceback" not in err and out == ""

    def test_long_product_chain(self, capsys):
        # 2,000 factors: the chain is read in a loop, not one recursion a factor
        spec = "product:cyclic:1," * 1999 + "cyclic:1"
        code, out, err = run(capsys, "group", spec, "--n", "1", "--format", "json", "--stable")
        assert code == EXIT_OK and "Traceback" not in err
        assert json.loads(out)["params"]["order"] == 1

    def test_dihedral_above_the_cap_is_parse_error(self, capsys):
        code, out, err = run(capsys, "group", "dihedral:8000", "--n", "1")
        assert code == EXIT_PARSE
        assert "group order 8000 exceeds the limit" in err
        assert "Traceback" not in err and out == ""

    def test_table_file_errors_name_the_row(self, capsys, tmp_path):
        path = tmp_path / "table.txt"
        for body, expected in (
            ("order 2\n0 1\n1 x\n", "table row 1, column 1: expected an integer, got 'x'"),
            ("order x\n0\n", "table file header 'order N': expected an integer, got 'x'"),
        ):
            path.write_text(body)
            code, _, err = run(capsys, "group", f"table:{path}", "--n", "2")
            assert code == EXIT_PARSE
            assert expected in err and "Traceback" not in err

    def test_table_file_over_the_cap_is_refused_by_its_header(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("order 5000\n")
        code, out, err = run(capsys, "group", f"table:{path}", "--n", "1")
        assert code == EXIT_PARSE
        assert "group order 5000 exceeds the limit of 4096" in err
        assert "Traceback" not in err and out == ""

    def test_altered_table_is_rejected(self, capsys, tmp_path):
        # the order-338 bicrossed product of h2n2_pair(13) with entry
        # (155, 216) moved by 260: the former 100k-triple sampled
        # associativity check accepted it and printed nu_2 = 14
        grp = BicrossedGroup(h2n2_pair(13))
        n = grp.order
        rows = [[grp.mul(g, h) for h in range(n)] for g in range(n)]
        rows[155][216] = (rows[155][216] + 260) % n
        path = tmp_path / "altered.txt"
        path.write_text(f"order {n}\n" + "\n".join(" ".join(map(str, row)) for row in rows))
        code, out, err = run(capsys, "group", f"table:{path}", "--n", "2")
        assert code == EXIT_PARSE
        assert "not associative" in err and out == ""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: _body(n, n)))
    @example("order 1\n0\n")
    @example("order 2\n0 1\n1 0\n")
    @example("order 3\n0 1 2\n1 2 0\n2 0 1\n")
    @example("order 2\n0 1\n1 1\n")
    @example("order 3\n0 1 2\n1 0 1\n2 0 0\n")
    def test_table_file_fuzz_exits_cleanly(self, body):
        code, err = run_on_file(["group", "table:{path}", "--n", "1,2", "--stable"], body)
        assert code in (EXIT_OK, EXIT_PARSE), (body, code, err)
        assert "Traceback" not in err


class TestGtCommand:
    def test_brute_psi(self, capsys):
        code, out, _ = run(
            capsys, "gt", "--group", "cyclic:5", "--cocycle", "psi:1",
            "--n", "5", "--stable",
        )
        assert code == EXIT_OK
        assert "nu_5" in out and "[brute]" in out

    def test_verify_flag_is_refused(self, capsys):
        # psi and trivial are cocycles by construction and a file cocycle is
        # verified on load, so gt has no --verify; argparse refuses it
        argv = ["gt", "--group", "cyclic:4", "--cocycle", "psi:2", "--n", "2"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and "nu_2" in out
        code, out, err = run(capsys, *argv, "--verify")
        assert code == EXIT_PARSE and out == ""
        assert "unrecognized arguments: --verify" in err

    def test_verify_rejects_one_altered_value_on_z100(self, capsys, tmp_path):
        # a single entry at (1, 1, 22): the former 1M-quadruple sampled check
        # never met it, and printed nu_2 = 2 with exit 0
        path = tmp_path / "one-entry.txt"
        path.write_text("order 2\n1 1 22 1\n")
        code, out, err = run(
            capsys, "gt", "--group", "cyclic:100", "--cocycle", f"file:{path}", "--n", "2",
        )
        assert code == EXIT_COCYCLE
        assert "cocycle identity" in err and out == ""

    def test_verify_checks_a_file_cocycle_once(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counting(cocycle, *args, **kwargs):
            calls.append(cocycle)
            return verify_cocycle(cocycle, *args, **kwargs)

        monkeypatch.setattr(cocycles, "verify_cocycle", counting)
        path = tmp_path / "trivial.txt"
        path.write_text("order 2\n")
        code, _, _ = run(
            capsys, "gt", "--group", "cyclic:4", "--cocycle", f"file:{path}", "--n", "2",
        )
        assert code == EXIT_OK and len(calls) == 1

    def test_invalid_cocycle_spec(self, capsys):
        code, _, err = run(
            capsys, "gt", "--group", "dihedral:8", "--cocycle", "psi:1", "--n", "2"
        )
        assert code == EXIT_COCYCLE
        assert "cyclic" in err

    def test_broken_cocycle_file(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("order 4\n1 1 1 1\n")
        code, _, err = run(
            capsys, "gt", "--group", "cyclic:3",
            "--cocycle", f"file:{path}", "--n", "3",
        )
        assert code == EXIT_COCYCLE

    def test_malformed_cocycle_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "header-only.txt"
        path.write_text("order\n")
        code, _, err = run(
            capsys, "gt", "--group", "cyclic:3",
            "--cocycle", f"file:{path}", "--n", "3",
        )
        assert code == EXIT_PARSE
        assert "must start with 'order M'" in err

    def test_cocycle_file_error_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "cocycle.txt"
        path.write_text("order 3\n1 1 a 1\n")
        code, _, err = run(
            capsys, "gt", "--group", "cyclic:3", "--cocycle", f"file:{path}", "--n", "3"
        )
        assert code == EXIT_PARSE
        assert "cocycle file line 2, field k: expected an integer, got 'a'" in err
        assert "Traceback" not in err

    def test_cocycle_file_refuses_a_triple_given_twice(self, capsys, tmp_path):
        path = tmp_path / "cocycle.txt"
        path.write_text("order 3\n0 1 1 0\n1 1 1 0\n\n2 1 1 0\n1 2 1 0\n0 1 1 0\n")
        code, _, err = run(
            capsys, "gt", "--group", "cyclic:3", "--cocycle", f"file:{path}", "--n", "3"
        )
        assert code == EXIT_PARSE
        assert "cocycle file line 7: triple (0, 1, 1) is given twice" in err

    @settings(max_examples=200, deadline=None)
    @given(_body(3, 4))
    @example("order 3\n1 1 1 1\n")
    @example("order 3\n0 0 0 2\n")
    @example("order 3\n1 1 1 0\n1 1 1 0\n")
    def test_cocycle_file_fuzz_exits_cleanly(self, body):
        code, err = run_on_file(
            ["gt", "--group", "cyclic:3", "--cocycle", "file:{path}", "--n", "3", "--stable"],
            body,
        )
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_COCYCLE), (body, code, err)
        assert "Traceback" not in err

    def test_malformed_psi_power_is_parse_error(self, capsys):
        code, _, err = run(
            capsys, "gt", "--group", "cyclic:4", "--cocycle", "psi:x", "--n", "2"
        )
        assert code == EXIT_PARSE
        assert "psi expects" in err

    def test_psi_on_cyclic_product_matches_z6(self, capsys):
        texts = {}
        for group in ("product:cyclic:2,cyclic:3", "cyclic:6"):
            code, out, _ = run(
                capsys, "gt", "--group", group, "--cocycle", "psi:1", "--n", "1..6",
                "--format", "json", "--stable",
            )
            assert code == EXIT_OK, group
            texts[group] = [row["text"] for row in json.loads(out)["results"]]
        assert texts["product:cyclic:2,cyclic:3"] == texts["cyclic:6"]
        assert texts["cyclic:6"][5] == "0"


class TestFamilyCommand:
    def test_closed_with_check(self, capsys):
        code, out, _ = run(
            capsys, "family", "h2n2:3:1", "--n", "all-divisors",
            "--check", "--stable",
        )
        assert code == EXIT_OK
        assert "closed-form+checked" in out
        assert "verdict: pass" in out

    def test_check_reports_every_mismatch(self, capsys, monkeypatch):
        # a closed form that answers nu_1 at every n: wrong wherever nu_n != 1
        fam = FAMILIES["h2n2"]
        wrong = dataclasses.replace(fam, closed=lambda *params: fam.closed(*params[:-1], 1))
        monkeypatch.setitem(FAMILIES, "h2n2", wrong)
        cat = fam.build(3, 1)
        expected = [
            f"mismatch at n={n}: closed=1 brute={nu_brute(cat, n).render_text()}"
            for n in divisors(cat.group.order)
            if n > 1
        ]
        assert len(expected) == 5
        argv = ["family", "h2n2:3:1", "--n", "all-divisors", "--check", "--stable"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_MISMATCH
        assert [line for line in out.splitlines() if line.startswith("mismatch")] == expected
        assert out.endswith("verdict: FAIL\n")
        code, out, _ = run(capsys, *argv, "--format", "json")
        record = json.loads(out)
        assert code == EXIT_MISMATCH
        assert record["verdict"] is False and record["lines"] == expected

    def test_bismash_uses_brute(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("F cyclic:2\nG cyclic:3\n")
        code, out, _ = run(
            capsys, "family", f"bismash:{path}", "--n", "2,3,6", "--stable"
        )
        assert code == EXIT_OK
        assert "[brute]" in out
        assert "nu_6 = 6" in out

    def test_bismash_check_compares_brute_with_literal(self, capsys, monkeypatch, tmp_path):
        # without a closed form --check compares the profile engine with the
        # direct sum; an oracle that answers nu_1 at every n must be caught
        monkeypatch.setattr(cli, "nu_literal", lambda cat, n: nu_brute(cat, 1))
        path = tmp_path / "pair.txt"
        path.write_text("F cyclic:2\nG cyclic:3\n")
        code, out, _ = run(
            capsys, "family", f"bismash:{path}", "--n", "1,2,3,6", "--check", "--stable"
        )
        assert code == EXIT_MISMATCH
        assert [line for line in out.splitlines() if line.startswith("mismatch")] == [
            "mismatch at n=2: brute=2 literal=1",
            "mismatch at n=3: brute=3 literal=1",
            "mismatch at n=6: brute=6 literal=1",
        ]
        assert out.endswith("verdict: FAIL\n")

    def test_field_errors_name_the_fields(self, capsys):
        for spec, expected in (
            ("h2n2:3", "h2n2 expects N:xi"),
            ("suzukiP:2:two:1", "suzukiP expects N:L:beta"),
        ):
            code, _, err = run(capsys, "family", spec, "--n", "1")
            assert code == EXIT_PARSE
            assert expected in err

    def test_bismash_short_action_table(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("F cyclic:2\nG cyclic:3\nact_right\n0 1\n")
        code, _, err = run(capsys, "family", f"bismash:{path}", "--n", "1")
        assert code == EXIT_PARSE
        assert "act_right has 1 rows" in err and "Traceback" not in err

    def test_bismash_action_entry_out_of_range(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("F cyclic:2\nG cyclic:3\nact_right\n0 0\n1 3\n2 1\n")
        code, _, err = run(capsys, "family", f"bismash:{path}", "--n", "1")
        assert code == EXIT_PARSE
        assert "action g <| y at (g, y) = (1, 1) is 3, out of range 0..2" in err

    def test_bismash_action_entry_not_an_integer(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("F cyclic:2\nG cyclic:3\nact_right\n0 0\n1 x\n2 1\n")
        code, _, err = run(capsys, "family", f"bismash:{path}", "--n", "1")
        assert code == EXIT_PARSE
        assert "act_right row 1, column 1: expected an integer, got 'x'" in err

    def test_bismash_duplicate_declarations(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        for body, name in (
            ("F cyclic:2\nG cyclic:3\nF cyclic:3\n", "F"),
            ("F cyclic:2\nG cyclic:3\nact_right\n0 0\n1 1\n0 1\nact_right\n0 0\n0 0\n0 0\n",
             "act_right"),
        ):
            path.write_text(body)
            code, out, err = run(capsys, "family", f"bismash:{path}", "--n", "1")
            assert code == EXIT_PARSE and out == ""
            assert f"pair file declares {name} twice" in err

    def test_bismash_incompatible_actions(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text(INCOMPATIBLE_PAIR)
        code, out, err = run(capsys, "family", f"bismash:{path}", "--n", "1")
        assert code == EXIT_PARSE and out == ""
        assert "not a matched pair: (gh)|>y = g|>(h|>y) fails at (g, h, y) = (1, 1, 1)" in err
        assert "Traceback" not in err

    @settings(max_examples=200, deadline=None)
    @given(PAIR_BODIES)
    @example("F cyclic:3\nG cyclic:2\nact_left\n0 1 2\n0 2 1\n")
    @example("F cyclic:3\nG cyclic:2\nact_left\n0 1 2\n1 2 0\n")
    @example("F cyclic:2\nG cyclic:3\nact_right\n0 0\n1 2\n2 1\n")
    @example("F cyclic:2\nG cyclic:3\nact_right\n0 0\n1 2\n2 1\nF cyclic:3\n")
    @example("F cyclic:3\nG cyclic:2\nact_left\n0 1 2\n0 2 1\nG cyclic:3\n")
    @example("F cyclic:3\nG cyclic:2\nact_left\n0 1 2\n0 2\n")  # a short row
    @example("F cyclic:3\nG cyclic:2\nact_left\n0 1 2\n0 5 1\n")  # an entry out of range
    @example(INCOMPATIBLE_PAIR)
    @example("F cyclic:3\nG cyclic:2\nact_left\n0 1 2\n0 2 1\nact_left\n0 1 2\n0 1 2\n")
    def test_pair_file_fuzz_exits_cleanly(self, body):
        code, err = run_on_file(["family", "bismash:{path}", "--n", "1,2", "--stable"], body)
        assert code in (EXIT_OK, EXIT_PARSE), (body, code, err)
        assert "Traceback" not in err

    @settings(max_examples=300, deadline=None)
    @given(FAMILY_SPECS)
    @example("h2n2:4:-1")
    @example("hn3:3:4:-2")
    @example("suzuki:4:4:-1:-1")
    @example("suzukiP:4:4:-1")
    @example("suzuki:0:2:-1:1")
    @example("suzuki:-1:2:-1:1")
    def test_spec_fuzz_exits_cleanly(self, spec):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["family", spec, "--n", "1", "--stable"])
        assert code in (EXIT_OK, EXIT_PARSE), (spec, code, err.getvalue())

    def test_suzuki_n_below_one_names_n(self):
        for spec in ("suzuki:0:2:-1:1", "suzuki:-1:2:-1:1"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["family", spec, "--n", "1", "--stable"])
            assert code == EXIT_PARSE
            assert err.getvalue() == "error: N must be at least 1\n", spec


class TestTable27Command:
    EXPECTED_CELLS = {
        (0, 0): "27",
        (0, 1): "3(5 + 4b^2)",
        (0, 2): "3(5 + 4b)",
        (1, 0): "9",
        (1, 1): "3(5 - 2b^2)",
        (1, 2): "3(5 - 2b)",
    }

    def test_text_layout(self, capsys):
        code, out, _ = run(capsys, "table27")
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln.startswith("H27")]
        assert len(lines) == 6
        for line, (i, j) in zip(lines, [(i, j) for j in (0, 1, 2) for i in (0, 1)]):
            assert self.EXPECTED_CELLS[(i, j)] in line, line
            # nu_1 = 1 and nu_9 = nu_27 = 27 in every row
            cells = line.split()
            assert cells[1] == "1" and cells[-2] == "27" and cells[-1] == "27"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table27", "--format", "json")
        assert code == EXIT_OK
        record = json.loads(out)
        assert len(record["results27"]) == 24


class TestFrobeniusCommand:
    def test_family_pass(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--family", "suzuki:1:2:1:1")
        assert code == EXIT_OK
        assert "verdict: pass" in out

    def test_group_cocycle_failure_exit(self, capsys):
        code, out, _ = run(
            capsys, "frobenius", "--group", "cyclic:5", "--cocycle", "psi:1"
        )
        assert code == EXIT_FROBENIUS
        assert "FAIL" in out and "n/sqrt(5): ok" in out

    def test_missing_target(self, capsys):
        code, _, err = run(capsys, "frobenius")
        assert code == EXIT_PARSE

    def test_ambiguous_target(self, capsys):
        for argv in (
            ["--family", "h2n2:3:1", "--group", "cyclic:5"],
            ["--family", "h2n2:3:1", "--group", "cyclic:5", "--cocycle", "psi:1"],
            ["--family", "h2n2:3:1", "--cocycle", "psi:1"],
        ):
            code, out, err = run(capsys, "frobenius", *argv)
            assert code == EXIT_PARSE, argv
            assert out == "" and "Traceback" not in err

    def test_unknown_family_is_parse_error(self, capsys):
        code, _, err = run(capsys, "frobenius", "--family", "nope:1")
        assert code == EXIT_PARSE
        assert "unknown family" in err

    def test_malformed_group_is_parse_error(self, capsys):
        code, _, err = run(
            capsys, "frobenius", "--group", "cyclic:abc", "--cocycle", "psi:1"
        )
        assert code == EXIT_PARSE
        assert "cyclic expects" in err


class TestGaussCommand:
    def test_match(self, capsys):
        code, out, _ = run(capsys, "gauss", "1", "13")
        assert code == EXIT_OK
        assert "verdict: pass" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gauss", "3", "8", "--format", "json")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["verdict"] is True

    def test_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gauss_sum_closed", lambda a, m: -gauss_sum_closed(a, m))
        outs = {}
        for fmt in ("text", "csv", "json"):
            code, outs[fmt], _ = run(capsys, "gauss", "1", "13", "--format", fmt)
            assert code == EXIT_MISMATCH, fmt
        assert "verdict: FAIL" in outs["text"]
        assert json.loads(outs["json"])["verdict"] is False

    def test_modulus_at_the_cap(self, capsys):
        code, out, _ = run(capsys, "gauss", "1", str(MAX_N_VALUES), "--stable")
        assert code == EXIT_OK
        assert "verdict: pass" in out

    def test_modulus_above_the_cap_is_refused_before_any_sum(self, capsys, monkeypatch):
        def unreachable(a, m):
            raise AssertionError("summed a refused modulus")

        monkeypatch.setattr(cli, "gauss_sum_direct", unreachable)
        code, out, err = run(capsys, "gauss", "1", str(MAX_N_VALUES + 1))
        assert code == EXIT_PARSE
        assert f"the gauss modulus may be at most {MAX_N_VALUES}" in err
        assert "Traceback" not in err and out == ""


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code = main(["nonexistent"])
        capsys.readouterr()
        assert code == EXIT_PARSE

    def test_missing_required(self, capsys):
        code = main(["group"])
        capsys.readouterr()
        assert code == EXIT_PARSE


def test_process_exit_code():
    # a process, not main(): `python -m fsind.cli` ends in sys.exit(main()),
    # so the Frobenius failure of (Z_5, psi^1) is the process's exit code
    golden = Path(__file__).parent / "golden"
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["frobenius", "--group", "cyclic:5", "--cocycle", "psi:1", "--stable"]
    proc = subprocess.run(
        [sys.executable, "-m", "fsind.cli", *argv],
        cwd=golden, env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=60,
    )
    assert proc.returncode == EXIT_FROBENIUS, proc.stderr
    assert proc.stdout == (golden / "frobenius_cyclic_5_psi_1.text").read_bytes()
    assert proc.stderr == b""
