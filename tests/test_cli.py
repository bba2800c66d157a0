"""The command-line surface: exit codes, CSV and JSON shapes, byte-level
determinism, and the documented error mapping."""

import argparse
import collections
import csv
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import datetime
from fractions import Fraction
from pathlib import Path

import pytest

import tauchar
from tauchar import cli, dirichlet, sieves
from tauchar.cli import _int_like, _rational, main
from tauchar.curves import ShortIntervalInstance, decompose_short_interval
from tauchar.roots import integer_nth_root


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, summary, data = {}, {}, []
    for line in text.splitlines():
        if line.startswith("# meta "):
            k, _, v = line[len("# meta ") :].partition("=")
            meta[k] = v
        elif line.startswith("# summary "):
            k, _, v = line[len("# summary ") :].partition("=")
            summary[k] = v
        elif line.startswith("#"):
            continue
        else:
            data.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(data))))
    return meta, summary, rows[0], rows[1:]


def test_verify_single_modulus_passes(capsys):
    code, out, err = run(
        ["verify", "--q", "5", "--limit", "2000", "--no-timestamp"], capsys
    )
    assert code == 0
    meta, summary, header, rows = parse_csv(out)
    assert header == ["check", "q", "limit", "ok", "first_mismatch"]
    assert meta["subcommand"] == "verify"
    assert meta["q"] == "5"
    assert summary["all_pass"] == "true"
    names = [r[0] for r in rows]
    assert "square_root_floor" in names
    assert "cube_root_floor" in names
    assert "fifth_power_mobius_floor" in names
    assert all(r[3] == "true" for r in rows)
    assert all(r[4] == "" for r in rows)


def test_verify_all_q_covers_small_moduli(capsys):
    code, out, _ = run(
        ["verify", "--all-q", "12", "--limit", "1500", "--no-timestamp"], capsys
    )
    assert code == 0
    _, _, _, rows = parse_csv(out)
    qs = {r[1] for r in rows if r[1]}
    assert qs == {"3", "5", "7", "11"}


def test_verify_rejects_non_prime_modulus(capsys):
    code, _, err = run(["verify", "--q", "4"], capsys)
    assert code == 2
    assert "argument error" in err


def test_verify_requires_exactly_one_modulus_selector(capsys):
    assert run(["verify"], capsys)[0] == 2
    assert run(["verify", "--q", "5", "--all-q", "10"], capsys)[0] == 2


def test_verify_budget_exceeded_is_resource_exit(capsys):
    code, _, err = run(["verify", "--q", "5", "--limit", "2e8"], capsys)
    assert code == 3
    assert "resource/precision" in err


@pytest.mark.parametrize("cmd", ["verify", "constants"])
def test_all_q_beyond_prime_budget_is_resource_exit(cmd, capsys):
    # listing the moduli is itself a sieve and must respect the budget
    code, _, err = run([cmd, "--all-q", "1e9", "--no-timestamp"], capsys)
    assert code == 3
    assert "prime sieve" in err


def test_constants_log_branch_row(capsys):
    code, out, _ = run(
        [
            "constants",
            "--q",
            "7",
            "--tolerance",
            "1e-3",
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    _, _, header, rows = parse_csv(out)
    assert header[:5] == ["q", "branch", "sub_branch", "first_exponent", "main_kind"]
    row = dict(zip(header, rows[0]))
    assert row["branch"] == "pm1_mod8"
    assert row["sub_branch"] == "pm7_mod24"
    assert row["first_exponent"] == "2"
    assert row["main_kind"] == "x_log_x"
    lead = float(row["leading_coefficient"])
    assert abs(lead - 0.454) < 2e-3
    assert float(row["leading_error"]) < 2e-3
    brk = float(row["bracket_constant"])
    assert abs(brk - 0.784) < 5e-3
    # 17-significant-digit cells round-trip exactly
    assert format(lead, ".17g") == row["leading_coefficient"]


def test_constants_exact_branch_row(capsys):
    code, out, _ = run(["constants", "--q", "3", "--no-timestamp"], capsys)
    assert code == 0
    _, _, header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["main_kind"] == "exact_cuberoot"
    assert float(row["leading_coefficient"]) == 1.0
    assert float(row["leading_error"]) == 0.0
    assert row["bracket_constant"] == ""


def test_constants_bound_only_branch_row(capsys):
    code, out, _ = run(["constants", "--q", "19", "--no-timestamp"], capsys)
    assert code == 0
    _, _, header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["main_kind"] == "upper_bound_only"
    assert row["leading_coefficient"] == ""


def test_constants_unreachable_tolerance_is_resource_exit(capsys):
    code, _, err = run(
        ["constants", "--q", "7", "--tolerance", "1e-30"],
        capsys,
    )
    assert code == 3
    assert "resource/precision" in err


def test_constants_sqrt_branch_unmet_tolerance_is_resource_exit(capsys):
    code, _, err = run(
        ["constants", "--q", "13", "--tolerance", "1e-30"],
        capsys,
    )
    assert code == 3
    assert "resource/precision" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "0"])
def test_constants_non_positive_tolerance_is_usage_error(tol, capsys):
    # a usage error, not a certified precision that missed the tolerance
    code, _, err = run(["constants", "--q", "7", "--tolerance", tol], capsys)
    assert code == 2
    assert "tolerance must be positive" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_constants_infinite_tolerance_is_usage_error(fmt, capsys):
    # an infinite tolerance gates nothing, and JSON has no infinity
    code, out, err = run(
        ["constants", "--q", "7", "--tolerance", "inf", "--format", fmt], capsys
    )
    assert code == 2
    assert out == ""
    assert "tolerance must be positive and finite" in err


def test_trace_exact_branch(capsys):
    code, out, _ = run(
        ["trace", "--q", "3", "--checkpoints", "1024,2048", "--no-timestamp"], capsys
    )
    assert code == 0
    meta, summary, header, rows = parse_csv(out)
    assert header == ["x", "value", "main", "residual", "normalized", "main_error"]
    assert summary["main_kind"] == "exact_cuberoot"
    assert meta["checkpoints"] == "1024,2048"
    assert [r[0] for r in rows] == ["1024", "2048"]
    assert int(rows[0][1]) == integer_nth_root(1024, 3)
    assert int(rows[1][1]) == integer_nth_root(2048, 3)


def test_trace_multiple_alphas_extend_header(capsys):
    code, out, _ = run(
        [
            "trace",
            "--q",
            "3",
            "--checkpoints",
            "1024,4096",
            "--alphas",
            "0.34,0.5",
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    _, _, header, rows = parse_csv(out)
    assert header == [
        "x",
        "value",
        "main",
        "residual",
        "normalized",
        "normalized2",
        "main_error",
    ]
    x, v, r, n1, n2 = (
        int(rows[1][0]),
        int(rows[1][1]),
        float(rows[1][3]),
        float(rows[1][4]),
        float(rows[1][5]),
    )
    assert n1 == pytest.approx(r / x**0.34)
    assert n2 == pytest.approx(r / x**0.5)


def test_trace_usage_errors(capsys):
    assert run(["trace", "--q", "3", "--max", "512"], capsys)[0] == 2
    assert run(["trace", "--q", "13", "--max", "1e18"], capsys)[0] == 3
    assert run(["trace", "--q", "3", "--checkpoints", "2048,1024"], capsys)[0] == 2
    nan_alpha = ["trace", "--q", "13", "--max", "1e5", "--alphas", "nan"]
    assert run(nan_alpha, capsys)[0] == 2


def test_short_interval_summary_matches_library(capsys):
    code, out, _ = run(
        ["short-interval", "--x", "100000", "--y", "300", "--no-timestamp"], capsys
    )
    assert code == 0
    meta, summary, header, rows = parse_csv(out)
    assert header == [
        "window_base",
        "n_lo",
        "n_hi",
        "delta",
        "window_double",
        "near_curve_count",
    ]
    rep = decompose_short_interval(
        ShortIntervalInstance(Fraction(100000), Fraction(300))
    )
    assert int(summary["short_sum"]) == rep.short_sum
    assert int(summary["total_double"]) == rep.total_double
    assert int(summary["n_max"]) == rep.n_max
    assert summary["y_within_11_20"] in ("true", "false")
    assert len(rows) == len(rep.rows)


def test_short_interval_accepts_rational_arguments(capsys):
    code, out, _ = run(
        ["short-interval", "--x", "1999/2", "--y", "101/2", "--no-timestamp"], capsys
    )
    assert code == 0
    meta, _, _, _ = parse_csv(out)
    assert meta["x"] == "1999/2"


def test_short_interval_rejects_oversized_window(capsys):
    code, _, err = run(["short-interval", "--x", "100", "--y", "101"], capsys)
    assert code == 2


def test_near_curve_adds_shape_columns(capsys):
    code, out, _ = run(
        ["near-curve", "--x", "100000", "--y", "300", "--no-timestamp"], capsys
    )
    assert code == 0
    _, summary, header, rows = parse_csv(out)
    assert header[-4:] == ["shape", "shape_value", "ratio", "ft_condition_ok"]
    assert "assembled_bound" in summary
    shapes = {r[6] for r in rows}
    assert shapes <= {"fifth_derivative", "filaseta_trifonov", "first_derivative"}



def test_near_curve_beyond_the_sieve_budget(capsys):
    # the short sum factors only the few d of the enumerated pairs, so no
    # table to sqrt(x + y) caps the scan
    code, out, _ = run(
        ["near-curve", "--x", "1e16", "--y", "1e9", "--no-timestamp"], capsys
    )
    assert code == 0
    _, summary, _, _ = parse_csv(out)
    assert abs(int(summary["short_sum"])) <= int(summary["total_double"])


def test_near_curve_beyond_exact_divisor_sum_is_resource_exit(capsys):
    # the trivial bound's D(x + y) refuses x + y above MAX_EXACT_X = 2^57
    code, _, err = run(["near-curve", "--x", "2e17", "--y", "1e9"], capsys)
    assert code == 3
    assert "MAX_EXACT_X" in err

def test_rh_diagnostic_rows(capsys):
    code, out, _ = run(
        ["rh-diagnostic", "--q", "19", "--checkpoints", "1024,2048", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    _, _, header, rows = parse_csv(out)
    assert header == ["x", "value", "ratio_unconditional", "ratio_conditional"]
    assert len(rows) == 2
    assert float(rows[0][2]) >= 0.0


def test_rh_diagnostic_wrong_branch_is_usage_error(capsys):
    assert run(["rh-diagnostic", "--q", "7", "--checkpoints", "1024"], capsys)[0] == 2


@pytest.mark.parametrize("c", ["1e6", "inf"])
def test_rh_diagnostic_degenerate_envelope_is_usage_error(c, capsys):
    # at c = 1e6 exp(-c ...) underflows to 0.0, and the ratio would divide by it
    code, out, err = run(["rh-diagnostic", "--q", "19", "--max", "1e5", "--c", c], capsys)
    assert code == 2
    assert out == ""
    assert "argument error" in err


def test_json_document_shape(capsys):
    code, out, _ = run(
        [
            "verify",
            "--q",
            "5",
            "--limit",
            "1500",
            "--format",
            "json",
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"metadata", "rows", "summary"}
    assert doc["metadata"]["subcommand"] == "verify"
    assert doc["metadata"]["q"] == 5
    assert doc["summary"]["all_pass"] is True
    assert isinstance(doc["summary"]["checks"], int)
    for row in doc["rows"]:
        assert set(row) == {"check", "q", "limit", "ok", "first_mismatch"}
        assert row["ok"] is True
        assert row["first_mismatch"] is None
        assert isinstance(row["limit"], int)


def test_json_rationals_serialize_as_strings(capsys):
    code, out, _ = run(
        [
            "short-interval",
            "--x",
            "1999/2",
            "--y",
            "101/2",
            "--format",
            "json",
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["x"] == "1999/2"
    assert doc["metadata"]["c3"] == "1/4"


def test_no_timestamp_output_is_byte_identical(capsys):
    argv = ["verify", "--q", "3", "--limit", "1200", "--no-timestamp"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2
    argv_json = argv + ["--format", "json"]
    _, out3, _ = run(argv_json, capsys)
    _, out4, _ = run(argv_json, capsys)
    assert out3 == out4


def test_timestamp_present_by_default(capsys):
    _, out, _ = run(["constants", "--q", "3"], capsys)
    meta, _, _, _ = parse_csv(out)
    assert "timestamp" in meta


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        ["constants", "--q", "3", "--no-timestamp", "--output", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# meta subcommand=constants")


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    # a missing directory and a directory as the file: exit 2, no traceback
    for target in (tmp_path / "missing" / "out.csv", tmp_path):
        code, out, err = run(
            ["constants", "--q", "7", "--no-timestamp", "--output", str(target)],
            capsys,
        )
        assert code == 2, err
        assert out == ""
        assert err.startswith(f"tauchar: argument error: cannot write --output {target}")
    assert not (tmp_path / "missing").exists()


def test_unwritable_output_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    def handler(args):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, "_cmd_verify", handler)
    for target in (tmp_path / "missing" / "out.csv", tmp_path):
        code, out, err = run(
            ["verify", "--all-q", "60", "--limit", "1e6", "--output", str(target)], capsys
        )
        assert code == 2, err
        assert out == ""
        assert err.startswith(f"tauchar: argument error: cannot write --output {target}")


def test_failed_run_leaves_the_output_file_untouched(tmp_path, capsys):
    # the check opens nothing; a run that fails after it writes nothing
    target = tmp_path / "report.csv"
    target.write_text("kept\n")
    code, out, err = run(
        ["constants", "--q", "13", "--tolerance", "1e-30", "--output", str(target)], capsys
    )
    assert code == 3, err
    assert target.read_text() == "kept\n"


def test_output_does_not_depend_on_the_host(monkeypatch, capsys):
    argv = ["constants", "--q", "3", "--no-timestamp"]
    outs = []
    for cpus in (1, 64):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for fmt in ("csv", "json"):
            outs.append(run(argv + ["--format", fmt], capsys)[1])
    assert outs[:2] == outs[2:]


@pytest.mark.parametrize("cmd", ["constants", "trace"])
def test_help_lists_only_what_changes_the_result(cmd, capsys):
    with pytest.raises(SystemExit) as info:
        main([cmd, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "--no-timestamp" in out
    assert "--prime-cutoff" not in out
    assert "--jobs" not in out


def outcome(call, capsys):
    """(exit code or return value, stdout, stderr) of call()."""
    try:
        code = call()
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# sha256 of f"{code}\n{stdout}\0{stderr}" when every subparser was built on
# every run, with COLUMNS=80, on Python 3.11's argparse
PARSER_DIGESTS = {
    (): "d04308dc71f96c2d4182b23b8bb6574abe5d93edb9c035071b99471fdd80a3dd",
    ("--help",): "94f82a3152df69b240662a2bbc0fd99687779fe68bb0c30a3eacff772098acd6",
    ("bogus",): "dc04f1766b7da05a3534031e0cd9d1a6e3ea4cfa28508618bce7cc8c6b3b95c1",
    ("trace", "--help"): "3c3e8dd0a74aec3487d9b209181d999c3caa07aaa39d5d36d559065972389ddb",
}


def test_one_subparser_parses_as_all_six(monkeypatch, capsys):
    # a named subcommand builds only its own parser; the listing, the
    # missing command and an unknown one build all six
    monkeypatch.setenv("COLUMNS", "80")
    built = []

    def counted(name, add):
        return lambda p: built.append(name) or add(p)

    monkeypatch.setattr(cli, "_SUBCOMMANDS", {
        name: (help_line, counted(name, add), handler)
        for name, (help_line, add, handler) in cli._SUBCOMMANDS.items()
    })
    for argv, digest in PARSER_DIGESTS.items():
        argv = list(argv)
        code, out, err = outcome(lambda: main(argv), capsys)
        if sys.version_info[:2] == (3, 11):
            text = f"{code}\n{out}\0{err}"
            assert hashlib.sha256(text.encode()).hexdigest() == digest, argv
        assert built == (argv[:1] if argv[:1] == ["trace"] else list(cli._SUBCOMMANDS))
        built.clear()
    # errors past the subcommand still print the top-level usage of all six
    for argv in (["trace", "--help"], ["verify", "--bogus"], ["trace"],
                 ["near-curve", "--x", "1e8"], ["verify", "trace"]):
        assert outcome(lambda: main(argv), capsys) == outcome(
            lambda: cli._build_parser([]).parse_args(argv), capsys), argv


def test_broken_pipe_is_a_quiet_resource_exit(monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    argv = ["trace", "--q", "13", "--max", "1e5", "--no-timestamp"]
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == cli.EXIT_RESOURCE
    assert capsys.readouterr().err == ""
    # a pipe whose reader is gone: its descriptor is pointed at devnull, so
    # a later flush, as the interpreter's at exit, raises nothing
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == cli.EXIT_RESOURCE
        stdout.write("after the reader left\n")
        stdout.flush()
    assert capsys.readouterr().err == ""


def test_prime_cutoff_is_accepted_and_ignored(capsys):
    argv = ["constants", "--q", "7", "--no-timestamp"]
    outs = [run(argv + extra, capsys) for extra in
            ([], ["--prime-cutoff", "100"], ["--prime-cutoff", "4e8"])]
    assert outs[0][0] == 0
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_argparse_level_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["short-interval", "--y", "10"])  # missing required --x
    assert info.value.code == 2
    # "--limit=-inf": a bare "-inf" would parse as an unknown option
    for bad in (
        ["--q", "abc"],
        ["--q", "5", "--limit", "inf"],
        ["--q", "5", "--limit=-inf"],
    ):
        with pytest.raises(SystemExit) as info:
            main(["verify", *bad])
        assert info.value.code == 2


def test_int_like_parses_exactly():
    assert [_int_like(s) for s in ("1e4", "1e7", "2e4", "20000")] == [
        10**4, 10**7, 2 * 10**4, 2 * 10**4,
    ]
    # a double would give 12345678901234567168 and 10^17
    assert _int_like("12345678901234567891e0") == 12345678901234567891
    assert _int_like("1.00000000000000001e17") == 10**17 + 1
    # rejected; 1e999999999 before Fraction would spend minutes on 10^999999999
    for bad in ("1.5", "inf", "-inf", "nan", "1e-2", "1e999999999", "abc"):
        with pytest.raises(argparse.ArgumentTypeError):
            _int_like(bad)


def test_rational_rejects_huge_exponents_at_once(capsys):
    assert [_rational(s) for s in ("3/4", "2.5", "1e6", "-7")] == [
        Fraction(3, 4), Fraction(5, 2), Fraction(10**6), Fraction(-7),
    ]
    for bad in ("1e10000", "2.5E-99999", "abc", "1/0"):
        with pytest.raises(argparse.ArgumentTypeError):
            _rational(bad)
    # Fraction('1e999999999') would build 10^999999999 before any range check
    for flag in ("--x", "--y", "--c3"):
        argv = {"--x": "1e8", "--y": "4170", flag: "1e999999999"}
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(["near-curve", *[a for kv in argv.items() for a in kv]])
        assert info.value.code == 2
        assert time.perf_counter() - t0 < 2.0
    assert "exponent too large" in capsys.readouterr().err


def test_fast_runs_emit_no_progress_noise(capsys):
    _, _, err = run(["verify", "--q", "3", "--limit", "1200"], capsys)
    assert err == ""


# The benchmark's seed-0 commands.  Every digest was recorded with the
# metadata lines kernel_backend=, jobs= and prime_cutoff= deleted, which
# nothing in the result depended on.  The constants digest was taken from
# the per-sigma zeta route that the shared zeta ladder replaced; the verify
# and near-curve digests from the sieved Euler-factor expansions that the
# powerful walk replaced.  The trace digest is of the exact least-squares
# fitted_exponent, which moved the last digits of that one line; every other
# line is pinned below by a digest taken from the numpy array route that the
# streamed walk replaced.
TRACE_ARGV = ["trace", "--q", "13", "--max", "10000000", "--prime-cutoff", "30000000"]
PINNED_OUTPUTS = [
    (
        ["constants", "--all-q", "60", "--prime-cutoff", "10000000", "--tolerance", "2e-4"],
        "67e66d8dc0ac2c3febccb8e6c8d12749147139729b5574be09ebfbb560aec1dc",
    ),
    (
        TRACE_ARGV,
        "b5462e780ef26779726918fc6c470bfaf9eb31ed6c3e78ca2b5e2592eed8c5bb",
    ),
    (
        ["verify", "--all-q", "60", "--limit", "20000"],
        "01d40a7ad679b19bebd17bcdc302f784c2d55c9ba523789e11d4993feb158ad2",
    ),
    (
        ["verify", "--all-q", "60", "--limit", "1e5"],
        "c5c6302a4752e575138d1a28fde56575193dc6a35365d7c368507d1a35b8eecd",
    ),
    (
        ["near-curve", "--x", "1e13", "--y", "3e6"],
        "8adcbb3c6a253b115d7cfdcec4eb29b3f38024c07f31cc167e37210d87c538b7",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    PINNED_OUTPUTS,
    ids=["constants", "trace", "verify", "verify-1e5", "near-curve"],
)
def test_benchmark_outputs_are_pinned(argv, digest, capsys):
    code, out, _ = run(argv + ["--no-timestamp"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_trace_data_rows_are_pinned(capsys):
    code, out, _ = run(TRACE_ARGV + ["--no-timestamp"], capsys)
    assert code == 0
    kept = [line for line in out.splitlines(keepends=True)
            if not line.startswith("# summary fitted_exponent=")]
    assert len(kept) == len(out.splitlines()) - 1
    digest = "13a7e336b3ef953ef7a78ebc70e735cbe811551f144e0ecc4f21b4e0ac1ed99b"
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == digest


def inverse_order(limit, c, what="sieve"):
    """r when c is the row of the inverse r-th power indicator, c[r] = -1
    and every other c[e >= 1] = 0; None for any other table."""
    nonzero = [e for e in range(1, len(c)) if c[e]]
    return nonzero[0] if len(nonzero) == 1 and c[nonzero[0]] == -1 else None


def test_verify_builds_each_shared_table_once(monkeypatch, capsys):
    # one store serves the three scans and the 16 moduli: tau, each power
    # indicator, each character and the two inverses are built once a run
    built = collections.Counter()

    def spy(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            k = key(*args)
            if k is not None:
                built[name, k] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    for module in (sieves, dirichlet):
        spy(module, "divisor_count_sieve", lambda limit: limit)
    spy(dirichlet, "power_indicator_series", lambda r, limit: r)
    spy(dirichlet, "tau_char_sieve", lambda q, limit, tau=None: q)
    spy(dirichlet, "multiplicative_series", inverse_order)
    code, _, _ = run(["verify", "--all-q", "60", "--limit", "2e4"], capsys)
    assert code == 0
    qs = [q for q in range(3, 61, 2) if all(q % p for p in range(3, q, 2))]
    want = {("divisor_count_sieve", 20000): 1,
            ("multiplicative_series", 2): 1, ("multiplicative_series", 4): 1}
    want.update({("power_indicator_series", r): 1 for r in [2, 4] + qs})
    want.update({("tau_char_sieve", q): 1 for q in qs})
    assert dict(built) == want


_FRESH_MAIN = """
import sys
from tauchar import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as e:
    code = e.code
print(*sorted(sys.modules), file=sys.stderr)
sys.exit(code)
"""


def _fresh_run(args):
    """A new interpreter on args, with this checkout's tauchar importable."""
    env = dict(os.environ)
    src = str(Path(tauchar.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


@functools.cache
def _bare_modules():
    """The modules a bare interpreter has loaded before running any code."""
    proc = _fresh_run(["-c", "import sys; print(*sorted(sys.modules))"])
    return frozenset(proc.stdout.split())


def fresh(argv):
    """Run the CLI in a new interpreter: (exit code, stdout, the modules it
    loaded beyond those of a bare interpreter)."""
    proc = _fresh_run(["-c", _FRESH_MAIN, *argv])
    loaded = frozenset(proc.stderr.splitlines()[-1].split())
    return proc.returncode, proc.stdout, loaded - _bare_modules()


@pytest.mark.parametrize(
    "argv", [["--help"], ["constants", "--all-q", "60", "--no-timestamp"]]
)
def test_help_and_constants_never_load_numpy(argv):
    code, out, added = fresh(argv)
    assert code == 0 and out
    assert "numpy" not in added


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["verify", "--all-q", "60", "--limit", "2000"],
        ["near-curve", "--x", "1e8", "--y", "4170"],
        ["short-interval", "--x", "1e8", "--y", "4170"],
        ["rh-diagnostic", "--q", "19", "--max", "1e5"],
        ["constants", "--all-q", "60"],
        ["trace", "--q", "13", "--max", "1e5"],
        ["trace", "--q", "7", "--max", "1e5"],
    ],
    ids=["help", "verify", "near-curve", "short-interval", "rh-diagnostic",
         "constants", "trace-13", "trace-7"],
)
def test_exact_commands_never_load_mpmath(argv):
    # the certified constants are integer enclosures: no command loads mpmath
    code, out, added = fresh(argv)
    assert code == 0 and out
    assert "mpmath" not in added


@functools.cache
def _every_module_imported():
    """The modules a fresh interpreter holds once it has imported every
    tauchar module."""
    proc = _fresh_run(["-c", (
        "import importlib, pkgutil, sys, tauchar\n"
        "for m in pkgutil.walk_packages(tauchar.__path__, 'tauchar.'):\n"
        "    importlib.import_module(m.name)\n"
        "print(*sorted(sys.modules))\n"
    )])
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


def test_no_module_imports_mpmath():
    # every tauchar module, imported in a fresh process, leaves mpmath out
    assert "mpmath" not in _every_module_imported()


def test_no_module_imports_dataclasses():
    # the records are NamedTuples or slotted classes: dataclasses, which
    # pulls in inspect, ast and dis, stays unloaded
    loaded = _every_module_imported()
    assert "tauchar.summatory" in loaded and "tauchar.curves" in loaded
    assert "dataclasses" not in loaded


def test_help_imports_only_cli_and_errors():
    code, out, added = fresh(["--help"])
    assert code == 0 and out.startswith("usage: tauchar")
    assert {m for m in added if m.startswith("tauchar")} == {
        "tauchar", "tauchar.cli", "tauchar.errors"
    }
    assert not added & {"dataclasses", "json", "csv", "datetime", "fractions"}


@pytest.mark.parametrize(
    "argv,unused",
    [
        (["constants", "--all-q", "60"], {"dataclasses", "json", "datetime", "numpy"}),
        (["trace", "--q", "13", "--max", "1e6"],
         {"dataclasses", "json", "datetime", "numpy"}),
        # numpy loads datetime; the identity scans live in dirichlet
        (["verify", "--all-q", "60", "--limit", "1e4"],
         {"dataclasses", "json", "tauchar.summatory"}),
        # D(x + y) - D(x) is a _kernels pass and the budget check is arith's
        (["near-curve", "--x", "1e8", "--y", "4170"],
         {"tauchar.summatory", "tauchar.cases", "tauchar.sieves",
          "tauchar.constants", "dataclasses", "json"}),
    ],
    ids=["constants", "trace", "verify", "near-curve"],
)
def test_reference_commands_import_only_what_they_run(argv, unused):
    code, out, added = fresh(argv + ["--no-timestamp"])
    assert code == 0 and out
    assert not added & unused


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writers_and_timestamp_import_what_they_use(fmt):
    # json, csv and datetime are imported only where they are used, so the
    # writer and the timestamp must work in a process that loaded none
    code, out, added = fresh(["constants", "--q", "7", "--format", fmt])
    assert code == 0
    if fmt == "json":
        stamp = json.loads(out)["metadata"]["timestamp"]
    else:
        stamp = parse_csv(out)[0]["timestamp"]
    assert datetime.fromisoformat(stamp).tzinfo is not None
    assert {fmt, "datetime"} <= added


@pytest.mark.parametrize(
    "argv,loads_numpy",
    [
        (["trace", "--q", "13", "--max", "1e6"], False),
        (["trace", "--q", "11", "--max", "1e6"], False),
        (["rh-diagnostic", "--q", "19", "--max", "1e6"], False),
        (["trace", "--q", "7", "--max", "1e6"], True),
    ],
    ids=["trace-13", "trace-11", "rh-diagnostic-19", "trace-7"],
)
def test_pm3_mod8_summatory_never_loads_numpy(argv, loads_numpy):
    # q = +-3 (mod 8) sums only the walk; q = 7 needs D(y) and its tables
    code, out, added = fresh(argv)
    assert code == 0 and out
    assert ("numpy" in added) is loads_numpy


def test_constants_row_does_not_depend_on_the_other_moduli():
    # q = 59 alone grows the half-line ladder in one step; --all-q 60 grows it
    # modulus by modulus, after q = 11, 13 and 37
    _, alone, _ = fresh(["constants", "--q", "59", "--no-timestamp"])
    _, together, _ = fresh(["constants", "--all-q", "60", "--no-timestamp"])
    rows = parse_csv(together)[3]
    assert parse_csv(alone)[3] == [r for r in rows if r[0] == "59"]
