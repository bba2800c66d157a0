"""Command-line surface for the verification workbench.

Subcommands map one-to-one onto library workflows:

  verify          exact identity suite + factorization route checks
  constants       certified main-term constants for a modulus
  trace           summatory values against main terms along checkpoints
  short-interval  exact short-window sum and double-count decomposition
  near-curve      the same scan's report plus its derivative-test bound shapes
  rh-diagnostic   growth-envelope ratios for the no-main-term branch

short-interval and near-curve run the one scan, curves.range_scan, and
differ only in the columns and summary keys they print: each is the name
of a ScanRow or RangeScanReport field.

Every report takes one path.  A handler computes and returns its header,
rows, summary and exit code, plus only the metadata values it works out
itself: the checkpoint schedule of trace and rh-diagnostic, and trace's
exponents.  ``main`` alone reads the rest of the metadata from the
arguments that ``_SUBCOMMANDS`` names for the subcommand, and writes.

Output is CSV by default: '#'-prefixed metadata and summary lines, then a
mandatory header row, then data rows.  --format json nests the same content
under {"metadata", "rows", "summary"}.  Floats are serialized with 17
significant digits (JSON uses the shortest round-trip form, which is never
coarser); exact integers stay integers; exact rationals appear as "num/den"
strings.  With --no-timestamp, identical configurations produce
byte-identical output.

Exit codes: 0 all checks pass / report produced; 1 mathematical mismatch;
2 usage error; 3 resource or precision budget exceeded, or standard output
closed by its reader before the report was written (a broken pipe, as
under `| head`), which exits without a traceback.

A process imports only what its subcommand runs, and builds only that
subcommand's argument parser (all six for --help, no arguments or an
unknown command).  At the top level this
module imports argparse, os, sys, time and the package's ``errors``, so
--help loads no other package module.  Every other module is imported
where it is used: csv and json by the writer of that format, datetime
only for a timestamp, fractions by the rational parsers, and ``cases``
and the library modules inside the handlers.  No command loads mpmath:
the certified constants are fixed-point integer enclosures.  constants
loads no numpy, and verify, short-interval and near-curve do.
rh-diagnostic, whose moduli are all +-3 (mod 8), sums over the cube-full
numbers in pure Python, and trace loads numpy only for q = +-1 (mod 8),
where S(x) needs the divisor summatory function.

An --output target that cannot be written is refused before any work
runs; the file is opened, and so truncated, only once the report is ready.

Heavy subcommands print `# progress ...` lines to stderr at most once per
second.
"""

import argparse
import os
import sys
import time

from . import __version__
from .errors import (
    ArgumentError,
    OverflowHardError,
    PrecisionError,
    ResourceLimitError,
    TaucharError,
    UndecidablePointError,
)

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# keyed by the branch names, so that --help need not import cases
_KIND_BY_BRANCH = {
    "pm1_mod8": "x_log_x",
    "pm11_mod24": "sqrt_x",
    "q_equals_3": "exact_cuberoot",
    "pm5_mod24": "upper_bound_only",
}


def _exact(s: str, what: str):
    """The exact value of a spelling such as '3/4', '2.5' or '1e6'.

    Fraction builds 10^exponent in full, so exponents past four digits are
    rejected before it runs.
    """
    if len(s.lower().partition("e")[2].strip().lstrip("+-")) > 4:
        raise argparse.ArgumentTypeError(f"exponent too large in {s!r}")
    from fractions import Fraction

    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected {what}, got {s!r}")


def _int_like(s: str) -> int:
    """Integer argument, allowing exact float-style spellings like 1e7.

    Accepted only when the exact value is an integer: '1.00000000000000001e17'
    is 10^17 + 1, not a double's rounding of it, and '1.5', 'inf' and 'nan'
    are rejected.
    """
    v = _exact(s, "an integer")
    if v.denominator != 1:
        raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}")
    return int(v)


def _rational(s: str):
    """Exact rational argument: '3/4', '100', '2.5', '1e6' all work."""
    return _exact(s, "a rational number")


def _int_list(s: str) -> tuple[int, ...]:
    return tuple(_int_like(part) for part in s.split(",") if part.strip())


def _float_list(s: str) -> tuple[float, ...]:
    return tuple(float(part) for part in s.split(",") if part.strip())


def _cell(v) -> str:
    """One CSV cell; deterministic, locale-free."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _json_value(v):
    from fractions import Fraction

    return str(v) if isinstance(v, Fraction) else v


class _Progress:
    """Rate-limited machine-readable progress lines on the diagnostic stream."""

    def __init__(self, label: str):
        self.label = label
        self.t0 = time.monotonic()
        self.last = self.t0

    def __call__(self, stage: str, done: int, total: int) -> None:
        now = time.monotonic()
        if now - self.last < 1.0:
            return
        self.last = now
        print(
            f"# progress cmd={self.label} stage={stage} done={done} "
            f"total={total} elapsed={now - self.t0:.1f}s",
            file=sys.stderr,
            flush=True,
        )


def _emit(args, meta: dict, header: list[str], rows: list, summary: dict | None):
    def write(out):
        if args.format == "json":
            import json

            doc = {
                "metadata": {k: _json_value(v) for k, v in meta.items()},
                "rows": [
                    {k: _json_value(v) for k, v in zip(header, row)} for row in rows
                ],
            }
            if summary is not None:
                doc["summary"] = {k: _json_value(v) for k, v in summary.items()}
            json.dump(doc, out, indent=2)
            out.write("\n")
            return
        for k, v in meta.items():
            out.write(f"# meta {k}={_cell(v)}\n")
        if summary is not None:
            for k, v in summary.items():
                out.write(f"# summary {k}={_cell(v)}\n")
        import csv

        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(c) for c in row])

    if args.output:
        try:
            f = open(args.output, "w", newline="")
        except OSError as e:
            raise ArgumentError(
                f"cannot write --output {args.output}: {e.strerror}"
            ) from None
        with f:
            write(f)
    else:
        write(sys.stdout)


def _check_output(path: str | None) -> None:
    """Refuse an --output target that cannot be written, without touching it.

    _emit's own OSError handler stays the backstop for a target that
    changes between this check and the write.
    """
    if path is None:
        return
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ArgumentError(f"cannot write --output {path}: not a writable file path")


def _moduli(args) -> list[int]:
    """The moduli of --q or --all-q, each classified before any heavy run."""
    if (args.q is None) == (args.all_q is None):
        raise ArgumentError("pass exactly one of --q or --all-q")
    if args.q is not None:
        qs = [args.q]
    else:
        from .powerful import prime_list

        qs = prime_list(args.all_q)[1:]
    if not qs:
        raise ArgumentError(f"no odd prime moduli at or below {args.all_q}")
    from .cases import classify

    for q in qs:
        classify(q)
    return qs


def _cmd_verify(args):
    from .dirichlet import (
        Tables,
        cube_root_identity_scan,
        fifth_power_identity_scan,
        square_root_identity_scan,
        verify_factorization,
    )

    qs = _moduli(args)
    progress = _Progress("verify")
    # one store for the run: the scans and every modulus share its tables
    tables = Tables(args.limit)

    rows = []
    scans = [
        ("square_root_floor", "", square_root_identity_scan),
        ("cube_root_floor", 3, cube_root_identity_scan),
        ("fifth_power_mobius_floor", 5, fifth_power_identity_scan),
    ]
    for i, (name, q_tag, fn) in enumerate(scans):
        miss = fn(args.limit, tables)
        rows.append([name, q_tag, args.limit, miss is None, miss])
        progress("identity", i + 1, len(scans))
    for q in {3, 5}.difference(qs):  # the scans' series no modulus reads
        tables.release(q)
    for i, q in enumerate(qs):
        rep = verify_factorization(q, args.limit, tables)
        for route in rep.routes:
            rows.append([route.name, q, args.limit, route.ok, route.first_mismatch])
        progress("factorization", i + 1, len(qs))

    all_ok = all(r[3] for r in rows)
    summary = {"all_pass": all_ok, "checks": len(rows)}
    header = ["check", "q", "limit", "ok", "first_mismatch"]
    return header, rows, summary, EXIT_PASS if all_ok else EXIT_MISMATCH, {}


def _cmd_constants(args):
    from .constants import main_term_params

    qs = _moduli(args)
    progress = _Progress("constants")

    rows = []
    for i, q in enumerate(qs):
        params = main_term_params(q, tol=args.tolerance)
        case = params.case
        lead = params.leading_coefficient
        bracket = params.bracket_constant
        rows.append(
            [
                q,
                case.branch.value,
                case.sub.value if case.sub else None,
                case.log_factor_start
                if case.log_factor_start is not None
                else case.sqrt_factor_start,
                _KIND_BY_BRANCH[case.branch.value],
                lead.value if lead else None,
                lead.error if lead else None,
                bracket.value if bracket else None,
                bracket.error if bracket else None,
            ]
        )
        progress("modulus", i + 1, len(qs))

    header = [
        "q",
        "branch",
        "sub_branch",
        "first_exponent",
        "main_kind",
        "leading_coefficient",
        "leading_error",
        "bracket_constant",
        "bracket_error",
    ]
    return header, rows, None, EXIT_PASS, {}


def _cmd_trace(args):
    from .summatory import trace

    progress = _Progress("trace")
    tr = trace(
        args.q,
        args.checkpoints,
        args.alphas,
        limit=args.max,
        progress=progress,
    )
    header = ["x", "value", "main", "residual", "normalized"]
    header += [f"normalized{j + 1}" for j in range(1, len(tr.alphas))]
    header.append("main_error")
    rows = []
    for j, x in enumerate(tr.checkpoints):
        row = [x, tr.values[j], tr.main_values[j], tr.residuals[j]]
        row += [tr.normalized[i][j] for i in range(len(tr.alphas))]
        row.append(tr.main_errors[j])
        rows.append(row)
    summary = {
        "main_kind": tr.kind,
        "fitted_exponent": tr.fitted_exponent,
    }
    schedule = {"checkpoints": tr.checkpoints, "alphas": tr.alphas}
    return header, rows, summary, EXIT_PASS, schedule


_COUNT_COLUMNS = ["window_base", "n_lo", "n_hi", "delta", "window_double", "near_curve_count"]
_COUNT_KEYS = ["short_sum", "total_double", "small_n_double", "trivial_bound",
               "n_min", "n_max", "y_within_11_20", "y_within_19_36"]


def _scan_report(args, columns: list[str], summary: list[str]):
    """The range scan of (x, x+y], reported as the named ScanRow columns
    and RangeScanReport summary keys."""
    from .curves import ShortIntervalInstance, range_scan

    rep = range_scan(ShortIntervalInstance(args.x, args.y, args.c3))
    rows = [[getattr(r, c) for c in columns] for r in rep.rows]
    return columns, rows, {k: getattr(rep, k) for k in summary}, EXIT_PASS, {}


def _cmd_short_interval(args):
    return _scan_report(args, _COUNT_COLUMNS, _COUNT_KEYS)


def _cmd_near_curve(args):
    return _scan_report(
        args,
        _COUNT_COLUMNS + ["shape", "shape_value", "ratio", "ft_condition_ok"],
        _COUNT_KEYS + ["assembled_bound", "ratio_short_to_assembled"],
    )


def _cmd_rh_diagnostic(args):
    from .summatory import rh_diagnostic

    progress = _Progress("rh-diagnostic")
    diag = rh_diagnostic(
        args.q,
        args.checkpoints,
        eps=args.eps,
        c=args.c,
        limit=args.max,
        progress=progress,
    )
    rows = [
        [x, diag.values[j], diag.ratio_unconditional[j], diag.ratio_conditional[j]]
        for j, x in enumerate(diag.checkpoints)
    ]
    header = ["x", "value", "ratio_unconditional", "ratio_conditional"]
    return header, rows, None, EXIT_PASS, {"checkpoints": diag.checkpoints}


def _verify_args(p) -> None:
    p.add_argument("--q", type=_int_like, default=None, help="one odd prime modulus")
    p.add_argument(
        "--all-q", type=_int_like, default=None, help="every odd prime up to this"
    )
    p.add_argument(
        "--limit", type=_int_like, default=10**4, help="coefficient range checked"
    )


def _constants_args(p) -> None:
    p.add_argument("--q", type=_int_like, default=None)
    p.add_argument("--all-q", type=_int_like, default=None)
    # read by nothing; kept only while the benchmark's commands still pass it
    p.add_argument("--prime-cutoff", type=_int_like, help=argparse.SUPPRESS)
    p.add_argument("--tolerance", type=float, default=1e-4)


def _trace_args(p) -> None:
    p.add_argument("--q", type=_int_like, required=True)
    p.add_argument("--max", type=_int_like, default=10**8, help="largest checkpoint")
    p.add_argument(
        "--checkpoints",
        type=_int_list,
        default=None,
        help="comma-separated explicit checkpoints (default: powers of two)",
    )
    p.add_argument(
        "--alphas",
        type=_float_list,
        default=None,
        help="comma-separated normalization exponents (default: per branch)",
    )
    # read by nothing; kept only while the benchmark's commands still pass it
    p.add_argument("--prime-cutoff", type=_int_like, help=argparse.SUPPRESS)


def _window_args(p) -> None:
    p.add_argument("--x", type=_rational, required=True)
    p.add_argument("--y", type=_rational, required=True)
    p.add_argument("--c3", type=_rational, default="1/4")


def _rh_diagnostic_args(p) -> None:
    p.add_argument("--q", type=_int_like, required=True)
    p.add_argument("--max", type=_int_like, default=10**8)
    p.add_argument("--checkpoints", type=_int_list, default=None)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--c", type=float, default=0.2)


# name -> (help line, adder of its arguments, the arguments its metadata
# reports in order, handler), in --help's order
_SUBCOMMANDS = {
    "verify": ("identity suite + factorization routes", _verify_args,
               ("q", "all_q", "limit"), _cmd_verify),
    "constants": ("certified main-term constants", _constants_args,
                  ("q", "all_q", "tolerance"), _cmd_constants),
    "trace": ("summatory values along checkpoints", _trace_args,
              ("q", "max", "checkpoints", "alphas"), _cmd_trace),
    "short-interval": ("exact short-window sum + double-count decomposition",
                       _window_args, ("x", "y", "c3"), _cmd_short_interval),
    "near-curve": ("range scan with derivative-test bound shapes",
                   _window_args, ("x", "y", "c3"), _cmd_near_curve),
    "rh-diagnostic": ("growth-envelope ratios (no-main-term branch only)",
                      _rh_diagnostic_args, ("q", "max", "checkpoints", "eps", "c"),
                      _cmd_rh_diagnostic),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv: when argv names a subcommand first, only that
    subcommand's parser is built; otherwise (--help, no arguments, an
    unknown command) all six, for the listing or the error."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    common.add_argument("--output", default=None, help="write to a file, not stdout")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp so identical configs give identical bytes",
    )

    p = argparse.ArgumentParser(
        prog="tauchar",
        description="verification workbench for divisor-count character sums",
    )
    names, metavar = list(_SUBCOMMANDS), None
    if argv and argv[0] in _SUBCOMMANDS:
        # an error past the subcommand prints the top-level usage of all six
        names, metavar = argv[:1], "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = p.add_subparsers(dest="cmd", required=True, metavar=metavar)
    for name in names:
        help_line, add_args = _SUBCOMMANDS[name][:2]
        add_args(sub.add_parser(name, parents=[common], help=help_line))
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser(argv).parse_args(argv)
        _check_output(args.output)
        *_, names, handler = _SUBCOMMANDS[args.cmd]
        header, rows, summary, code, worked_out = handler(args)
        values = {**vars(args), **worked_out}
        meta = {"subcommand": args.cmd, "version": __version__, "format": args.format}
        for k in names:
            # a list of values, such as a checkpoint schedule, is one cell
            v = values[k]
            meta[k] = ",".join(map(_cell, v)) if isinstance(v, tuple) else v
        if not args.no_timestamp:
            from datetime import datetime, timezone

            meta["timestamp"] = datetime.now(timezone.utc).isoformat()
        _emit(args, meta, header, rows, summary)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull, so that the
        # interpreter's final flush stays quiet
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            return EXIT_RESOURCE  # no descriptor, so no final flush to quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_RESOURCE
    except ArgumentError as e:
        print(f"tauchar: argument error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (
        ResourceLimitError,
        PrecisionError,
        OverflowHardError,
        UndecidablePointError,
    ) as e:
        print(f"tauchar: resource/precision error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except TaucharError as e:
        print(f"tauchar: mathematical inconsistency: {e}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
