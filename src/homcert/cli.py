"""Command-line interface.

Subcommands: `count` (exact hom/inj counts), `spectrum` (traces and
floating-point eigenvalues), `bound` (build a bound certificate),
`certify` (majorization threshold scan), `search` (exhaustive density
maximization), and `verify-paper` (the full example-verification
campaign).  Every subcommand emits one JSON document with a versioned
"schema" field, sorted keys, and exact rationals as "p/q" strings, to
stdout or `--out FILE`.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a
verification campaign reports a failed check.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from homcert import bounds, harness, optimize
from homcert import homomorphism as hm
from homcert.graphs import Graph6Error, parse_graph6, write_graph6
from homcert.poly import BivarPoly, frac_str
from homcert.spectral import EIG_TOL, eigenvalues, spectral_moments

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2

SPECTRUM_KMAX = 8


class CliError(Exception):
    """Input or usage problem; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 for usage errors; use 1 so that 2
    is reserved for verification failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_graph(path):
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            return parse_graph6(line)
        except Graph6Error as exc:
            raise CliError(f"{path}: {exc}") from exc
    raise CliError(f"{path}: no graph6 data found")


def _read_poly(path):
    try:
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(doc, dict):
        rows = doc.get("poly")
        if rows is None:
            raise CliError(f"{path}: expected a 'poly' field")
    elif isinstance(doc, list):
        rows = doc
    else:
        raise CliError(f"{path}: expected a JSON object or array")
    try:
        return BivarPoly.from_coefficient_list(rows)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: bad coefficient list: {exc}") from exc


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_count(args):
    h = _read_graph(args.pattern)
    g = _read_graph(args.target)
    inj = hm.inj_count(h, g)
    _emit(
        {
            "schema": "count-report/1",
            "pattern": write_graph6(h),
            "target": write_graph6(g),
            "hom": hm.hom_count(h, g),
            "inj": inj,
            "t_inj": frac_str(Fraction(inj, g.order)),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_spectrum(args):
    g = _read_graph(args.target)
    moments = spectral_moments(g, SPECTRUM_KMAX)
    measure = eigenvalues(g)
    _emit(
        {
            "schema": "spectrum-report/1",
            "graph": write_graph6(g),
            "order": g.order,
            "traces": list(moments.traces),
            "eigenvalues": [[v, m] for v, m in measure.values],
            "tolerance": EIG_TOL,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_bound(args):
    cert = bounds.build_bound_poly(_read_graph(args.pattern))
    _emit(cert.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_certify(args):
    p = _read_poly(args.poly)
    m = re.fullmatch(r"([0-9]+)\.\.([0-9]+)", args.d_range)
    if m is None:
        raise CliError("--d-range must look like 2..12")
    report = optimize.certify_threshold(
        p, args.parity, int(m.group(1)), int(m.group(2))
    )
    _emit(report.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_search(args):
    h = _read_graph(args.pattern)
    report = harness.search_max_density(
        h,
        args.d,
        args.n_max,
        connected_only=args.connected,
        keep_table=args.table,
    )
    _emit(report.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_verify_paper(args):
    report = harness.verify_paper()
    checks = list(report.checks)
    _emit(
        {"schema": "verify-paper/2", "ok": report.ok, "checks": checks},
        args.out,
    )
    return EXIT_OK if report.ok else EXIT_FAILED


def build_parser():
    parser = _Parser(
        prog="homcert",
        description=(
            "Exact pattern densities in regular graphs, spectral bound "
            "certificates, and majorization thresholds."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--out", metavar="FILE", help="write JSON here")
        sp.set_defaults(func=func)
        return sp

    sp = add("count", _cmd_count, "exact hom/inj counts of H in G")
    sp.add_argument("pattern", help="pattern graph6 file (H)")
    sp.add_argument("target", help="target graph6 file (G)")

    sp = add("spectrum", _cmd_spectrum, "traces and floating eigenvalues")
    sp.add_argument("target", help="target graph6 file")

    sp = add("bound", _cmd_bound, "build a bound certificate for H")
    sp.add_argument("pattern", help="pattern graph6 file (H)")

    sp = add("certify", _cmd_certify, "majorization threshold scan")
    sp.add_argument(
        "--poly",
        required=True,
        metavar="FILE",
        help="polynomial JSON: coefficient rows, or a document with a "
        "'poly' field (bound certificates work directly)",
    )
    sp.add_argument(
        "--parity",
        required=True,
        choices=optimize.PARITIES,
    )
    sp.add_argument(
        "--d-range", required=True, metavar="A..B", help="degrees to scan"
    )

    sp = add("search", _cmd_search, "exhaustive density maximization")
    sp.add_argument("--pattern", required=True, metavar="FILE")
    sp.add_argument("--d", required=True, type=int)
    sp.add_argument("--n-max", required=True, type=int)
    sp.add_argument(
        "--connected",
        action="store_true",
        help="restrict the corpus to connected graphs",
    )
    sp.add_argument(
        "--table",
        action="store_true",
        help="include the full per-graph density table",
    )

    add("verify-paper", _cmd_verify_paper, "run the example campaign")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
