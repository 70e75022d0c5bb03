"""Command-line interface: scan, check-hf, check-ideal."""

from __future__ import annotations

import argparse
import sys

from .hilbert import _fields, _parse_ints
from .koszul import DEFAULT_CHAR
from .scanner import DEFAULT_CHUNK_SIZE, check_hf, check_ideal, scan
from .verdict import DEFAULT_DFS_CAP, DEFAULT_FILTERS


class _Parser(argparse.ArgumentParser):
    """ArgumentParser, and so its subparsers, whose usage errors exit 1 like every other error.

    argparse's own exit code for them, 2, is the code for an unresolved result.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="multbound",
        description="Multiplicity bound verification for Artinian Hilbert functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan_p = sub.add_parser("scan", help="classify every Hilbert function in a family")
    scan_p.add_argument("--vars", type=int, required=True, help="number of variables")
    scan_p.add_argument("--socle-max", type=int, required=True, help="largest socle degree")
    scan_p.add_argument("--prefix", default="1", help="comma-separated fixed leading values")
    scan_p.add_argument(
        "--filters",
        default=",".join(DEFAULT_FILTERS),
        help="comma-separated filter names (er,gen,aci,growth)",
    )
    scan_p.add_argument("--dfs-cap", type=int, default=DEFAULT_DFS_CAP,
                        help="search tree nodes past which a record says CAP_EXCEEDED")
    scan_p.add_argument("--checkpoint", help="checkpoint log; resumes when present")
    scan_p.add_argument("--out", help="report file path")
    scan_p.add_argument("--format", choices=["json", "csv"], default="json",
                        help="report file format")
    scan_p.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                        help="Hilbert functions per work unit and per checkpoint line")
    scan_p.add_argument("--limit", type=int, default=None,
                        help="stop after this many functions (INCOMPLETE when some are left)")

    hf_p = sub.add_parser("check-hf", help="classify a single Hilbert function")
    hf_p.add_argument("sequence", help="comma-separated values, e.g. 1,3,6,7,3,1")
    hf_p.add_argument("--vars", type=int, default=None,
                      help="number of variables (default: H(1))")
    hf_p.add_argument("--filters", default=",".join(DEFAULT_FILTERS))
    hf_p.add_argument("--dfs-cap", type=int, default=DEFAULT_DFS_CAP,
                      help="search tree nodes past which the verdict is CAP_EXCEEDED")

    id_p = sub.add_parser("check-ideal", help="analyze a monomial ideal")
    id_p.add_argument("ideal", help="generators, e.g. 'a^3; b^4; c^4; a*b^2'")
    id_p.add_argument("--vars", type=int, default=None,
                      help="number of variables (default: inferred)")
    id_p.add_argument("--truncate", type=int, default=None,
                      help="also report the truncation at this degree")
    id_p.add_argument("--char", type=int, default=DEFAULT_CHAR, help="field characteristic")
    id_p.add_argument("--degree-cap", type=int, default=None,
                      help="degree bound for non-Artinian ideals")
    return parser


def _filters(text):
    """Filter names of a comma- or whitespace-separated --filters value; a blank field raises ValueError."""
    return tuple(_fields(text, "--filters"))


def _run_scan(args):
    report = scan(
        args.vars,
        args.socle_max,
        _parse_ints(args.prefix, "--prefix"),
        filters=_filters(args.filters),
        dfs_cap=args.dfs_cap,
        chunk_size=args.chunk_size,
        checkpoint_path=args.checkpoint,
        out_path=args.out,
        out_format=args.format,
        limit=args.limit,
    )
    sys.stdout.write(report.summary())
    if report.status != "COMPLETE":
        return 1
    return 2 if report.counts["unresolved"] else 0


def _run_check_hf(args):
    _, text, code = check_hf(args.sequence, n=args.vars, filters=_filters(args.filters), dfs_cap=args.dfs_cap)
    sys.stdout.write(text)
    return code


def _run_check_ideal(args):
    _, text, code = check_ideal(
        args.ideal,
        n=args.vars,
        truncate_at=args.truncate,
        field_char=args.char,
        degree_cap=args.degree_cap,
    )
    sys.stdout.write(text)
    return code


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:  # --help, or a usage error
        return stop.code
    try:
        if args.command == "scan":
            return _run_scan(args)
        if args.command == "check-hf":
            return _run_check_hf(args)
        return _run_check_ideal(args)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
