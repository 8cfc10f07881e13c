"""Command-line front end: bound tables, witness files, verification, search.

This module parses arguments and renders results; the certificate formats,
their writers and their re-verification live in ``verification``.

Subcommands
-----------
bounds     render the lower/upper bound table over a (d, m) grid
witness    build an arrangement witness file (exhaustively verified first)
verify     re-verify a witness file with no generator involved
plot-data  emit upper-bound curves as CSV
search     drive the randomized lower-bound search

Exit codes: 0 success, 1 verification failure, 2 usage error (bad
arguments, invalid input, unreadable certificate), 3 numerical failure.
``--no-meta`` suppresses timestamps for byte-identical outputs. ``--seed``
defaults to 0.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bounds import BoundsReport, compute_bounds_range, loose_upper_curve, require_grid_ends, tight_upper_curve
from .classifier import DEFAULT_MU
from .constructions import Arrangement, gunn_shatter, point_count, takacs_shatter
from .errors import (
    CertificateError,
    InvalidInputError,
    NumericalError,
    UnsupportedParametersError,
    VcnnError,
)
from .verification import (
    POLYTOPE_SCHEMA,
    SearchConfig,
    certificate_from_dict,
    certificate_json,
    certificate_to_dict,  # noqa: F401  (perfbench traces the certificate layer under cli.*)
    check_exhaustive,
    polytope_witness_to_dict,
    reverify_certificate,
    reverify_polytope_witness,
    search_lower_bound,
    verify_shattering,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UnsupportedParametersError(f"not an integer: {text!r}") from None


def _parse_range(text: str) -> range:
    """Parse '3' or '3..6' (inclusive) into a range, without expanding it."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = _parse_int(lo), _parse_int(hi)
        if hi < lo:
            raise UnsupportedParametersError(f"empty range {text!r}")
        return range(lo, hi + 1)
    value = _parse_int(text)
    return range(value, value + 1)


def _parse_list(text: str) -> list[int]:
    """Parse '2,3' into a list of ints; an empty list or a repeated value is refused."""
    values = [_parse_int(tok) for tok in text.split(",") if tok]
    if not values or len(set(values)) != len(values):
        raise UnsupportedParametersError(f"need distinct comma-separated integers, got {text!r}")
    return values


def _meta(seed: int | None = None) -> dict:
    meta = {
        "created": datetime.now(timezone.utc).isoformat(),
        "tool": f"vcnn {__version__}",
    }
    if seed is not None:
        meta["seed"] = seed
    return meta


def _write_text(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is empty or '-'.

    A path that cannot be written is a usage error.
    """
    if not path or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# bounds table


def _render_table(rows: list[dict], columns: list[str]) -> str:
    def fmt(value) -> str:
        return f"{value:.6g}" if isinstance(value, float) else str(value)

    cells = [[fmt(r[c]) for c in columns] for r in rows]
    widths = [
        max([len(name)] + [len(row[i]) for row in cells])
        for i, name in enumerate(columns)
    ]
    lines = ["  ".join(name.ljust(w) for name, w in zip(columns, widths))]
    for row in cells:
        lines.append("  ".join(col.ljust(w) for col, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _render_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow([repr(r[c]) if isinstance(r[c], float) else r[c] for c in columns])
    return buf.getvalue()


def cmd_bounds(args) -> int:
    ds = _parse_range(args.d)
    ms = _parse_range(args.m)
    require_grid_ends(ds, ms)   # before any row is solved
    rows = [dataclasses.asdict(report) for d in ds for report in compute_bounds_range(d, ms)]
    columns = [field.name for field in dataclasses.fields(BoundsReport)]
    if args.format == "table":
        text = _render_table(rows, columns)
    elif args.format == "csv":
        text = _render_csv(rows, columns)
    else:
        text = json.dumps({"schema": "vcnn-bounds/1", "rows": rows}, sort_keys=True, indent=2) + "\n"
    _write_text(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# witnesses


def cmd_witness(args) -> int:
    if args.kind == "polytope":
        doc = polytope_witness_to_dict(args.seed, meta=None if args.no_meta else _meta(args.seed))
        failure = None if doc["verified"] else "witness verification failed: sampled disagreement"
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        check_exhaustive(point_count(args.kind, args.param))   # from the count alone, before any point is built
        arrangement = Arrangement(kind=args.kind, points=None, radius=args.radius, param=args.param)
        cert = verify_shattering(arrangement, args.generator, mu=args.mu)
        failure = None if cert.verified else (
            f"construction failed at labelling {cert.first_failure:#x}: {cert.failure_reason}")
        text = certificate_json(cert, args.generator.__name__, meta=None if args.no_meta else _meta())
    if failure is not None:
        print(failure, file=sys.stderr)
    if failure is None or args.force:
        _write_text(text, args.out)
    return EXIT_OK if failure is None else EXIT_VERIFICATION


def cmd_verify(args) -> int:
    try:
        with open(args.certificate) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:   # too deeply nested is unreadable too
        raise CertificateError(f"cannot read certificate: {exc}") from exc
    # certificate_from_dict refuses a document that is not an object or names another schema
    if isinstance(doc, dict) and doc.get("schema") == POLYTOPE_SCHEMA:
        ok, message = reverify_polytope_witness(doc)
    else:
        cert = certificate_from_dict(doc)
        del doc   # the parsed text is not needed again, and forked re-check workers need not inherit it
        ok, message = reverify_certificate(cert)
    print(message)
    return EXIT_OK if ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# plot data and search


def cmd_plot_data(args) -> int:
    ds = _parse_list(args.d)
    ms = _parse_range(args.m)
    require_grid_ends(ds, ms)   # before any curve is computed
    ms_arr = np.array(ms, dtype=np.float64)
    columns = ["m"]
    series = {}
    for d in ds:
        tight = tight_upper_curve(d, ms_arr)
        loose = loose_upper_curve(d, ms_arr)
        series[d] = (tight, loose)
        columns += [f"tight_d{d}", f"loose_d{d}", f"ratio_d{d}"]
    rows = []
    for i, m in enumerate(ms):
        row: dict = {"m": m}
        for d in ds:
            tight, loose = series[d]
            row[f"tight_d{d}"] = float(tight[i])
            row[f"loose_d{d}"] = float(loose[i])
            row[f"ratio_d{d}"] = float(loose[i] / tight[i])
        rows.append(row)
    text = _render_csv(rows, columns)
    _write_text(text, args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    cfg = SearchConfig(
        d=args.d,
        m=args.m,
        n=args.n,
        trials=args.trials,
        point_sets=args.point_sets,
        steps=args.steps,
        rng_seed=args.seed,
        mu=args.mu,
    )
    cert = search_lower_bound(cfg)
    if cert is None:
        print(
            f"no certificate found for (d={args.d}, m={args.m}, n={args.n}) within budget "
            f"(point_sets={cfg.point_sets}, trials={cfg.trials}, steps={cfg.steps}, seed={args.seed}); "
            "absence of a certificate proves nothing"
        )
        return EXIT_VERIFICATION
    print(
        f"certificate found: {cfg.n} points shattered with m={args.m} prototypes "
        f"(min margin {cert.min_margin:.6g})"
    )
    if args.out:
        meta = None if args.no_meta else _meta(args.seed)
        _write_text(certificate_json(cert, "search_lower_bound", meta=meta), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcnn",
        description="VC-dimension bounds and verified shattering witnesses for 1NN prototype classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="render the bound table over a (d, m) grid")
    p_bounds.add_argument("--d", required=True, help="dimension or range, e.g. 2 or 2..5")
    p_bounds.add_argument("--m", required=True, help="prototype count or range, e.g. 3..6")
    p_bounds.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_bounds.add_argument("--out", default=None, help="output path (default stdout)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_wit = sub.add_parser("witness", help="build and verify a witness file")
    p_wit.set_defaults(func=cmd_witness)
    # each kind takes only its own flags, unabbreviated, so a foreign flag is a usage error
    kinds = p_wit.add_subparsers(dest="kind", required=True)
    written = argparse.ArgumentParser(add_help=False)   # the flags of every kind
    written.add_argument("--out", default=None, help="output path (default stdout)")
    written.add_argument("--force", action="store_true", help="write even if verification fails")
    written.add_argument("--no-meta", action="store_true", help="omit timestamps for reproducible bytes")
    swept = argparse.ArgumentParser(add_help=False, parents=[written])   # and of the two constructions
    swept.add_argument("--radius", type=float, default=1.0)
    swept.add_argument("--mu", type=float, default=DEFAULT_MU)
    p_takacs = kinds.add_parser("takacs", parents=[swept], allow_abbrev=False, help="circle plus centre")
    p_takacs.add_argument("--n", dest="param", type=int, required=True, help="facet budget N")
    p_takacs.set_defaults(generator=takacs_shatter)
    p_gunn = kinds.add_parser("gunn", parents=[swept], allow_abbrev=False, help="odd polygon plus inner pair")
    p_gunn.add_argument("--m", dest="param", type=int, required=True, help="prototype budget m")
    p_gunn.set_defaults(generator=gunn_shatter)
    p_poly = kinds.add_parser("polytope", parents=[written], allow_abbrev=False, help="reflected polytope")
    p_poly.add_argument("--square", action="store_true", required=True, help="the unit square")
    p_poly.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")

    p_ver = sub.add_parser("verify", help="re-verify a witness file")
    p_ver.add_argument("certificate")
    p_ver.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot-data", help="emit upper-bound curves as CSV")
    p_plot.add_argument("--d", required=True, help="comma-separated dimensions, e.g. 2,3")
    p_plot.add_argument("--m", required=True, help="prototype range, e.g. 3..50")
    p_plot.add_argument("--out", default=None, help="output path (default stdout)")
    p_plot.set_defaults(func=cmd_plot_data)

    p_search = sub.add_parser("search", help="randomized lower-bound search")
    p_search.add_argument("--d", type=int, required=True)
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--trials", type=int, default=24)
    p_search.add_argument("--point-sets", type=int, default=3)
    p_search.add_argument("--steps", type=int, default=120)
    p_search.add_argument("--mu", type=float, default=DEFAULT_MU)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--out", default=None, help="write the certificate here if found")
    p_search.add_argument("--no-meta", action="store_true")
    p_search.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # a usage error (exit 2) or --help (exit 0)
        return exc.code
    try:
        return args.func(args)
    except (UnsupportedParametersError, InvalidInputError, CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except VcnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
