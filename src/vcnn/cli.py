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
``--no-meta`` suppresses timestamps for byte-identical outputs.
``VCNN_SEED`` provides the default seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bounds import compute_bounds, loose_upper_curve, tight_upper_curve
from .classifier import DEFAULT_MU
from .constructions import gunn_arrangement, gunn_shatter, takacs_arrangement, takacs_shatter
from .errors import (
    CertificateError,
    InvalidInputError,
    NumericalError,
    UnsupportedParametersError,
    VcnnError,
)
from .geometry import ConvexPolytope, Halfspace
from .verification import (
    CERTIFICATE_SCHEMA,
    POLYTOPE_SCHEMA,
    SearchConfig,
    certificate_from_dict,
    certificate_json,
    certificate_to_dict,  # noqa: F401  (perfbench traces the certificate layer under cli.*)
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


def _default_seed() -> int:
    return _parse_int(os.environ.get("VCNN_SEED", "0"))


def _parse_range(text: str) -> list[int]:
    """Parse '3' or '3..6' (inclusive) into a list of ints."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = _parse_int(lo), _parse_int(hi)
        if hi < lo:
            raise UnsupportedParametersError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [_parse_int(text)]


def _parse_list(text: str) -> list[int]:
    return [_parse_int(tok) for tok in text.split(",") if tok]


def _meta(seed: int | None = None) -> dict:
    meta = {
        "created": datetime.now(timezone.utc).isoformat(),
        "tool": f"vcnn {__version__}",
    }
    if seed is not None:
        meta["seed"] = seed
    return meta


def _write_text(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is empty or '-'."""
    if not path or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _dump_json(obj, path: str | None) -> None:
    _write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


# ---------------------------------------------------------------------------
# bounds table


_BOUND_COLUMNS = ["d", "m", "lower", "q", "upper_tight_real", "upper_tight", "upper_loose", "residual"]


def _bound_rows(ds: list[int], ms: list[int]) -> list[dict]:
    rows = []
    for d in ds:
        for m in ms:
            rep = compute_bounds(d, m)
            rows.append(
                {
                    "d": rep.d,
                    "m": rep.m,
                    "lower": rep.lower,
                    "q": rep.q,
                    "upper_tight_real": rep.upper_tight_real,
                    "upper_tight": rep.upper_tight,
                    "upper_loose": rep.upper_loose,
                    "residual": rep.solver_residual,
                }
            )
    return rows


def _render_table(rows: list[dict]) -> str:
    def fmt(value) -> str:
        return f"{value:.6g}" if isinstance(value, float) else str(value)

    cells = [[fmt(r[c]) for c in _BOUND_COLUMNS] for r in rows]
    widths = [
        max([len(name)] + [len(row[i]) for row in cells])
        for i, name in enumerate(_BOUND_COLUMNS)
    ]
    lines = ["  ".join(name.ljust(w) for name, w in zip(_BOUND_COLUMNS, widths))]
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
    rows = _bound_rows(ds, ms)
    if args.format == "table":
        text = _render_table(rows)
    elif args.format == "csv":
        text = _render_csv(rows, _BOUND_COLUMNS)
    else:
        text = json.dumps({"schema": "vcnn-bounds/1", "rows": rows}, sort_keys=True, indent=2) + "\n"
    _write_text(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# witnesses


def _square_polytope() -> ConvexPolytope:
    return ConvexPolytope(
        (
            Halfspace(np.array([1.0, 0.0]), 1.0),
            Halfspace(np.array([-1.0, 0.0]), 1.0),
            Halfspace(np.array([0.0, 1.0]), 1.0),
            Halfspace(np.array([0.0, -1.0]), 1.0),
        )
    )


def cmd_witness(args) -> int:
    if args.kind == "polytope":
        if not args.square:
            raise UnsupportedParametersError("polytope witness requires --square")
        seed = args.seed if args.seed is not None else _default_seed()
        doc = polytope_witness_to_dict(_square_polytope(), np.zeros(2), 1, seed,
                                       meta=None if args.no_meta else _meta(seed))
        status = EXIT_OK if doc["verified"] else EXIT_VERIFICATION
        if status == EXIT_OK or args.force:
            _dump_json(doc, args.out)
        if status != EXIT_OK:
            print("witness verification failed: sampled disagreement", file=sys.stderr)
        return status

    if args.kind == "takacs":
        if args.n is None:
            raise UnsupportedParametersError("takacs witness requires --n")
        arrangement = takacs_arrangement(args.n, args.radius)
        generator, gen_name = takacs_shatter, "takacs_shatter"
    else:
        if args.m is None:
            raise UnsupportedParametersError("gunn witness requires --m")
        arrangement = gunn_arrangement(args.m, args.radius)
        generator, gen_name = gunn_shatter, "gunn_shatter"

    cert = verify_shattering(arrangement, generator, mu=args.mu)
    text = certificate_json(cert, gen_name, meta=None if args.no_meta else _meta())
    if cert.verified:
        _write_text(text, args.out)
        return EXIT_OK
    print(
        f"construction failed at labelling {cert.first_failure:#x}: {cert.failure_reason}",
        file=sys.stderr,
    )
    if args.force:
        _write_text(text, args.out)
    return EXIT_VERIFICATION


def cmd_verify(args) -> int:
    try:
        with open(args.certificate) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CertificateError(f"cannot read certificate: {exc}") from exc
    if not isinstance(doc, dict):
        raise CertificateError(f"a certificate is a JSON object, not {type(doc).__name__}")
    schema = doc.get("schema")
    if schema == POLYTOPE_SCHEMA:
        ok, message = reverify_polytope_witness(doc)
    elif schema == CERTIFICATE_SCHEMA:
        ok, message = reverify_certificate(certificate_from_dict(doc))
    else:
        raise CertificateError(f"unknown schema {schema!r}")
    print(message)
    return EXIT_OK if ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# plot data and search


def cmd_plot_data(args) -> int:
    ds = _parse_list(args.d)
    ms = _parse_range(args.m)
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
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = SearchConfig(
        d=args.d,
        m=args.m,
        n=args.n,
        trials=args.trials,
        point_sets=args.point_sets,
        steps=args.steps,
        rng_seed=seed,
        mu=args.mu,
    )
    n_found, cert = search_lower_bound(cfg)
    if cert is None:
        print(
            f"no certificate found for (d={args.d}, m={args.m}, n={args.n}) within budget "
            f"(point_sets={cfg.point_sets}, trials={cfg.trials}, steps={cfg.steps}, seed={seed}); "
            "absence of a certificate proves nothing"
        )
        return EXIT_VERIFICATION
    print(
        f"certificate found: {n_found} points shattered with m={args.m} prototypes "
        f"(min margin {cert.min_margin:.6g})"
    )
    if args.out:
        meta = None if args.no_meta else _meta(seed)
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
    p_wit.add_argument("kind", choices=["takacs", "gunn", "polytope"])
    p_wit.add_argument("--n", type=int, default=None, help="facet budget N (takacs)")
    p_wit.add_argument("--m", type=int, default=None, help="prototype budget m (gunn)")
    p_wit.add_argument("--square", action="store_true", help="unit square witness (polytope)")
    p_wit.add_argument("--radius", type=float, default=1.0)
    p_wit.add_argument("--mu", type=float, default=DEFAULT_MU)
    p_wit.add_argument("--out", default=None, help="output path (default stdout)")
    p_wit.add_argument("--force", action="store_true", help="write even if verification fails")
    p_wit.add_argument("--no-meta", action="store_true", help="omit timestamps for reproducible bytes")
    p_wit.add_argument("--seed", type=int, default=None, help="sampling seed (polytope); default $VCNN_SEED")
    p_wit.set_defaults(func=cmd_witness)

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
    p_search.add_argument("--seed", type=int, default=None, help="default $VCNN_SEED")
    p_search.add_argument("--out", default=None, help="write the certificate here if found")
    p_search.add_argument("--no-meta", action="store_true")
    p_search.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
