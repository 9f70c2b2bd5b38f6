"""Command-line interface.

Data goes to stdout (or the file named by --out/--rows); diagnostics go to
stderr.  Exit codes: 0 for a result, 1 for usage or validation errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .embedding import EmbeddingConsistencyError, NotFlatError, embed
from .explorer import (
    NoCrossingError,
    bisect_boundary,
    sample_simplex,
    sweep,
)
from .families import (
    FamilySpec,
    binomial_family,
    custom_family,
    family_grid,
    hypergeometric_family,
    realize,
    uniform_family,
)
from .flatness import classify, criterion_table, is_flat
from .gram import det_closed_form, det_lemma_route, det_pivots
from .measure import (
    MeasureError,
    load_measure,
    measure_from_json,
    measure_to_json,
)
from .scalars import (
    EXACT,
    FLOAT,
    ModeConflictError,
    format_decimal,
    scalar_to_json,
)

ENV_SEED = "ATOMEMBED_SEED"


class CliError(Exception):
    """Usage or validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise CliError(message)


def _mode_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true",
                       help="require exact rational arithmetic")
    group.add_argument("--float", dest="float_mode", action="store_true",
                       help="force IEEE double arithmetic")


def _mode_of(args) -> str:
    if getattr(args, "exact", False):
        return EXACT
    if getattr(args, "float_mode", False):
        return FLOAT
    return "auto"


def _load(path, args):
    if path == "-":
        try:
            obj = json.load(sys.stdin)
        except json.JSONDecodeError as exc:
            raise MeasureError(f"malformed JSON on stdin: {exc}") from exc
        return measure_from_json(obj, mode=_mode_of(args))
    return load_measure(path, mode=_mode_of(args))


def _emit_json(obj, out_path=None):
    text = json.dumps(obj, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(rows, header, out_path=None):
    with (open(out_path, "w", encoding="utf-8", newline="") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _emit_table(rows, header, summary, out_path):
    """CSV to out_path and JSON to stdout, or CSV to stdout and one JSON line to stderr."""
    _write_csv(rows, header, out_path)
    if out_path:
        _emit_json(summary)
    else:
        print(json.dumps(summary), file=sys.stderr)


# -- subcommands ---------------------------------------------------------------

def _cmd_det(args) -> int:
    m = _load(args.measure, args)
    if args.simplex is None:
        simplex = list(range(m.size))
    else:
        try:
            simplex = [int(s) for s in args.simplex.split(",")]
        except ValueError:
            raise CliError(f"--simplex takes comma-separated atom indices, "
                           f"got {args.simplex!r}") from None
    if len(simplex) < 3:
        raise CliError("det needs a simplex of at least 3 points "
                       f"(got {len(simplex)}); pairs are always realizable")
    if len(set(simplex)) != len(simplex) or not all(0 <= i < m.size for i in simplex):
        raise CliError(f"simplex {args.simplex} must list distinct atom indices "
                       f"from 0 to {m.size - 1}")
    xs = m.subset_weights(simplex)
    routes = {"closed": det_closed_form, "numeric": det_pivots, "lemma": det_lemma_route}
    values = {name: scalar_to_json(route(xs)) for name, route in routes.items()
              if args.mode in (name, "all")}
    # the simplex's own report, whose full set is the simplex
    subset_values = is_flat(m._replace(weights=m.subset_weights(sorted(simplex)))).subset_values
    full = tuple(range(len(simplex)))
    _emit_json({
        "simplex": simplex,
        "order": len(simplex) - 1,
        "mode": m.mode,
        "values": values,
        "criterion": scalar_to_json(subset_values[full]),
        "sign": subset_values.sign(full),
    }, args.out)
    return 0


#: Most subset rows `check` prints: every subset of up to 20 atoms.
MAX_CHECK_ROWS = 2 ** 20


def _cmd_check(args) -> int:
    m = _load(args.measure, args)
    rows = sum(math.comb(m.size, s) for s in range(4, m.size + 1))
    if rows > MAX_CHECK_ROWS:
        raise CliError(f"check would print {rows} subset rows for {m.size} atoms "
                       f"(at most {MAX_CHECK_ROWS}); use classify for the verdict")
    report = is_flat(m)
    table = criterion_table(m)
    _emit_json({
        "flat": report.flat,
        "witness": list(report.witness) if report.witness else None,
        "checked_count": len(table),
        "boundary": [],
        "mode": report.mode,
        "dimension": report.dimension,
        "subset_values": {
            ",".join(str(i) for i in s): scalar_to_json(v) for s, v in table.items()
        },
        "verdict": report.classification.verdict,
    }, args.out)
    return 0


def _cmd_classify(args) -> int:
    m = _load(args.measure, args)
    cls = classify(m)
    _emit_json({
        "verdict": cls.verdict,
        "dimension": cls.dimension,
        "witness": list(cls.witness) if cls.witness else None,
        "reason": None,
    }, args.out)
    return 0


def _cmd_embed(args) -> int:
    m = _load(args.measure, args)
    result = embed(m)
    rows = [[format_decimal(c) for c in row] for row in result.coordinates]
    header = [f"c{i}" for i in range(result.dimension)]
    summary = {
        "atoms": m.size,
        "dimension": result.dimension,
        "base": result.base,
        "max_residual": result.max_residual,
        "out": args.out,
    }
    _emit_table(rows, header, summary, args.out)
    return 0


def _family_from_args(args) -> FamilySpec:
    kind = args.kind
    if kind == "uniform":
        if args.atoms is None:
            raise CliError("family uniform needs --atoms")
        return uniform_family(args.atoms)
    if kind == "binomial":
        if args.n is None or args.p is None:
            raise CliError("family binomial needs --n and --p")
        return binomial_family(args.n, _parse_cli_scalar(args.p))
    if kind == "hypergeometric":
        if None in (args.population, args.successes, args.draws):
            raise CliError(
                "family hypergeometric needs --population, --successes, --draws")
        return hypergeometric_family(args.population, args.successes, args.draws)
    if not args.weights:
        raise CliError("family custom needs --weights")
    return custom_family([_parse_cli_scalar(w) for w in args.weights.split(",")])


def _parse_cli_scalar(text: str):
    """Numbers on the command line: "p/q" and integers exact, decimals float."""
    text = text.strip()
    try:
        if "/" in text:
            return Fraction(text)
        try:
            return int(text)
        except ValueError:
            return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse number {text!r}") from exc


def _cmd_family(args) -> int:
    spec = _family_from_args(args)
    m = realize(spec)
    if args.normalize and not m.normalized:
        from .measure import validate_measure
        m = validate_measure(m.weights, mode=m.mode, normalize=True)
    _emit_json(measure_to_json(m), args.out)
    return 0


_PARAM_ALIASES = {
    "uniform": {"atoms": "atoms", "k": "atoms"},
    "binomial": {"p": "success", "success": "success", "n": "trials",
                 "trials": "trials"},
    "hypergeometric": {"population": "population", "N": "population",
                       "successes": "successes", "K": "successes",
                       "draws": "draws", "n": "draws"},
}


def _cmd_sweep(args) -> int:
    template = _family_from_args(args)
    aliases = _PARAM_ALIASES.get(template.kind, {})
    if args.param not in aliases:
        raise CliError(
            f"family {template.kind!r} has no sweep parameter {args.param!r}; "
            f"choose from {sorted(aliases)}")
    grid = family_grid(template, aliases[args.param],
                       _parse_cli_scalar(args.start),
                       _parse_cli_scalar(args.stop), args.steps)
    rows = sweep(grid)
    csv_rows = [
        [
            format_decimal(r.parameter),
            r.verdict,
            "" if r.worst_value is None else format_decimal(r.worst_value),
            "" if r.witness is None else "|".join(str(i) for i in r.witness),
        ]
        for r in rows
    ]
    header = ["parameter", "verdict", "worst_value", "witness"]
    embeddable = sum(r.verdict == "E" for r in rows)
    summary = {"rows": len(rows), "embeddable": embeddable,
               "not_embeddable": len(rows) - embeddable, "indeterminate": 0}
    _emit_table(csv_rows, header, summary, args.out)
    return 0


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
    return 0


def _cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    result = sample_simplex(args.k, args.count, seed=seed, jobs=args.jobs,
                            keep_rows=bool(args.rows))
    summary, rows = result if args.rows else (result, None)
    if args.rows:
        header = ["index"] + [f"w{i}" for i in range(args.k + 1)] + \
                 ["verdict", "worst_value"]
        csv_rows = [
            [r.index, *[format_decimal(w) for w in r.weights], r.verdict,
             "" if r.worst_value is None else format_decimal(r.worst_value)]
            for r in rows
        ]
        _write_csv(csv_rows, header, args.rows)
    _emit_json({
        "k": summary.k,
        "total": summary.total,
        "embeddable": summary.embeddable,
        "not_embeddable": summary.not_embeddable,
        "indeterminate": 0,
        "fraction": summary.fraction,
        "ci95_half_width": summary.ci95_half_width,
        "ci95_low": summary.ci95_low,
        "ci95_high": summary.ci95_high,
        "seed": summary.seed,
    }, args.out)
    return 0


def _cmd_bisect(args) -> int:
    m0 = _load(args.low, args)
    m1 = _load(args.high, args)
    result = bisect_boundary(m0, m1, tol=args.tol, scan_steps=args.scan)
    if args.trace:
        _write_csv(
            [
                [it, format_decimal(lo), format_decimal(hi),
                 format_decimal(mid), letter]
                for it, lo, hi, mid, letter in result.trace
            ],
            ["iteration", "lower", "upper", "midpoint", "verdict"],
            args.trace,
        )
    _emit_json({
        "boundary": scalar_to_json(result.boundary),
        "boundary_decimal": float(result.boundary),
        "lower": scalar_to_json(result.lower),
        "upper": scalar_to_json(result.upper),
        "width": float(result.upper - result.lower),
        "verdict_low": result.verdict_low,
        "verdict_high": result.verdict_high,
        "iterations": result.iterations,
        "extra_brackets": [
            [scalar_to_json(a), scalar_to_json(b)] for a, b in result.extra_brackets
        ],
    }, args.out)
    return 0


# -- parser --------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="atomembed",
                     description="Euclidean embeddability of atom spaces of "
                                 "finite measured Boolean algebras")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("det", parents=[], help="simplex Gram determinant")
    p.add_argument("measure", help="measure JSON file, or - for stdin")
    p.add_argument("--simplex", help="comma-separated atom indices, base first")
    p.add_argument("--mode", choices=["closed", "numeric", "lemma", "all"],
                   default="all")
    p.add_argument("--out")
    _mode_flags(p)
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("check", help="flatness report")
    p.add_argument("measure")
    p.add_argument("--out")
    _mode_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="embeddability verdict")
    p.add_argument("measure")
    p.add_argument("--out")
    _mode_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("embed", help="coordinates realizing the atom metric")
    p.add_argument("measure")
    p.add_argument("--out", help="write the coordinate CSV here")
    _mode_flags(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("family", help="emit a parametric measure as JSON")
    p.add_argument("kind", choices=["uniform", "binomial", "hypergeometric",
                                    "custom"])
    p.add_argument("--atoms", type=int, help="atom count (uniform)")
    p.add_argument("--n", type=int, help="trials (binomial)")
    p.add_argument("--p", help='success probability, e.g. "1/2" (binomial)')
    p.add_argument("--population", type=int)
    p.add_argument("--successes", type=int)
    p.add_argument("--draws", type=int)
    p.add_argument("--weights", help="comma-separated weights (custom)")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("sweep", help="classify a family along a parameter grid")
    p.add_argument("kind", choices=["uniform", "binomial", "hypergeometric"])
    p.add_argument("--atoms", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--p")
    p.add_argument("--population", type=int)
    p.add_argument("--successes", type=int)
    p.add_argument("--draws", type=int)
    p.add_argument("--param", required=True, help="parameter to vary")
    p.add_argument("--start", required=True)
    p.add_argument("--stop", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", help="write the CSV here (summary JSON to stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sample", help="Monte Carlo classification on the simplex")
    p.add_argument("--k", type=int, required=True, help="simplex dimension (>= 3)")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: ${ENV_SEED} or 0)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--rows", help="write per-sample CSV here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("bisect",
                       help="bracket the verdict flip on the mixture path "
                            "between two measures")
    p.add_argument("low", help="measure JSON at t=0")
    p.add_argument("high", help="measure JSON at t=1")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--scan", type=int, default=0,
                   help="coarse pre-scan steps to detect multiple flips")
    p.add_argument("--trace", help="write the per-iteration CSV here")
    p.add_argument("--out")
    _mode_flags(p)
    p.set_defaults(func=_cmd_bisect)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built on the first call of :func:`main` and reused after it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            print("atomembed: error: a command is required", file=sys.stderr)
            return 1
        return args.func(args)
    except CliError as exc:
        print(f"atomembed: error: {exc}", file=sys.stderr)
        return 1
    except ModeConflictError as exc:
        print(f"atomembed: mode conflict: {exc}", file=sys.stderr)
        return 1
    except (NotFlatError, NoCrossingError) as exc:
        print(f"atomembed: {exc}", file=sys.stderr)
        return 1
    except EmbeddingConsistencyError as exc:
        print(f"atomembed: internal consistency: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"atomembed: invalid input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"atomembed: error: {detail}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
