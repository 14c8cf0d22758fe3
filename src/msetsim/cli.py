"""Command-line interface: compute indices for CSV columns, export surfaces,
slide templates, split correlations, standardize and sign-annotate columns.

Exit codes: 0 success, 2 usage error (bad flags or flag values), 1 data
error (unreadable files, unparseable cells, undefined index values).
"""

import argparse
import dataclasses
import functools
import math
import sys

from . import fields, indices, io, sliding, stats
from .fields import FieldExpr, GridSpec
from .io import HeatmapRange, fmt
from .signs import conjoint_signs
from .sliding import SlideIndex

BOUNDED_EXPRS = ("jr", "jrpow", "kron")  # default heatmap range [-1, 1]

# compute --index: one function per index; "all" prints the whole report()
_INDEX_FNS = {
    "jaccard": indices.jaccard,
    "coincidence": indices.coincidence,
    "interiority": indices.interiority,
    "cosine": indices.cosine,
    "pearson": stats.pearson,
    "inner": indices.inner,
}


def _unit_interval(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1]: {text}")
    return v


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not v > 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    if v == math.inf:
        raise argparse.ArgumentTypeError(f"must be finite: {text}")
    return v


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text}")
    return v


def _axis_points(text: str) -> int:
    v = _positive_int(text)
    if v < 2:
        raise argparse.ArgumentTypeError(f"grids need at least 2 points per axis: {text}")
    return v


def _selector(token: str):
    token = token.strip()
    if not token:
        raise argparse.ArgumentTypeError("empty column selector")
    try:
        return int(token)
    except ValueError:
        return token


def _two_selectors(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"need exactly two columns, e.g. x,y: {text!r}")
    return [_selector(p) for p in parts]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    parser = argparse.ArgumentParser(
        prog="msetsim",
        description="Sign-aware multiset similarity indices for sampled signals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="similarity indices for two CSV columns")
    p.add_argument("--input", required=True, help="CSV file")
    p.add_argument("--cols", required=True, type=_two_selectors,
                   help="two column selectors (names or 0-based indices), e.g. x,y")
    p.add_argument("--index", default="all",
                   choices=[*_INDEX_FNS, "all"])
    p.add_argument("--dx", type=_positive_float, default=1.0,
                   help="sample spacing (default 1)")

    p = sub.add_parser("field", help="evaluate a scalar surface over an (x, y) grid")
    p.add_argument("--expr", required=True,
                   choices=[e.value for e in FieldExpr])
    p.add_argument("--D", dest="power", type=_positive_int, default=1,
                   help="power for jrpow (default 1)")
    p.add_argument("--xmin", type=float, default=-2.0)
    p.add_argument("--xmax", type=float, default=2.0)
    p.add_argument("--ymin", type=float, default=-2.0)
    p.add_argument("--ymax", type=float, default=2.0)
    p.add_argument("--nx", type=_axis_points, default=401)
    p.add_argument("--ny", type=_axis_points, default=401)
    p.add_argument("--out", required=True, help="field CSV output path")
    p.add_argument("--pgm", help="also render a PGM heatmap to this path")
    p.add_argument("--lo", type=float, help="heatmap black level")
    p.add_argument("--hi", type=float, help="heatmap white level")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="accepted for compatibility; changes nothing (fields are "
                        "evaluated in one thread)")

    p = sub.add_parser("slide", help="sliding-window index profile of a template")
    p.add_argument("--template", required=True, help="CSV file, first column")
    p.add_argument("--signal", required=True, help="CSV file, first column")
    p.add_argument("--index", required=True,
                   choices=[i.value for i in SlideIndex])
    p.add_argument("--out", required=True, help="profile CSV output path")

    p = sub.add_parser("split", help="double Pearson split of two CSV columns")
    p.add_argument("--input", required=True)
    p.add_argument("--cols", required=True, type=_two_selectors)
    p.add_argument("--alpha", required=True, type=_unit_interval)

    p = sub.add_parser("standardize", help="standardize one CSV column")
    p.add_argument("--input", required=True)
    p.add_argument("--col", required=True, type=_selector)
    p.add_argument("--out", required=True)

    p = sub.add_parser("signs", help="per-row sign gates s_hp, s_hm, s_xy of two columns")
    p.add_argument("--input", required=True)
    p.add_argument("--cols", required=True, type=_two_selectors)
    p.add_argument("--out", required=True)

    return parser


def _cmd_compute(args) -> None:
    f, g = io.read_csv(args.input, args.cols, dx=args.dx)
    if args.index == "all":
        rep = indices.report(f, g)
        for fld in dataclasses.fields(rep):
            print(f"{fld.name}={fmt(getattr(rep, fld.name))}")
        return
    print(f"{args.index}={fmt(_INDEX_FNS[args.index](f, g))}")


def _cmd_field(args) -> None:
    spec = GridSpec(args.xmin, args.xmax, args.ymin, args.ymax, args.nx, args.ny)
    fld = fields.field(FieldExpr(args.expr), spec, d=args.power, threads=args.threads)
    io.write_field_csv(fld, args.out)
    if args.pgm is None:
        return
    if (args.lo is None) != (args.hi is None):
        raise ValueError("--lo and --hi must be given together")
    if args.lo is not None:
        rng = HeatmapRange(args.lo, args.hi)
    elif args.expr in BOUNDED_EXPRS:
        rng = HeatmapRange(-1.0, 1.0)
    else:
        rng = HeatmapRange(min(fld.values), max(fld.values))
    io.write_pgm(fld, rng, args.pgm)


def _cmd_slide(args) -> None:
    template = io.read_csv(args.template, [0])[0]
    signal = io.read_csv(args.signal, [0])[0]
    profile = sliding.slide(template, signal, SlideIndex(args.index))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write("lag,score\n")
        for lag, score in zip(profile.lags, profile.scores):
            fh.write(f"{lag},{fmt(score)}\n")
    print(f"best_lag={profile.best_lag}")


def _cmd_split(args) -> None:
    x, y = io.read_csv(args.input, args.cols)
    dp = stats.double_pearson(x, y, args.alpha)
    print(f"p_plus={fmt(dp.p_plus)}")
    print(f"p_minus={fmt(dp.p_minus)}")
    print(f"p_alpha={fmt(dp.p_alpha)}")
    print(f"pearson={fmt(stats.pearson(x, y))}")


def _cmd_standardize(args) -> None:
    sig = io.read_csv(args.input, [args.col])[0]
    out = stats.standardize(sig)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write("value\n")
        for v in out.values:
            fh.write(f"{fmt(v)}\n")


def _cmd_signs(args) -> None:
    f, g = io.read_csv(args.input, args.cols)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write("s_hp,s_hm,s_xy\n")
        for x, y in zip(f.values, g.values):
            s = conjoint_signs(x, y)
            fh.write(f"{fmt(s.s_hp)},{fmt(s.s_hm)},{fmt(s.s_xy)}\n")


_COMMANDS = {
    "compute": _cmd_compute,
    "field": _cmd_field,
    "slide": _cmd_slide,
    "split": _cmd_split,
    "standardize": _cmd_standardize,
    "signs": _cmd_signs,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cli(argv) -> int:
    """Run the CLI on an argv list (without the program name); returns the
    exit code instead of exiting."""
    return main(argv)


if __name__ == "__main__":
    sys.exit(main())
