"""Command-line interface: compute indices for CSV columns, export surfaces,
slide templates, split correlations, standardize and sign-annotate columns.

Exit codes: 0 success, 2 usage error (bad flags or flag values), 1 data
error (unreadable files, unparseable cells, undefined index values).
Every numeric flag is checked while parsing, so a non-finite grid bound or
heatmap level is a usage error; a non-finite ``compute`` or ``split``
output is a data error that names it and prints nothing.  Files are read
and written by :mod:`msetsim.io`.

``field`` evaluates each row of the surface once and writes it as it comes
(an auto-ranged heatmap first takes the min and max over the few lattice
cells where the surface takes them), so an export holds O(nx + ny) values,
at most 512 KiB of CSV texts kept for rows whose y mirror comes later, and
nx*ny bytes of image, not the field.
"""

import argparse
import dataclasses
import functools
import math
import sys

from . import fields, indices, io, sliding, stats
from .fields import FieldExpr, GridSpec
from .io import HeatmapRange, fmt
from .signs import _conjoint
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


def _checked(convert, *checks):
    """An argparse type: ``convert`` the text, then apply each ``(test,
    message)`` in turn; the first failing test is a usage error that quotes
    the text after its message."""
    noun = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            v = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        for test, message in checks:
            if not test(v):
                raise argparse.ArgumentTypeError(f"{message}: {text}")
        return v

    return parse


_FINITE = (math.isfinite, "must be finite")
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_finite_float = _checked(float, _FINITE)
_positive_float = _checked(float, (lambda v: v > 0, "must be positive"), _FINITE)
_unit_interval = _checked(float, (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"))
_positive_int = _checked(int, _AT_LEAST_1)
_axis_points = _checked(int, _AT_LEAST_1,
                        (lambda v: v >= 2, "grids need at least 2 points per axis"))


def _selector(token: str):
    """A column name, or an index that :func:`io._column` accepts, so a
    negative index is a usage error, with read_csv's message."""
    token = token.strip()
    if not token:
        raise argparse.ArgumentTypeError("empty column selector")
    try:
        index = int(token)
    except ValueError:
        return token
    try:
        return io._column(index)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    # each subcommand binds its handler as args.run; dest names the
    # subcommand in the "required" usage error
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="similarity indices for two CSV columns")
    p.set_defaults(run=_cmd_compute)
    p.add_argument("--input", required=True, help="CSV file")
    p.add_argument("--cols", required=True, type=_two_selectors,
                   help="two column selectors (names or 0-based indices), e.g. x,y")
    p.add_argument("--index", default="all",
                   choices=[*_INDEX_FNS, "all"])
    p.add_argument("--dx", type=_positive_float, default=1.0,
                   help="sample spacing (default 1)")

    p = sub.add_parser("field", help="evaluate a scalar surface over an (x, y) grid")
    p.set_defaults(run=_cmd_field)
    p.add_argument("--expr", required=True,
                   choices=[e.value for e in FieldExpr])
    p.add_argument("--D", dest="power", type=_positive_int, default=1,
                   help="power for jrpow (default 1)")
    p.add_argument("--xmin", type=_finite_float, default=-2.0)
    p.add_argument("--xmax", type=_finite_float, default=2.0)
    p.add_argument("--ymin", type=_finite_float, default=-2.0)
    p.add_argument("--ymax", type=_finite_float, default=2.0)
    p.add_argument("--nx", type=_axis_points, default=401)
    p.add_argument("--ny", type=_axis_points, default=401)
    p.add_argument("--out", required=True, help="field CSV output path")
    p.add_argument("--pgm", help="also render a PGM heatmap to this path")
    p.add_argument("--lo", type=_finite_float, help="heatmap black level")
    p.add_argument("--hi", type=_finite_float, help="heatmap white level")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="accepted for compatibility; changes nothing (fields are "
                        "evaluated in one thread)")

    p = sub.add_parser("slide", help="sliding-window index profile of a template")
    p.set_defaults(run=_cmd_slide)
    p.add_argument("--template", required=True, help="CSV file, first column")
    p.add_argument("--signal", required=True, help="CSV file, first column")
    p.add_argument("--index", required=True,
                   choices=[i.value for i in SlideIndex])
    p.add_argument("--out", required=True, help="profile CSV output path")

    p = sub.add_parser("split", help="double Pearson split of two CSV columns")
    p.set_defaults(run=_cmd_split)
    p.add_argument("--input", required=True)
    p.add_argument("--cols", required=True, type=_two_selectors)
    p.add_argument("--alpha", required=True, type=_unit_interval)

    p = sub.add_parser("standardize", help="standardize one CSV column")
    p.set_defaults(run=_cmd_standardize)
    p.add_argument("--input", required=True)
    p.add_argument("--col", required=True, type=_selector)
    p.add_argument("--out", required=True)

    p = sub.add_parser("signs", help="per-row sign gates s_hp, s_hm, s_xy of two columns")
    p.set_defaults(run=_cmd_signs)
    p.add_argument("--input", required=True)
    p.add_argument("--cols", required=True, type=_two_selectors)
    p.add_argument("--out", required=True)

    return parser


def _print_values(values: dict) -> None:
    """Print one ``name=value`` line per entry; a non-finite value is a
    data error naming every such output, and then nothing is printed."""
    bad = [f"{name}={fmt(v)}" for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"not finite: {', '.join(bad)}")
    for name, v in values.items():
        print(f"{name}={fmt(v)}")


def _cmd_compute(args) -> None:
    f, g = io.read_csv(args.input, args.cols, dx=args.dx)
    if args.index == "all":
        _print_values(dataclasses.asdict(indices.report(f, g)))
    else:
        _print_values({args.index: _INDEX_FNS[args.index](f, g)})


def _cmd_field(args) -> None:
    spec = GridSpec(args.xmin, args.xmax, args.ymin, args.ymax, args.nx, args.ny)
    # the heatmap flags are checked before the field is computed, so a bad
    # pair writes no CSV; None leaves the range to the field's values
    rng = None
    if args.pgm is not None:
        if (args.lo is None) != (args.hi is None):
            raise ValueError("--lo and --hi must be given together")
        if args.lo is not None:
            rng = HeatmapRange(args.lo, args.hi)
        elif args.expr in BOUNDED_EXPRS:
            rng = HeatmapRange(-1.0, 1.0)
    expr = FieldExpr(args.expr)
    if args.pgm is not None and rng is None:
        # the auto-range (a1-a5 only: the others are bounded) is taken
        # before any file is opened, over the rows of the sub-lattice of
        # each axis's extreme points (fields._extreme_points), where each
        # of these surfaces takes its extremes.  No surface is NaN on a
        # finite lattice, so folding min and max over those rows in
        # row-major order from +-inf gives the range, signed zeros and
        # messages of min(values) and max(values) over the whole field
        lo, hi = math.inf, -math.inf
        for row in fields._rows(expr, spec, args.power, fields._extreme_points):
            lo, hi = min(lo, *row), max(hi, *row)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"cannot scale the heatmap: the field holds a non-finite value "
                             f"(min {fmt(lo)}, max {fmt(hi)}); set --lo and --hi")
        if lo == hi:
            raise ValueError(f"cannot scale the heatmap: the field is constant at {fmt(lo)}; "
                             f"set --lo and --hi")
        if not math.isfinite(hi - lo):
            raise ValueError(f"cannot scale the heatmap: the field's range overflows "
                             f"(min {fmt(lo)}, max {fmt(hi)}); set --lo and --hi")
        rng = HeatmapRange(lo, hi)
    io.export_field(spec, fields.field_rows(expr, spec, d=args.power), args.out, args.pgm, rng)


def _cmd_slide(args) -> None:
    template = io.read_csv(args.template, [0])[0]
    signal = io.read_csv(args.signal, [0])[0]
    profile = sliding.slide(template, signal, SlideIndex(args.index))
    io.write_csv(args.out, ("lag", "score"), zip(profile.lags, profile.scores))
    print(f"best_lag={profile.best_lag}")


def _cmd_split(args) -> None:
    x, y = io.read_csv(args.input, args.cols)
    dp = stats.double_pearson(x, y, args.alpha)
    _print_values({**dp._asdict(), "pearson": stats.pearson(x, y)})


def _cmd_standardize(args) -> None:
    sig = io.read_csv(args.input, [args.col])[0]
    io.write_csv(args.out, ("value",), ((v,) for v in stats.standardize(sig).values))


def _cmd_signs(args) -> None:
    f, g = io.read_csv(args.input, args.cols)
    # the samples are validated by Signal, so the gates are taken unchecked
    io.write_csv(args.out, ("s_hp", "s_hm", "s_xy"),
                 ((s.s_hp, s.s_hm, s.s_xy) for s in map(_conjoint, f.values, g.values)))


def main(argv=None) -> int:
    """Run the CLI on an argv list (without the program name; ``None`` reads
    ``sys.argv``) and return the exit code instead of exiting."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


cli = main  # the name tests and callers import


if __name__ == "__main__":
    sys.exit(main())
