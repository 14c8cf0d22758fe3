"""Scalar fields over rectangular (x, y) grids: the building-block surfaces
of the similarity indices and the signed-delta reference surface.

The lattice is endpoint-inclusive and, for ranges symmetric about zero,
exactly negation-symmetric, so the crests x = +-y land on representable
lattice points and surface symmetries hold bit for bit.

:func:`field_rows` evaluates a surface one row at a time, so a caller that
writes rows as they come (the CLI's export) holds one row, not the field;
:func:`field` collects the same rows into a :class:`ScalarField`.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

from .indices import _signed_powers
from .msetops import MsetOpKind, _member, _positive_finite, _real, _whole, kernel


class FieldExpr(Enum):
    A1 = "a1"         # signed intersection: sx*sy * min(|x|, |y|)
    A2 = "a2"         # union of absolutes: max(|x|, |y|)
    A3 = "a3"         # product x*y (the scalar inner product)
    A4 = "a4"         # squared union of absolutes
    A5 = "a5"         # intersection of absolutes: min(|x|, |y|)
    JR = "jr"         # A1/A2, 0 at the origin
    KRON = "kron"     # generalized Kronecker delta
    JR_POW = "jrpow"  # sign-preserving power of JR


@dataclass(frozen=True)
class GridSpec:
    """Endpoint-inclusive rectangular evaluation lattice.

    Point (i, j) sits at x = x_min + i*(x_max - x_min)/(nx - 1) and likewise
    for y.  The float realization blends both endpoints instead of stepping
    from x_min, so grids symmetric about zero negate exactly (x at index i
    is bitwise -x at index nx-1-i); the naive stepping form does not have
    that property.

    The four bounds are stored as floats, so ``GridSpec(-1, 3, 0, 2)``
    equals ``GridSpec(-1.0, 3.0, 0.0, 2.0)``: int endpoints would stay ints
    in the lattice, and an int 0 times a negative is 0, not -0.0.  A bound
    must be a finite real and ``nx`` and ``ny`` ints of at least 2, by the
    parameter rules of :mod:`msetsim.msetops`: text and bools are refused.

    :meth:`xs` and :meth:`ys` build an axis when asked, so a count past the
    float range, such as ``nx=10**400``, is a count here.  They refuse an
    axis with a ValueError naming it when a point is not finite (a range
    so wide that the endpoint blend overflows) or its count is past the
    float range, where no blend can be computed.  Every reader of the
    lattice goes through them: the surfaces and the field writers.  Each
    axis is built once per instance and kept on it, so an export that reads
    a lattice several times builds it once; a refused axis keeps nothing
    and raises again.
    """

    x_min: float = -2.0
    x_max: float = 2.0
    y_min: float = -2.0
    y_max: float = 2.0
    nx: int = 401
    ny: int = 401

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            bound = _real(getattr(self, name), f"{name} must be a real number")
            if not math.isfinite(bound):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, bound)
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got {self.x_min!r} >= {self.x_max!r}")
        if not self.y_min < self.y_max:
            raise ValueError(f"need y_min < y_max, got {self.y_min!r} >= {self.y_max!r}")
        for name in ("nx", "ny"):
            if _whole(getattr(self, name), f"{name} must be an integer", None) < 2:
                raise ValueError("grids need at least 2 points per axis")

    def xs(self) -> tuple[float, ...]:
        return self._xs

    def ys(self) -> tuple[float, ...]:
        return self._ys

    # cached_property stores in the instance __dict__, which a frozen
    # dataclass's __setattr__ does not guard; the fields, and so equality
    # and hashing, are unchanged
    @functools.cached_property
    def _xs(self) -> tuple[float, ...]:
        return _lattice("x", self.x_min, self.x_max, self.nx)

    @functools.cached_property
    def _ys(self) -> tuple[float, ...]:
        return _lattice("y", self.y_min, self.y_max, self.ny)


def _lattice(axis: str, lo: float, hi: float, n: int) -> tuple[float, ...]:
    """The n points of one axis from lo to hi, or a ValueError naming the
    axis when a point is not finite or a count cannot be blended in floats."""
    last = n - 1
    try:
        pts = (lo, *[(lo * (last - i) + hi * i) / last for i in range(1, last)], hi)
    except OverflowError:  # a count past the float range: float(last - i) overflows
        raise ValueError(f"the {axis} lattice cannot be computed in floats: "
                         f"n{axis} is past the float range; use fewer points") from None
    if not all(map(math.isfinite, pts)):
        raise ValueError(
            f"the {axis} lattice from {lo!r} to {hi!r} has non-finite points: "
            f"the endpoint blend overflows; narrow the {axis} range")
    return pts


@dataclass(frozen=True)
class ScalarField:
    """Row-major field values: rows run y_min upward, columns x_min upward.

    ``values`` is stored as a tuple and must hold exactly nx * ny values.
    """

    spec: GridSpec
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(self.values)
        nx, ny = self.spec.nx, self.spec.ny
        if len(values) != nx * ny:
            raise ValueError(f"a {nx}x{ny} grid needs {nx * ny} values, got {len(values)}")
        object.__setattr__(self, "values", values)

    def at(self, ix: int, iy: int) -> float:
        return self.values[iy * self.spec.nx + ix]


@dataclass(frozen=True)
class PolarProbe:
    """A first-quadrant probe point below the identity crest, in polar form:
    angle alpha in [0, pi/4) up from the x-axis, radius rho > 0 and finite,
    both stored as floats."""

    alpha: float
    rho: float

    def __post_init__(self):
        alpha = _real(self.alpha, "alpha must lie in [0, pi/4)", _below_crest)
        rho = _real(self.rho, "rho must be positive and finite", _positive_finite)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rho", rho)


def _below_crest(alpha: float) -> bool:
    return 0.0 <= alpha < math.pi / 4


def jr_value(x: float, y: float) -> float:
    """The scalar Jaccard surface: signed min over max of absolutes, 0 at
    the origin."""
    den = max(abs(x), abs(y))
    if den == 0.0:
        return 0.0
    return kernel(MsetOpKind.SCAP, x, y) / den


class _Columns(NamedTuple):
    """The x side of the lattice, prepared once per field: the coordinates,
    their magnitudes, and the sign product sx*sy for a row with y > 0
    (``pos``) and with y < 0 (``neg``), as 1.0, -1.0 or +0.0."""

    xs: tuple[float, ...]
    mag: tuple[float, ...]
    pos: tuple[float, ...]
    neg: tuple[float, ...]


def _columns(xs: tuple[float, ...]) -> _Columns:
    pos = tuple(1.0 if x > 0 else -1.0 if x < 0 else 0.0 for x in xs)
    neg = tuple(-s if s else 0.0 for s in pos)
    return _Columns(xs, tuple(map(abs, xs)), pos, neg)


# Row evaluators: (columns, y, d) -> the row's values, x from x_min upward.
# Each one gives, bit for bit, what the public per-cell definitions give:
# kernel()'s gate table for the min/max surfaces, jr_value, signed_power
# of jr_value and gen_kronecker.  The sign product s is exact and applied
# last: s*m is m, -m or +0.0 (x == 0), as kernel()'s weight gives, and
# s*(m/den) equals (s*m)/den.  A row with y == 0 lies on the zero gate of
# the signed surfaces and is +0.0 throughout.

def _a1_row(c, y, d):
    if y == 0:
        return [0.0] * len(c.xs)
    ay = abs(y)
    return [s * (a if a < ay else ay) for s, a in zip(c.pos if y > 0 else c.neg, c.mag)]


def _a2_row(c, y, d):
    ay = abs(y)
    return [a if a > ay else ay for a in c.mag]


def _a3_row(c, y, d):
    return [x * y for x in c.xs]


def _a4_row(c, y, d):
    ay = abs(y)
    yy = ay * ay
    return [a * a if a > ay else yy for a in c.mag]


def _a5_row(c, y, d):
    ay = abs(y)
    return [a if a < ay else ay for a in c.mag]


def _jr_row(c, y, d):
    if y == 0:
        return [0.0] * len(c.xs)
    ay = abs(y)
    # min(|x|, |y|) / max(|x|, |y|), signed
    return [s * (a / ay if a < ay else ay / a)
            for s, a in zip(c.pos if y > 0 else c.neg, c.mag)]


def _jr_pow_row(c, y, d):
    return _signed_powers(_jr_row(c, y, d), d)


def _kron_row(c, y, d):
    if y == 0:
        return [0.0] * len(c.xs)
    ny = -y
    return [1.0 if x == y else -1.0 if x == ny else 0.0 for x in c.xs]


_ROWS = {
    FieldExpr.A1: _a1_row,
    FieldExpr.A2: _a2_row,
    FieldExpr.A3: _a3_row,
    FieldExpr.A4: _a4_row,
    FieldExpr.A5: _a5_row,
    FieldExpr.JR: _jr_row,
    FieldExpr.JR_POW: _jr_pow_row,
    FieldExpr.KRON: _kron_row,
}


def field_rows(expr: FieldExpr, spec: GridSpec, d: int | None = None) -> Iterator[list[float]]:
    """The surface's rows over the lattice, one list of nx values at a
    time, y from y_min upward: the rows of ``field(expr, spec, d).values``.

    ``d`` is the power for FieldExpr.JR_POW, any int of at least 1 (past
    2**1023 only its parity matters: see :func:`msetsim.indices.signed_power`),
    and ignored otherwise.  The arguments are checked when this is called,
    before the first row: an ``expr`` that is not a FieldExpr and a power
    that is not such an int raise ValueError, and so does a lattice that
    :meth:`GridSpec.xs` or :meth:`GridSpec.ys` refuses, naming the axis.
    Each row is evaluated when it is asked for, so a caller that writes
    rows as they come holds one row, not the field.
    """
    row = _member(_ROWS, expr, "field expression")
    if expr is FieldExpr.JR_POW:
        _whole(d, "JR_POW needs a positive integer power")
    c = _columns(spec.xs())
    return (row(c, y, d) for y in spec.ys())  # spec.ys() is built here, not at the first row


def field(expr: FieldExpr, spec: GridSpec, d: int | None = None) -> ScalarField:
    """Evaluate one surface over the lattice: the rows of
    :func:`field_rows`, checked as it checks them, in one ScalarField."""
    return ScalarField(spec, tuple(itertools.chain.from_iterable(field_rows(expr, spec, d))))


def probe(p: PolarProbe) -> float:
    """The scalar Jaccard surface at (rho cos alpha, rho sin alpha).

    The surface is conical: along any circle around the origin it equals
    tan(alpha), independent of the radius.
    """
    return jr_value(p.rho * math.cos(p.alpha), p.rho * math.sin(p.alpha))
