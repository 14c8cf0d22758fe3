"""Scalar fields over rectangular (x, y) grids: the building-block surfaces
of the similarity indices and the signed-delta reference surface.

The lattice is endpoint-inclusive and, for ranges symmetric about zero,
exactly negation-symmetric, so the crests x = +-y land on representable
lattice points and surface symmetries hold bit for bit.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .msetops import MsetOpKind, kernel


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
    """

    x_min: float = -2.0
    x_max: float = 2.0
    y_min: float = -2.0
    y_max: float = 2.0
    nx: int = 401
    ny: int = 401

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got {self.x_min!r} >= {self.x_max!r}")
        if not self.y_min < self.y_max:
            raise ValueError(f"need y_min < y_max, got {self.y_min!r} >= {self.y_max!r}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grids need at least 2 points per axis")

    def xs(self) -> tuple[float, ...]:
        return _lattice(self.x_min, self.x_max, self.nx)

    def ys(self) -> tuple[float, ...]:
        return _lattice(self.y_min, self.y_max, self.ny)


def _lattice(lo: float, hi: float, n: int) -> tuple[float, ...]:
    last = n - 1
    pts = [lo]
    for i in range(1, last):
        pts.append((lo * (last - i) + hi * i) / last)
    pts.append(hi)
    return tuple(pts)


@dataclass(frozen=True)
class ScalarField:
    """Row-major field values: rows run y_min upward, columns x_min upward."""

    spec: GridSpec
    values: tuple[float, ...]

    def at(self, ix: int, iy: int) -> float:
        return self.values[iy * self.spec.nx + ix]


@dataclass(frozen=True)
class PolarProbe:
    """A first-quadrant probe point below the identity crest, in polar form:
    angle alpha in [0, pi/4) up from the x-axis, radius rho > 0."""

    alpha: float
    rho: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and 0.0 <= self.alpha < math.pi / 4):
            raise ValueError(f"alpha must lie in [0, pi/4), got {self.alpha!r}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be positive, got {self.rho!r}")


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
    # signed_power of each jr value
    if d % 2:
        return [math.copysign(abs(v) ** d, v) for v in _jr_row(c, y, d)]
    return [abs(v) ** d for v in _jr_row(c, y, d)]


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


def _finite_axis(axis: str, lo: float, hi: float, pts: tuple[float, ...]) -> tuple[float, ...]:
    if not all(map(math.isfinite, pts)):
        raise ValueError(
            f"the {axis} lattice from {lo!r} to {hi!r} has non-finite points: "
            f"the endpoint blend overflows; narrow the {axis} range")
    return pts


def field(expr: FieldExpr, spec: GridSpec, d: int | None = None,
          threads: int = 1) -> ScalarField:
    """Evaluate one surface over the lattice.

    ``d`` is the power for FieldExpr.JR_POW and ignored otherwise.
    ``threads`` must be >= 1; it is accepted for compatibility and changes
    nothing: rows are evaluated one after another in this thread, and the
    result was always identical for every thread count.  Lattices with a
    non-finite point (ranges so wide that the endpoint blend overflows)
    raise ValueError naming the axis.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    if expr is FieldExpr.JR_POW and (not isinstance(d, int) or d < 1):
        raise ValueError(f"JR_POW needs a positive integer power, got {d!r}")
    row = _ROWS[expr]
    xs = _finite_axis("x", spec.x_min, spec.x_max, spec.xs())
    ys = _finite_axis("y", spec.y_min, spec.y_max, spec.ys())
    c = _columns(xs)
    values: list[float] = []
    for y in ys:
        values += row(c, y, d)
    return ScalarField(spec, tuple(values))


def probe(p: PolarProbe) -> float:
    """The scalar Jaccard surface at (rho cos alpha, rho sin alpha).

    The surface is conical: along any circle around the origin it equals
    tan(alpha), independent of the radius.
    """
    return jr_value(p.rho * math.cos(p.alpha), p.rho * math.sin(p.alpha))
