"""Sampled signals and the ten sign-aware multiset binary operations, as
pointwise kernels and as rectangle-rule aggregations over signal pairs.

:class:`Signal` is the one place samples are validated: every sample is
checked finite once, when the signal is built.  Code below that boundary
works on the validated value tuples directly, with no per-sample checks.

Aggregation is a plain left-to-right ``total += term`` loop over the value
tuples, so results are bit-identical across runs and platforms with the
same float semantics.  The builtin ``sum()`` is not used: from CPython 3.12
it sums floats with compensation, so its result would depend on the
interpreter version.  There is one gate loop: every kind but CAP and CUP
goes through the same gated sum, with the sign gate taken from comparisons
of the operands, and :func:`kernel` is that sum over the single pair
(x, y).  A zero term leaves a left-to-right sum unchanged (the running
total starts at +0.0 and can never become -0.0), so the loop skips the
pairs whose term is zero.
"""

import math
from dataclasses import dataclass
from enum import Enum


class MsetOpKind(Enum):
    """Tags for the ten binary operations; see :func:`kernel` for formulas."""

    CAP = "cap"                # min(x, y): plain intersection
    CUP = "cup"                # max(x, y): plain union
    SCAP = "scap"              # sx*sy * min(|x|, |y|): signed intersection
    SCUP = "scup"              # sx*sy * max(|x|, |y|): signed union
    SCAP_MINUS = "scap_minus"  # opposite-sign-gated intersection magnitude
    SCAP_PLUS = "scap_plus"    # same-sign-gated intersection magnitude
    SCUP_MINUS = "scup_minus"  # opposite-sign-gated union magnitude
    SCUP_PLUS = "scup_plus"    # same-sign-gated union magnitude
    ACAP = "acap"              # min(|x|, |y|): intersection of absolutes
    ACUP = "acup"              # max(|x|, |y|): union of absolutes


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled real sequence with sample spacing ``dx``.

    ``dx`` defaults to 1 so plain vectors and discretized functions share
    one type.  Samples must be finite and the signal nonempty; two signals
    enter a binary operation only with equal length and equal dx.
    """

    values: tuple[float, ...]
    dx: float = 1.0

    def __post_init__(self):
        vals = tuple(map(float, self.values))
        if not vals:
            raise ValueError("signal needs at least one sample")
        if not all(map(math.isfinite, vals)):
            bad = next(v for v in vals if not math.isfinite(v))
            raise ValueError(f"signal samples must be finite, got {bad!r}")
        dx = float(self.dx)
        if not math.isfinite(dx) or dx <= 0:
            raise ValueError(f"sample spacing must be a positive finite real, got {dx!r}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dx", dx)

    def __len__(self) -> int:
        return len(self.values)


def require_compatible(f: Signal, g: Signal) -> None:
    """Raise unless f and g share length and sample spacing."""
    if len(f.values) != len(g.values):
        raise ValueError(f"signal lengths differ: {len(f.values)} vs {len(g.values)}")
    if f.dx != g.dx:
        raise ValueError(f"sample spacings differ: {f.dx!r} vs {g.dx!r}")


# Every kind but CAP and CUP is a sign-gate weight times the min or max of
# the magnitudes |x| and |y|, and the weight depends only on whether the
# operands have the same sign, opposite signs, or a zero among them: the
# sign product sx*sy for the signed forms, the half gates |sx +- sy| / 2 for
# the gated forms, 1 for the absolute forms.  Each entry is (same-sign
# weight, opposite-sign weight, zero-operand weight, uses max).  With two
# zero operands the half gates are 0, not 1/2, but the magnitude is then 0
# too, so the product does not change.
_GATED = {
    MsetOpKind.SCAP: (1.0, -1.0, 0.0, False),
    MsetOpKind.SCUP: (1.0, -1.0, 0.0, True),
    MsetOpKind.SCAP_MINUS: (0.0, 1.0, 0.5, False),
    MsetOpKind.SCAP_PLUS: (1.0, 0.0, 0.5, False),
    MsetOpKind.SCUP_MINUS: (0.0, 1.0, 0.5, True),
    MsetOpKind.SCUP_PLUS: (1.0, 0.0, 0.5, True),
    MsetOpKind.ACAP: (1.0, 1.0, 1.0, False),
    MsetOpKind.ACUP: (1.0, 1.0, 1.0, True),
}


def _gated_sum(kind, xs, ys) -> float:
    """Left-to-right sum of the gated kernel over paired operands; a pair of
    weight 0 is skipped, which leaves the sum as 0.0 * magnitude would."""
    try:
        same, opposite, zero, use_max = _GATED[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown operation kind: {kind!r}") from None
    total = 0.0
    for x, y in zip(xs, ys):
        if x == 0 or y == 0:
            w = zero
        elif (x > 0) is (y > 0):
            w = same
        else:
            w = opposite
        if w:
            ax = abs(x)
            ay = abs(y)
            if use_max:
                total += w * (ay if ay > ax else ax)
            else:
                total += w * (ay if ay < ax else ax)
    return total


def kernel(kind: MsetOpKind, x: float, y: float) -> float:
    """Pointwise integrand of one multiset operation at the pair (x, y).

    The signed forms multiply min/max of the absolute values by the sign
    product; the half forms replace the sign product by the same-sign or
    opposite-sign gate, so SCAP == SCAP_PLUS - SCAP_MINUS pointwise (and
    likewise for SCUP).  Every kind but CAP and CUP is the gated sum over
    the single pair, so a zero result is +0.0: a weight of -1 needs two
    nonzero operands, whose magnitude is then nonzero.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"kernel() requires finite operands, got ({x!r}, {y!r})")
    if kind is MsetOpKind.CAP:
        return min(x, y)
    if kind is MsetOpKind.CUP:
        return max(x, y)
    return _gated_sum(kind, (x,), (y,))


def aggregate(kind: MsetOpKind, f: Signal, g: Signal) -> float:
    """dx times the left-to-right sum of the pointwise kernel over the pair."""
    require_compatible(f, g)
    total = 0.0
    if kind is MsetOpKind.CAP:
        for x, y in zip(f.values, g.values):
            total += y if y < x else x
    elif kind is MsetOpKind.CUP:
        for x, y in zip(f.values, g.values):
            total += y if y > x else x
    else:
        total = _gated_sum(kind, f.values, g.values)
    return f.dx * total


def abs_mass(f: Signal) -> float:
    """dx times the sum of absolute sample values; the operand's total magnitude."""
    total = 0.0
    for v in f.values:
        total += v if v > 0 else -v
    return f.dx * total
