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
goes through the same gated sum, whose branches on the operands' signs
give the gate and both magnitudes, and :func:`kernel` is that sum over the
single pair (x, y); ``indices.split_intersection`` sums its
alpha-weighted gates through it too.  A zero term leaves a left-to-right
sum unchanged (the running total starts at +0.0 and can never become
-0.0), so the loop skips the pairs whose term is zero.  The sign-split
mixes take their alpha weights from one rule, :func:`_alpha_weights`.

Parameters are checked once, here.  Every public parameter that is not a
sample (a spacing, the sign-split alpha, a power, a grid bound or point
count, a heatmap level, a probe angle or radius, a column index, an
operation, surface or slide index) goes through one of three rules:
:func:`_real` for a real number, :func:`_whole` for a count or an index,
and :func:`_member` for a key of the table it picks from.  Each failure is
a ValueError that names the parameter.  A real is stored as a float, and
text and bools are refused, though ``float()`` takes them; a bool is not a
count, though it is an int.  Samples are not parameters: the pointwise
kernels check their operands with ``math.isfinite``, which costs them less
than a call, and :class:`Signal` converts each sample with ``float()``, so
a text sample such as ``Signal(["1"])`` is still read as a number.
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
    one type.  Samples must be finite and the signal nonempty; ``values``
    is a sequence of numbers, so text and bytes are refused whole rather
    than read one character or byte at a time, and sets and dicts are
    refused rather than read in their iteration order.  Two signals enter a
    binary operation only with equal length and equal dx.
    """

    values: tuple[float, ...]
    dx: float = 1.0

    def __post_init__(self):
        if isinstance(self.values, (str, bytes, bytearray, set, frozenset, dict)):
            raise ValueError(f"signal samples must be numbers, got {type(self.values).__name__}")
        vals = tuple(map(float, self.values))
        if not vals:
            raise ValueError("signal needs at least one sample")
        if not all(map(math.isfinite, vals)):
            bad = next(v for v in vals if not math.isfinite(v))
            raise ValueError(f"signal samples must be finite, got {bad!r}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dx", _spacing(self.dx))

    def __len__(self) -> int:
        return len(self.values)


def _real(value, requirement: str, test=None) -> float:
    """``value`` as a float, raising ValueError(f"{requirement}, got
    {value!r}") unless it is a real number that passes ``test``: the one
    rule for a real parameter.  Text and bools are refused, though
    ``float()`` takes them, and so is anything ``float()`` refuses.  An int
    past the float range becomes +-inf, for ``test`` or the caller's
    finiteness check to report.  ``test`` is a module-level predicate on
    the float, or None to take any float."""
    # a float, the common case, skips the isinstance test, which costs about
    # as much as the rest of the rule
    if type(value) is float or not isinstance(value, (str, bytes, bytearray, bool)):
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            number = math.inf if value > 0 else -math.inf
        except (TypeError, ValueError):
            number = None
        if number is not None and (test is None or test(number)):
            return number
    raise ValueError(f"{requirement}, got {value!r}")


def _whole(value, requirement: str, least: int | None = 1) -> int:
    """``value``, raising ValueError(f"{requirement}, got {value!r}")
    unless it is an int, not a bool, and at least ``least`` (None for no
    lower bound): the one rule for a count or an index."""
    if type(value) is bool or not isinstance(value, int) or least is not None and value < least:
        raise ValueError(f"{requirement}, got {value!r}")
    return value


def _member(table, key, what: str):
    """``table[key]``, raising ValueError(f"unknown {what}: {key!r}") for a
    key the table does not hold or cannot hash: the one lookup of an
    operation, surface or slide index in its table."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {what}: {key!r}") from None


def _positive_finite(v: float) -> bool:
    return 0.0 < v < math.inf


def _unit(v: float) -> bool:
    return 0.0 <= v <= 1.0


def _spacing(dx) -> float:
    """``dx`` as a float, raising unless it is a positive finite real: the
    one spacing rule, for :class:`Signal` and for callers that check a
    spacing before building signals with it."""
    return _real(dx, "sample spacing must be a positive finite real", _positive_finite)


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


def _gated_sum(weights, xs, ys) -> float:
    """Left-to-right sum over paired operands of a gate weight times the min
    or max of the magnitudes, for a weight row ``(same, opposite, zero,
    use_max)`` as in :data:`_GATED`; a pair of weight 0 is skipped, which
    leaves the sum as 0.0 * magnitude would.

    Negating both operands keeps their gate and their magnitudes, so a
    negative x is folded onto a positive one first; then the sign branches
    on x and y give the gate and both magnitudes, with no ``abs()`` call.
    Only x < 0 is folded, because a zero x takes the zero gate whatever the
    sign of y.  A zero operand's magnitude may come out as -0.0; its term
    is then +-0, which leaves a sum that starts at +0.0 unchanged, as the
    +0.0 term of ``abs()`` would."""
    same, opposite, zero, use_max = weights
    total = 0.0
    for x, y in zip(xs, ys):
        if x < 0.0:
            x = -x
            y = -y
        if x > 0.0:
            if y > 0.0:
                w = same
            elif y < 0.0:
                w = opposite
                y = -y
            else:
                w = zero
        else:
            w = zero
            if y < 0.0:
                y = -y
        if w:
            if use_max:
                total += w * (y if y > x else x)
            else:
                total += w * (y if y < x else x)
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
    return _gated_sum(_member(_GATED, kind, "operation kind"), (x,), (y,))


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
        total = _gated_sum(_member(_GATED, kind, "operation kind"), f.values, g.values)
    return f.dx * total


def _alpha_weights(alpha: float) -> tuple[float, float]:
    """The weights (2*alpha, 2*(1-alpha)) of the same-sign and opposite-sign
    parts in a sign-split mix; alpha = 0.5 weighs both parts 1."""
    alpha = _real(alpha, "alpha must lie in [0, 1]", _unit)
    return 2.0 * alpha, 2.0 * (1.0 - alpha)


def _raw_mass(values) -> float:
    """The left-to-right sum of the absolute sample values, without dx."""
    total = 0.0
    for v in values:
        total += v if v > 0 else -v
    return total


def abs_mass(f: Signal) -> float:
    """dx times the sum of absolute sample values; the operand's total magnitude."""
    return f.dx * _raw_mass(f.values)
