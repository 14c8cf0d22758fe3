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
alpha-weighted gates through it too.  The sum has one loop body per
magnitude rule, min and max, each with no test of the weight: a zero term
leaves a left-to-right sum unchanged (the running total starts at +0.0 and
can never become -0.0), so a pair of weight 0, or one whose minimum is 0,
adds its +-0 term.  The sign-split
mixes take their alpha weights from one rule, :func:`_alpha_weights`.

Parameters are checked once, here.  Every public parameter that is not a
sample (a spacing, the sign-split alpha, a power, a grid bound or point
count, a heatmap level, a probe angle or radius, a column index, an
operation, surface or slide index) goes through one of three rules:
:func:`_real` for a real number, :func:`_whole` for a count or an index,
and :func:`_member` for a key of the table it picks from.  Each failure is
a ValueError that names the parameter and shows the refused value by
:func:`_shown`.  A sequence parameter (a :class:`Signal`'s samples,
``read_csv``'s column selectors) goes through :func:`_sequence`, whose
message names the refused value's type.  A real is stored as a float, and
text and bools are refused, though ``float()`` takes them; a bool is not a
count, though it is an int.  The operands x and y of the public pointwise
functions (:func:`kernel`, ``sign``, ``conjoint_signs``, ``gen_kronecker``
and ``jr_value``) go through one rule too, :func:`_operands`: a finite real
number, taken as a float.  Only :class:`Signal` reads its samples its own
way: it converts each with ``float()``, so a text sample such as
``Signal(["1"])`` is still read as a number.
"""

import math
import sys
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
    is a sequence of numbers, by the rule of :func:`_sequence`: a value
    that is not iterable is refused, text and bytes are refused whole
    rather than read one character or byte at a time, and sets and dicts
    rather than read in their iteration order.  Each sample is
    converted with ``float()``; one it refuses or that is not finite raises
    a ValueError naming the first such sample.  Two signals enter a binary
    operation only with equal length and equal dx.
    """

    values: tuple[float, ...]
    dx: float = 1.0

    def __post_init__(self):
        values = _sequence(self.values, "signal samples must be numbers")
        try:
            vals = tuple(map(float, values))
        except (TypeError, ValueError, OverflowError):  # a sample float() refuses
            vals = None
        if vals is None or not all(map(math.isfinite, vals)):
            raise ValueError(f"signal samples must be finite, got {_shown(_first_refused(values))}")
        if not vals:
            raise ValueError("signal needs at least one sample")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dx", _spacing(self.dx))

    def __len__(self) -> int:
        return len(self.values)


def _first_refused(values, finite: bool = True):
    """The first of ``values`` that ``float()`` refuses, or with ``finite``
    the first conversion that is not finite: the sample a :class:`Signal`
    names, and without it the value a field names."""
    for v in values:
        try:
            number = float(v)
        except (TypeError, ValueError, OverflowError):
            return v
        if finite and not math.isfinite(number):
            return number


def _shown(value) -> str:
    """``repr(value)``, the refused value a message shows, or where repr
    raises, as it does for an int past the interpreter's limit on digits
    converted to text (4,300 by default) and for a number holding one, a
    description of it: the message then still names what was refused."""
    try:
        return repr(value)
    except ValueError:
        sign = "a negative" if value < 0 else "a"
        return f"{sign} number of more than {sys.get_int_max_str_digits()} digits"


def _real(value, requirement: str, test=None) -> float:
    """``value`` as a float, raising ValueError(f"{requirement}, got
    {_shown(value)}") unless it is a real number that passes ``test``: the
    one rule for a real parameter.  Text and bools are refused, though
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
    raise ValueError(f"{requirement}, got {_shown(value)}")


def _sequence(values, requirement: str):
    """``values``, or its items in a tuple when it is a one-shot iterator,
    so that they can be read again, raising ValueError(f"{requirement},
    got {type name}") unless it is an ordered iterable that is not text:
    the one rule for a sequence parameter.  Text and bytes are refused
    whole rather than read a character or a byte at a time, and sets and
    dicts rather than read in their iteration order.  The message names
    the refused value's type, not the value, which may be long."""
    try:
        once = iter(values) is values
    except TypeError:  # not iterable
        once = None
    if once is None or isinstance(values, (str, bytes, bytearray, set, frozenset, dict)):
        raise ValueError(f"{requirement}, got {type(values).__name__}")
    return tuple(values) if once else values


def _whole(value, requirement: str, least: int | None = 1) -> int:
    """``value``, raising ValueError(f"{requirement}, got {_shown(value)}")
    unless it is an int, not a bool, and at least ``least`` (None for no
    lower bound): the one rule for a count or an index."""
    if type(value) is bool or not isinstance(value, int) or least is not None and value < least:
        raise ValueError(f"{requirement}, got {_shown(value)}")
    return value


def _member(table, key, what: str):
    """``table[key]``, raising ValueError(f"unknown {what}: {_shown(key)}")
    for a key the table does not hold or cannot hash: the one lookup of an
    operation, surface or slide index in its table."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {what}: {_shown(key)}") from None


def _operands(x, y=0.0) -> tuple[float, float]:
    """``x`` and ``y`` as floats, each by :func:`_real` with a finiteness
    test: the one rule for the operands of a public pointwise function,
    whose ValueError names the refused operand.  A function of one operand
    takes the first."""
    return (_real(x, "x must be a finite real number", math.isfinite),
            _real(y, "y must be a finite real number", math.isfinite))


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
    use_max)`` as in :data:`_GATED`, with one loop body per magnitude rule.

    Negating both operands keeps their gate and their magnitudes, so a
    pair is folded onto a positive x first; then the sign branches on y
    give the gate and y's magnitude, with no ``abs()`` call.  A pair with a
    zero operand has a zero minimum, so the min body needs no zero gate: it
    folds every x that is not positive, as ``indices._jaccard_samples``
    does, and weighs such a pair by its same-sign or opposite-sign weight,
    for a +-0 term.  The max body keeps the zero gate and folds only x < 0,
    because a zero x takes the zero gate whatever the sign of y.  Every
    weight is finite and every magnitude finite, so a weight of +-0, or a
    zero magnitude, gives a +-0 term, which leaves a sum that starts at
    +0.0 unchanged (the total can never become -0.0), as skipping the pair
    or the +0.0 term of ``abs()`` would."""
    same, opposite, zero, use_max = weights
    total = 0.0
    if use_max:
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
            total += w * (y if y > x else x)
    else:
        for x, y in zip(xs, ys):
            if not x > 0.0:
                x = -x
                y = -y
            if y > 0.0:
                total += same * (y if y < x else x)
            else:
                y = -y
                total += opposite * (y if y < x else x)
    return total


def kernel(kind: MsetOpKind, x: float, y: float) -> float:
    """Pointwise integrand of one multiset operation at the pair (x, y).

    The signed forms multiply min/max of the absolute values by the sign
    product; the half forms replace the sign product by the same-sign or
    opposite-sign gate, so SCAP == SCAP_PLUS - SCAP_MINUS pointwise (and
    likewise for SCUP).  Every kind but CAP and CUP is the gated sum over
    the single pair, so a zero result is +0.0: the sum starts at +0.0, and
    a +-0 term leaves it so.  The operands go
    through the operand rule, so the result is a float for an int or
    ``Fraction`` operand too.
    """
    x, y = _operands(x, y)
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
