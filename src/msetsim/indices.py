"""Similarity indices over signal pairs: inner-product geometry, the
real-valued Jaccard family, interiority, and coincidence.

Zero-denominator conventions keep every index total: a ratio over two
identically zero signals is 0 for the Jaccard family and 1 for interiority
(vacuous containment), so coincidence stays 0 through its Jaccard factor.
An overflowing denominator gives no finite wrong answer in a pair
function: where the union, the smaller absolute mass or an operand's raw
sum of squares is inf, the pair loop scores the samples again scaled by a
power of two (``_scaled``), one comparison per call and nothing per
sample, so every result whose denominator is finite keeps its bits.
``slide``'s windows follow the same rule, one comparison per window: a
Jaccard or coincidence window whose union is inf, and a cosine window
whose own or the template's raw sum of squares is inf, is scored by the
pair loop on that window's slice.  :func:`jaccard_alt`, whose squared
union can leave the normal range at either end, scores the pair again from
scaled samples at a scaled spacing.

The normalised indices (Jaccard, interiority, coincidence, cosine and the
Jaccard power) are ratios of two sums over the same samples, so the
spacing ``dx`` cancels: each is taken over the raw sums and does not depend
on ``dx``.  Only the values that scale with the spacing multiply by it:
:func:`inner`, :func:`norm`, :func:`euclidean`, :func:`jaccard_alt`,
:func:`split_intersection`, the aggregations and absolute mass of
:mod:`msetsim.msetops`, and :func:`msetsim.stats.split_inner`.

The sums an index needs are taken in fused left-to-right passes over the
validated sample tuples, several accumulators to a loop, with each
accumulator adding the same terms in the same order as the single-sum
definition, so the fused results are bit-identical to it.  The Jaccard
family has two loop shapes.  The pair functions and :func:`report` walk
the raw samples: negating both samples of a pair keeps how their signs
relate and both magnitudes, so each pair is first folded onto a positive
first sample, and one branch on the second sample's sign then gives both
magnitudes and the sign of the intersection term; the loop behind
interiority and coincidence also sums both operands' absolute masses, so
:func:`report` takes every sum in two passes.  The ``_*_windows``
functions are window preparations for :func:`msetsim.sliding.slide`:
each is a generator that does the template's share of the work once and
then yields every window's score in lag order, two windows from each
slice and pass, the pass carrying the first window's sample.  The
Jaccard and coincidence preparations build each operand's sign-flag and
magnitude tuples once, because each sample's gates are shared by the m
windows that hold it, and each pair of windows slices them once.  Both
shapes turn their sums into an index through the same rule,
``_jaccard_value`` or ``_interiority_value``, so each ratio and its
zero-denominator convention are written once; the cosine windows go
through ``_cosine`` or ``_pair_cosine``, by ``_defined``, so a window is
undefined exactly when :func:`cosine` would raise on it.
"""

import math
from dataclasses import dataclass

# kernel and abs_mass are no longer called here; they stay importable from
# this module, where the benchmark's tracer (perfbench/spans.py) wraps them.
from .msetops import (MsetOpKind, Signal, _alpha_weights, _gated_sum, _raw_mass, _real,  # noqa: F401
                      _whole, abs_mass, aggregate, kernel, require_compatible)

_positive = (0.0).__lt__  # v > 0 for a float v


@dataclass(frozen=True)
class SimilarityReport:
    """Every index for one operand pair, as assembled by :func:`report`."""

    jaccard: float
    interiority: float
    coincidence: float
    cosine: float
    inner: float
    norm_f: float
    norm_g: float
    euclidean: float


# Each Jaccard-family index has one rule that turns the loop's sums into its
# value, and two loop shapes that call it.  The pair loops walk the raw
# sample tuples.  Whether two samples have the same sign, opposite signs or a
# zero among them does not change when both are negated, and neither do
# their magnitudes, so a pair whose x is not positive is negated whole; x is
# then its magnitude, and one branch on y > 0.0 gives y's magnitude and the
# sign of the intersection term, so no sign flag or abs() is computed per
# sample.  A zero x is negated with its pair and may become -0.0; a sum that
# starts at +0.0 never changes when +-0 is added, so the sums are those of
# |x|.  The window loops take each operand as a tuple of "is positive" flags
# and a tuple of magnitudes instead, because slide shares each sample's
# gates among the m windows that hold it.  In both shapes a pair with a zero
# operand has a zero minimum, so its signed-intersection term is zero
# whichever side it lands on, and each accumulator adds the same terms in
# the same order.

def _jaccard_value(scap: float, acup: float) -> float:
    """The Jaccard index from its raw signed-intersection and union sums:
    0 when the union is 0, that is, for two identically zero operands."""
    return 0.0 if acup == 0.0 else scap / acup


def _interiority_value(acap: float, fmass: float, gmass: float) -> float:
    """Interiority from the raw sign-blind intersection sum and the
    operands' raw absolute masses: 1 when the smaller mass is 0."""
    den = min(fmass, gmass)
    return 1.0 if den == 0.0 else acap / den


def _scaled(power: int, *operands) -> list[tuple[float, ...]]:
    """The operands' samples times 2**-k, for a pair loop to score again
    when a sum of magnitudes (``power`` 1) or of squares (``power`` 2)
    overflowed.  With every magnitude below 2**e (``math.frexp`` of the
    largest) and n < 2**L samples an operand (``int.bit_length``), k = e -
    (1023 - L) // power keeps each sum of n such terms below 2**1023, and k
    >= 1 whenever one overflowed.  A ratio of sums is the same at either
    scale, since the scaling is exact for every sample it leaves at or
    above 2**-1022; those below lose low bits as subnormals, or become
    zeros, but each is then far below the overflowing sum it would join."""
    top = max(max(max(v), -min(v)) for v in operands)
    k = math.frexp(top)[1] - (1023 - len(operands[0]).bit_length()) // power
    return [tuple(math.ldexp(x, -k) for x in v) for v in operands]


def _jaccard_samples(fv, gv) -> float:
    """The real-valued Jaccard index of two sample tuples."""
    scap = acup = 0.0
    for x, y in zip(fv, gv):
        if not x > 0.0:  # a sign relation survives negating both samples
            x = -x
            y = -y
        # x and y become the magnitudes; same signs add the smaller one
        # to scap, opposite signs or a zero subtract it
        if y > 0.0:
            if y > x:
                acup += y
                scap += x
            else:
                acup += x
                scap += y
        else:
            y = -y
            if y > x:
                acup += y
                scap -= x
            else:
                acup += x
                scap -= y
    if acup == math.inf:  # the union overflows: score the scaled samples
        return _jaccard_samples(*_scaled(1, fv, gv))
    return _jaccard_value(scap, acup)


def _jaccard_interiority_samples(fv, gv) -> tuple[float, float]:
    """Jaccard and interiority of two sample tuples; the loop also sums
    both operands' absolute masses, adding the terms of :func:`abs_mass`
    in its order.  Where the union overflows, Jaccard is scored again from
    the scaled samples, and so is interiority where the smaller mass
    overflows too (the union is never below either mass)."""
    scap = acup = acap = fmass = gmass = 0.0
    for x, y in zip(fv, gv):
        if not x > 0.0:  # a sign relation survives negating both samples
            x = -x
            y = -y
        fmass += x
        if y > 0.0:
            gmass += y
            if y > x:
                acup += y
                acap += x
                scap += x
            else:
                acup += x
                acap += y
                scap += y
        else:
            y = -y
            gmass += y
            if y > x:
                acup += y
                acap += x
                scap -= x
            else:
                acup += x
                acap += y
                scap -= y
    if acup == math.inf:
        j, i = _jaccard_interiority_samples(*_scaled(1, fv, gv))
        if min(fmass, gmass) < math.inf:  # interiority's denominator is finite
            i = _interiority_value(acap, fmass, gmass)
        return j, i
    return _jaccard_value(scap, acup), _interiority_value(acap, fmass, gmass)


def _dot(fv, gv) -> float:
    total = 0.0
    for a, b in zip(fv, gv):
        total += a * b
    return total


def _products(fv, gv) -> tuple[float, float, float, float]:
    """Sums of f*f, g*g, f*g and (f-g)**2."""
    ff = gg = fg = ee = 0.0
    for a, b in zip(fv, gv):
        ff += a * a
        gg += b * b
        fg += a * b
        d = a - b
        ee += d * d
    return ff, gg, fg, ee


def inner(f: Signal, g: Signal) -> float:
    """Inner product dx * sum(f_i * g_i), summed left to right."""
    require_compatible(f, g)
    return f.dx * _dot(f.values, g.values)


def norm(f: Signal) -> float:
    """Euclidean norm, the square root of the self inner product."""
    return math.sqrt(f.dx * _dot(f.values, f.values))


def euclidean(f: Signal, g: Signal) -> float:
    """Euclidean distance: the norm of the pointwise difference."""
    require_compatible(f, g)
    total = 0.0
    for a, b in zip(f.values, g.values):
        d = a - b
        total += d * d
    return math.sqrt(f.dx * total)


def _cosine(fg: float, nf: float, ng: float) -> float:
    """Cosine from the raw cross-product sum and the square roots of the
    raw sums of squares: the one place that decides cosine is undefined,
    for a zero norm, and raises."""
    if nf == 0.0 or ng == 0.0:
        raise ValueError("cosine similarity is undefined for a zero-norm operand")
    return fg / (nf * ng)


def _pair_cosine(fv, gv, ff: float, gg: float, fg: float) -> float:
    """Cosine of two sample tuples from their raw sums f*f, g*g and f*g;
    an operand whose sum of squares overflows is scaled on its own first,
    as the cosine does not change when one operand is scaled, and the sums
    are taken again."""
    if ff == math.inf or gg == math.inf:
        if ff == math.inf:
            fv, = _scaled(2, fv)
        if gg == math.inf:
            gv, = _scaled(2, gv)
        ff, gg, fg, _ = _products(fv, gv)
    return _cosine(fg, math.sqrt(ff), math.sqrt(gg))


def cosine(f: Signal, g: Signal) -> float:
    """Cosine similarity; undefined (raises) for a zero-norm operand.

    The spacing cancels, so the ratio is taken over the raw sums and does
    not depend on ``dx``: an operand has a zero norm here only when its raw
    sum of squares is 0, that is, when its samples are all zero or all so
    small that their squares underflow.

    The ratio is not clamped, so rounding can take it past +-1 by an ulp:
    ``cosine((2, 4, -2), (1, 2, -1))`` is 1.0000000000000002.  (Pearson
    clamps to [-1, 1].)
    """
    require_compatible(f, g)
    ff, gg, fg, _ = _products(f.values, g.values)
    return _pair_cosine(f.values, g.values, ff, gg, fg)


def jaccard(f: Signal, g: Signal) -> float:
    """Real-valued Jaccard index: signed intersection over union of absolutes.

    Ranges over [-1, 1]: +1 when f == g, -1 when f == -g, 0 when both
    signals are identically zero (the only case with a zero denominator).
    For all-nonnegative samples this reduces to the classic sum-of-min over
    sum-of-max multiset ratio.
    """
    require_compatible(f, g)
    return _jaccard_samples(f.values, g.values)


def jaccard_alt(f: Signal, g: Signal) -> float:
    """Inner product over the squared union of absolutes.

    Agrees with :func:`jaccard` for length-1 operands, where the inner
    product factors exactly into signed intersection times union of
    absolutes; for longer signals the two generally differ because that
    factorization holds pointwise, not for the aggregates (f=(2,1),
    g=(1,2) gives jaccard 0.5 but jaccard_alt 0.25).

    It is 0 for two identically zero operands.  Where the squared union
    overflows, or falls below the normal range while some sample is not
    zero, the pair is scored again from its samples scaled by 2**-k, the
    largest magnitude then in [0.5, 1), at the spacing scaled by 2**-e
    into [0.5, 1): the value does not change with the samples' scale, and
    scales with 1 / dx, so it is the rescored value times 2**-e.  A value
    past the float range is inf with its sign.
    """
    den = aggregate(MsetOpKind.ACUP, f, g)
    den_sq = den * den
    if 2.0 ** -1022 <= den_sq < math.inf:
        return inner(f, g) / den_sq
    if not (any(f.values) or any(g.values)):
        return 0.0
    k = math.frexp(max(max(map(abs, v)) for v in (f.values, g.values)))[1]
    dx, e = math.frexp(f.dx)
    fv, gv = ([math.ldexp(x, -k) for x in v.values] for v in (f, g))
    den = dx * _gated_sum((1.0, 1.0, 1.0, True), fv, gv)  # the union, as aggregate takes it
    r = dx * _dot(fv, gv) / (den * den)
    try:
        return math.ldexp(r, -e)
    except OverflowError:
        return math.copysign(math.inf, r)


def _pair_jaccard_interiority(f: Signal, g: Signal) -> tuple[float, float]:
    require_compatible(f, g)
    return _jaccard_interiority_samples(f.values, g.values)


def interiority(f: Signal, g: Signal) -> float:
    """Containment of the smaller operand: sign-blind intersection mass over
    the smaller absolute mass.

    Returns 1 when the smaller mass is zero: a zero-mass operand is
    vacuously contained.
    """
    return _pair_jaccard_interiority(f, g)[1]


def coincidence(f: Signal, g: Signal) -> float:
    """Product of the real-valued Jaccard and interiority indices."""
    j, i = _pair_jaccard_interiority(f, g)
    return j * i


def _signed_powers(values, d: int) -> list[float]:
    """:func:`signed_power` of each of the float sequence ``values``, for a
    checked int ``d`` of at least 1: the one home of the sign-kept power.

    Below 2**53, ``float(d)`` keeps d's parity, and CPython's float power
    takes an integral power of a negative base as that of its magnitude,
    negated for an odd one, with the sign of a zero and an inf kept the
    same way: so for an odd d, ``v ** d`` is ``copysign(abs(v) ** d, v)``
    bit for bit.  An even d takes ``abs(v) ** d``, so a NaN power is
    never negative.  An exponent past 2**1023 is capped, its parity kept:
    from there on every |v| < 1 gives 0, |v| = 1 gives 1 and |v| > 1
    overflows, so the cap changes no result.  A power past the float range
    raises OverflowError; none of a value in [-1, 1] (a Jaccard value) is.
    """
    d = min(d, (1 << 1023) + d % 2)
    if d % 2 == 0:
        return [abs(v) ** d for v in values]
    if d < 1 << 53:
        return [v ** d for v in values]
    return [math.copysign(abs(v) ** d, v) for v in values]


def signed_power(value: float, exponent: int) -> float:
    """|value| ** exponent, keeping the sign of value for odd exponents.

    ``value`` is a real parameter, taken as a float by the rule of
    :mod:`msetsim.msetops`: text and bools raise ValueError, and an int past
    the float range is +-inf, so the result is always a float.  Every int
    of at least 1 is an exponent, and every float has a power:

    - for an odd exponent a zero keeps its sign too, as IEEE 754 ``pow``
      does: ``signed_power(-0.0, 3)`` is ``-0.0``, like ``(-0.0) ** 3``;
      an even exponent gives ``+0.0``;
    - a power past the float range is inf with the sign it would have, as
      a product that overflows is inf: ``signed_power(1e200, 2)`` is inf
      and ``signed_power(-2.0, 2001)`` is -inf;
    - from an exponent of 2**1023 on, each |value| < 1 gives 0 and
      |value| = 1 gives 1, signed as above: the closed forms that the
      powers of a Jaccard value, never above 1 in magnitude, converge to.
    """
    value = _real(value, "value must be a real number")
    try:
        return _signed_powers((value,), _whole(exponent, "exponent must be a positive integer"))[0]
    except OverflowError:  # past the float range
        return math.copysign(math.inf, value) if exponent % 2 else math.inf


def jaccard_power(f: Signal, g: Signal, d: int) -> float:
    """Sharpened Jaccard: the Jaccard ratio raised to the power d, sign kept
    for odd d.

    Odd powers steepen the crests, converging to the generalized Kronecker
    delta as d grows; even powers fold the anti-crest up to +1.
    """
    return signed_power(jaccard(f, g), d)


def split_intersection(f: Signal, g: Signal, alpha: float) -> float:
    """Signed intersection with its same-sign and opposite-sign parts reweighted.

    Aggregates 2*alpha*(same-sign part) - 2*(1-alpha)*(opposite-sign part)
    in a single pass of the gate loop that serves :func:`aggregate`, with
    the weight row (2*alpha, -2*(1-alpha), 0, min), so alpha = 0.5
    reproduces the plain signed intersection bit for bit.
    """
    wp, wm = _alpha_weights(alpha)
    require_compatible(f, g)
    return f.dx * _gated_sum((wp, -wm, 0.0, False), f.values, g.values)


def report(f: Signal, g: Signal) -> SimilarityReport:
    """Compute every index for one operand pair."""
    require_compatible(f, g)
    fv, gv, dx = f.values, g.values, f.dx
    j, i = _jaccard_interiority_samples(fv, gv)
    ff, gg, fg, ee = _products(fv, gv)
    return SimilarityReport(
        jaccard=j,
        interiority=i,
        coincidence=j * i,
        cosine=_pair_cosine(fv, gv, ff, gg, fg),
        inner=dx * fg,
        norm_f=math.sqrt(dx * ff),
        norm_g=math.sqrt(dx * gg),
        euclidean=math.sqrt(dx * ee),
    )




# Window preparations for slide (see sliding._SCORERS).  The caller has
# checked that the template fits in the signal and that the spacings agree.
# Each is a generator that takes the lags k = 0, 2, 4, ... and yields the
# score of the window at lag k, then that of the window at k + 1.  The two
# windows share every sample but one, so one pass over the template serves
# both: it slices the signal once, as [k + 1 : k + 1 + m], the samples of
# window k + 1, and carries window k's sample in a local, the sample window
# k + 1 held one pass earlier.  Each window's accumulators add the same
# terms in the same order as a loop over that window alone, so every score
# is the pair function's value, bit for bit; only the two windows' terms
# interleave.  The signal is padded with one zero sample, so that window
# k + 1 exists at the last lag too; slide stops before it asks for that
# window's score.  A window whose denominator overflows (the union, or a
# raw sum of squares for cosine) is scored by the pair loop on its slice,
# which rescores it as the pair function does.  A window on which the
# index is undefined scores None: the cosine windows go through _cosine or
# _pair_cosine, the pair function's own rule, by _defined.

def _defined(rule, *sums):
    """rule(*sums), or None where the rule refuses (raises ValueError): the
    score of a window on which the index is undefined."""
    try:
        return rule(*sums)
    except ValueError:
        return None


def _window_gates(values):
    """The sign-flag and magnitude tuples of a sample sequence, for slicing."""
    return tuple(map(_positive, values)), tuple(map(abs, values))


def _inner_windows(template: Signal, signal: Signal):
    tv, sv, dx, m = template.values, signal.values + (0.0,), signal.dx, len(template.values)
    for k in range(0, len(sv) - m, 2):
        s0 = s1 = 0.0
        x = sv[k]
        for a, y in zip(tv, sv[k + 1:k + 1 + m]):
            s0 += a * x
            s1 += a * y
            x = y
        yield dx * s0
        yield dx * s1


def _jaccard_windows(template: Signal, signal: Signal):
    tv, sv, m = template.values, signal.values, len(template.values)
    tp, ta = _window_gates(tv)
    sp, sa = _window_gates(sv + (0.0,))
    for k in range(0, len(sp) - m, 2):
        scap0 = acup0 = scap1 = acup1 = 0.0
        p0, a0 = sp[k], sa[k]
        for pt, at, p1, a1 in zip(tp, ta, sp[k + 1:k + 1 + m], sa[k + 1:k + 1 + m]):
            if a0 > at:
                acup0 += a0
                if pt is p0:
                    scap0 += at
                else:
                    scap0 -= at
            else:
                acup0 += at
                if pt is p0:
                    scap0 += a0
                else:
                    scap0 -= a0
            if a1 > at:
                acup1 += a1
                if pt is p1:
                    scap1 += at
                else:
                    scap1 -= at
            else:
                acup1 += at
                if pt is p1:
                    scap1 += a1
                else:
                    scap1 -= a1
            p0, a0 = p1, a1
        yield (_jaccard_value(scap0, acup0) if acup0 < math.inf
               else _jaccard_samples(tv, sv[k:k + m]))
        yield (_jaccard_value(scap1, acup1) if acup1 < math.inf
               else _jaccard_samples(tv, sv[k + 1:k + 1 + m]))


def _coincidence_windows(template: Signal, signal: Signal):
    tv, sv, m = template.values, signal.values, len(template.values)
    tp, ta = _window_gates(tv)
    sp, sa = _window_gates(sv + (0.0,))
    tmass = _raw_mass(tv)
    for k in range(0, len(sp) - m, 2):
        scap0 = acup0 = acap0 = mass0 = scap1 = acup1 = acap1 = mass1 = 0.0
        p0, a0 = sp[k], sa[k]
        for pt, at, p1, a1 in zip(tp, ta, sp[k + 1:k + 1 + m], sa[k + 1:k + 1 + m]):
            mass0 += a0
            if a0 > at:
                acup0 += a0
                acap0 += at
                if pt is p0:
                    scap0 += at
                else:
                    scap0 -= at
            else:
                acup0 += at
                acap0 += a0
                if pt is p0:
                    scap0 += a0
                else:
                    scap0 -= a0
            mass1 += a1
            if a1 > at:
                acup1 += a1
                acap1 += at
                if pt is p1:
                    scap1 += at
                else:
                    scap1 -= at
            else:
                acup1 += at
                acap1 += a1
                if pt is p1:
                    scap1 += a1
                else:
                    scap1 -= a1
            p0, a0 = p1, a1
        # math.prod((j, i)) is 1 * j * i, and 1 * j is j, bit for bit
        yield (_jaccard_value(scap0, acup0) * _interiority_value(acap0, tmass, mass0)
               if acup0 < math.inf else math.prod(_jaccard_interiority_samples(tv, sv[k:k + m])))
        yield (_jaccard_value(scap1, acup1) * _interiority_value(acap1, tmass, mass1)
               if acup1 < math.inf
               else math.prod(_jaccard_interiority_samples(tv, sv[k + 1:k + 1 + m])))


def _cosine_windows(template: Signal, signal: Signal):
    tv, sv, m = template.values, signal.values + (0.0,), len(template.values)
    tt = _dot(tv, tv)
    nt = math.sqrt(tt)
    for k in range(0, len(sv) - m, 2):
        tw0 = ww0 = tw1 = ww1 = 0.0
        x = sv[k]
        w1 = sv[k + 1:k + 1 + m]
        for a, y in zip(tv, w1):
            tw0 += a * x
            ww0 += x * x
            tw1 += a * y
            ww1 += y * y
            x = y
        # ww + tt is inf where either raw sum of squares is, and where only
        # their sum overflows, which _pair_cosine then takes as given
        yield (_defined(_cosine, tw0, nt, math.sqrt(ww0)) if ww0 + tt < math.inf
               else _defined(_pair_cosine, tv, sv[k:k + m], tt, ww0, tw0))
        yield (_defined(_cosine, tw1, nt, math.sqrt(ww1)) if ww1 + tt < math.inf
               else _defined(_pair_cosine, tv, w1, tt, ww1, tw1))
