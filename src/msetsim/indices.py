"""Similarity indices over signal pairs: inner-product geometry, the
real-valued Jaccard family, interiority, and coincidence.

Zero-denominator conventions keep every index total: a ratio over two
identically zero signals is 0 for the Jaccard family and 1 for interiority
(vacuous containment), so coincidence stays 0 through its Jaccard factor.

The sums an index needs are taken in fused left-to-right passes over the
validated sample tuples, several accumulators to a loop, with each
accumulator adding the same terms in the same order as the single-sum
definition, so the fused results are bit-identical to it.  The ``_*_windows``
functions score a template against every valid window of a signal for
:func:`msetsim.sliding.slide`, doing the template's share of the work once
per call.
"""

import math
from dataclasses import dataclass

# kernel is no longer called here; it stays importable from this module,
# where the benchmark's tracer (perfbench/spans.py) wraps it.
from .msetops import MsetOpKind, Signal, abs_mass, aggregate, kernel, require_compatible  # noqa: F401

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


# Fused sum loops.  The min/max loops take each operand as a stream of
# "is positive" flags and a stream of magnitudes: same-sign pairs are those
# with equal flags, and a pair with a zero operand has a zero minimum, so
# its signed-intersection term is zero whichever side it lands on.

def _jaccard_sums(fp, fa, gp, ga) -> tuple[float, float]:
    """Signed-intersection and absolute-union sums."""
    scap = acup = 0.0
    for xp, ax, yp, ay in zip(fp, fa, gp, ga):
        if ay > ax:
            acup += ay
            if xp is yp:
                scap += ax
            else:
                scap -= ax
        else:
            acup += ax
            if xp is yp:
                scap += ay
            else:
                scap -= ay
    return scap, acup


def _overlap_sums(fp, fa, gp, ga) -> tuple[float, float, float, float]:
    """Signed-intersection, absolute-union and absolute-intersection sums,
    and the absolute mass of the second operand."""
    scap = acup = acap = gmass = 0.0
    for xp, ax, yp, ay in zip(fp, fa, gp, ga):
        gmass += ay
        if ay > ax:
            acup += ay
            acap += ax
            if xp is yp:
                scap += ax
            else:
                scap -= ax
        else:
            acup += ax
            acap += ay
            if xp is yp:
                scap += ay
            else:
                scap -= ay
    return scap, acup, acap, gmass


def _gates(values):
    """The sign-flag and magnitude streams of a sample sequence."""
    return map(_positive, values), map(abs, values)


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


def _ratio(num: float, den: float, empty: float) -> float:
    return empty if den == 0.0 else num / den


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


def _cosine(dx: float, ff: float, gg: float, fg: float) -> float:
    nf = math.sqrt(dx * ff)
    ng = math.sqrt(dx * gg)
    if nf == 0.0 or ng == 0.0:
        raise ValueError("cosine similarity is undefined for a zero-norm operand")
    return dx * fg / (nf * ng)


def cosine(f: Signal, g: Signal) -> float:
    """Cosine similarity; undefined (raises) for a zero-norm operand."""
    require_compatible(f, g)
    ff, gg, fg, _ = _products(f.values, g.values)
    return _cosine(f.dx, ff, gg, fg)


def jaccard(f: Signal, g: Signal) -> float:
    """Real-valued Jaccard index: signed intersection over union of absolutes.

    Ranges over [-1, 1]: +1 when f == g, -1 when f == -g, 0 when both
    signals are identically zero (the only case with a zero denominator).
    For all-nonnegative samples this reduces to the classic sum-of-min over
    sum-of-max multiset ratio.
    """
    require_compatible(f, g)
    scap, acup = _jaccard_sums(*_gates(f.values), *_gates(g.values))
    return _ratio(f.dx * scap, f.dx * acup, 0.0)


def jaccard_alt(f: Signal, g: Signal) -> float:
    """Inner product over the squared union of absolutes.

    Agrees with :func:`jaccard` for length-1 operands, where the inner
    product factors exactly into signed intersection times union of
    absolutes; for longer signals the two generally differ because that
    factorization holds pointwise, not for the aggregates (f=(2,1),
    g=(1,2) gives jaccard 0.5 but jaccard_alt 0.25).
    """
    den = aggregate(MsetOpKind.ACUP, f, g)
    den_sq = den * den
    if den_sq == 0.0:
        # covers identically zero signals and operands so small that the
        # square underflows; the numerator underflows at the same scale
        return 0.0
    return inner(f, g) / den_sq


def _jaccard_interiority(dx: float, fmass: float, sums) -> tuple[float, float]:
    """Jaccard and interiority from the first operand's :func:`abs_mass`
    and the pair's overlap sums."""
    scap, acup, acap, gmass = sums
    j = _ratio(dx * scap, dx * acup, 0.0)
    return j, _ratio(dx * acap, min(fmass, dx * gmass), 1.0)


def _pair_jaccard_interiority(f: Signal, g: Signal) -> tuple[float, float]:
    require_compatible(f, g)
    sums = _overlap_sums(*_gates(f.values), *_gates(g.values))
    return _jaccard_interiority(f.dx, abs_mass(f), sums)


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


def signed_power(value: float, exponent: int) -> float:
    """|value| ** exponent, keeping the sign of value for odd exponents."""
    if not isinstance(exponent, int) or exponent < 1:
        raise ValueError(f"exponent must be a positive integer, got {exponent!r}")
    p = abs(value) ** exponent
    return math.copysign(p, value) if exponent % 2 else p


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
    in a single pointwise pass, so alpha = 0.5 reproduces the plain signed
    intersection bit for bit.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    require_compatible(f, g)
    wp = 2.0 * alpha
    wm = 2.0 * (1.0 - alpha)
    total = 0.0
    for xp, ax, yp, ay in zip(*_gates(f.values), *_gates(g.values)):
        if xp is yp:
            total += wp * (ay if ay < ax else ax)
        else:
            total -= wm * (ay if ay < ax else ax)
    return f.dx * total


def report(f: Signal, g: Signal) -> SimilarityReport:
    """Compute every index for one operand pair."""
    require_compatible(f, g)
    fv, gv, dx = f.values, g.values, f.dx
    j, i = _jaccard_interiority(dx, abs_mass(f), _overlap_sums(*_gates(fv), *_gates(gv)))
    ff, gg, fg, ee = _products(fv, gv)
    return SimilarityReport(
        jaccard=j,
        interiority=i,
        coincidence=j * i,
        cosine=_cosine(dx, ff, gg, fg),
        inner=dx * fg,
        norm_f=math.sqrt(dx * ff),
        norm_g=math.sqrt(dx * gg),
        euclidean=math.sqrt(dx * ee),
    )


# Window scorers for slide: each returns the score of every valid window,
# lag 0 first, and the lags flagged degenerate (scored 0).  The caller has
# checked that the template fits in the signal and that the spacings agree.

def _window_gates(values):
    """The sign-flag and magnitude tuples of a sample sequence, for slicing."""
    return tuple(map(_positive, values)), tuple(map(abs, values))


def _inner_windows(template: Signal, signal: Signal):
    tv, sv, dx, m = template.values, signal.values, signal.dx, len(template.values)
    return [dx * _dot(tv, sv[k:k + m]) for k in range(len(sv) - m + 1)], []


def _jaccard_windows(template: Signal, signal: Signal):
    m, dx = len(template.values), signal.dx
    tp, ta = _window_gates(template.values)
    sp, sa = _window_gates(signal.values)
    scores = []
    for k in range(len(sa) - m + 1):
        scap, acup = _jaccard_sums(tp, ta, sp[k:k + m], sa[k:k + m])
        scores.append(_ratio(dx * scap, dx * acup, 0.0))
    return scores, []


def _coincidence_windows(template: Signal, signal: Signal):
    m, dx = len(template.values), signal.dx
    tp, ta = _window_gates(template.values)
    sp, sa = _window_gates(signal.values)
    tmass = abs_mass(template)
    scores = []
    for k in range(len(sa) - m + 1):
        j, i = _jaccard_interiority(dx, tmass, _overlap_sums(tp, ta, sp[k:k + m], sa[k:k + m]))
        scores.append(j * i)
    return scores, []


def _cosine_windows(template: Signal, signal: Signal):
    tv, sv, dx, m = template.values, signal.values, signal.dx, len(template.values)
    lags = range(len(sv) - m + 1)
    nt = norm(template)
    if nt == 0.0:
        return [0.0] * len(lags), list(lags)
    scores = []
    flagged = []
    for k in lags:
        tw = ww = 0.0
        for a, b in zip(tv, sv[k:k + m]):
            tw += a * b
            ww += b * b
        nw = math.sqrt(dx * ww)
        if nw == 0.0:
            scores.append(0.0)
            flagged.append(k)
        else:
            scores.append(dx * tw / (nt * nw))
    return scores, flagged
