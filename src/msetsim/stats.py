"""Sample statistics and the sign-split (double) inner product and Pearson
coefficient.

Variance and covariance use the unbiased 1/(N-1) normalization throughout,
so the double Pearson parts recombine to the plain coefficient at
alpha = 0.5.  Each mean and variance is computed once per operand, with
explicit left-to-right sums, and sums that share a pass share one loop:
covariance and pearson take their centred sums from the same pass.  The
sign splits sum the positive and the negative products apart:
``split_inner`` streams the products of the samples through
``_split_sums``, which also carries the 0 * inf term of a product that
overflows, and ``double_pearson`` sums those of the standardized samples
in its own loop, where no product can overflow.  Every pair function
refuses operands whose lengths or sample spacings differ.
``_pearson_windows`` is the Pearson window
preparation for :func:`msetsim.sliding.slide`: it takes the template's
statistics once and scores two adjacent windows per call through
``_pearson``, the rule that decides where :func:`pearson` is undefined.
"""

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .indices import _defined
from .msetops import Signal, _alpha_weights, require_compatible


class SampleStats(NamedTuple):
    mean: float
    variance: float
    std: float
    n: int


def _total(values) -> float:
    total = 0.0
    for x in values:
        total += x
    return total


def mean(v: Signal) -> float:
    """Arithmetic mean of the samples."""
    return _total(v.values) / len(v.values)


def sample_stats(v: Signal) -> SampleStats:
    """Mean, unbiased variance, and standard deviation; needs >= 2 samples."""
    n = len(v.values)
    if n < 2:
        raise ValueError("variance needs at least 2 samples")
    m = mean(v)
    total = 0.0
    for x in v.values:
        d = x - m
        total += d * d
    var = total / (n - 1)
    return SampleStats(m, var, math.sqrt(var), n)


def _location_scale(v: Signal) -> tuple[float, float]:
    """The mean and standard deviation that standardize ``v``.

    A standardized sample (x - mean) / std is non-finite only when the
    standard deviation overflows to inf, and then every sample would be 0
    or NaN, so that case raises here, as does a zero variance; with the
    pair returned, every standardized sample is finite.
    """
    st = sample_stats(v)
    if st.std == 0.0:
        raise ValueError("cannot standardize a zero-variance signal")
    if st.std == math.inf:
        raise ValueError("cannot standardize this signal: the variance overflows")
    return st.mean, st.std


def standardize(v: Signal) -> Signal:
    """Affine-map the samples to zero mean and unit standard deviation.

    Raises ValueError for a zero variance and for one that overflows to
    inf (samples near the float limit), where no standardized value would
    be correct.
    """
    m, s = _location_scale(v)
    return Signal([(x - m) / s for x in v.values], v.dx)


def _centred_sums(x: Signal, y: Signal) -> tuple[float, float, float]:
    """Sums of (x - mx)**2, (y - my)**2 and (x - mx)*(y - my), in one pass."""
    mx = mean(x)
    my = mean(y)
    sxx = syy = sxy = 0.0
    for a, b in zip(x.values, y.values):
        da = a - mx
        db = b - my
        sxx += da * da
        syy += db * db
        sxy += da * db
    return sxx, syy, sxy


def covariance(x: Signal, y: Signal) -> float:
    """Unbiased sample covariance of two equal-length signals."""
    require_compatible(x, y)
    n = len(x.values)
    if n < 2:
        raise ValueError("covariance needs at least 2 samples")
    return _centred_sums(x, y)[2] / (n - 1)


def _pearson(cov_sum: float, std_x: float, std_y: float, n: int) -> float:
    """Pearson from the centred cross sum and the two standard deviations:
    the one place that decides pearson is undefined, for a zero standard
    deviation or one that overflows, and raises."""
    if std_x == 0.0 or std_y == 0.0:
        raise ValueError("pearson correlation is undefined for a zero-variance operand")
    if not (math.isfinite(std_x) and math.isfinite(std_y)):
        raise ValueError("cannot compute this pearson correlation: the variance overflows")
    r = cov_sum / (n - 1) / (std_x * std_y)
    return min(1.0, max(-1.0, r))


def pearson(x: Signal, y: Signal) -> float:
    """Pearson correlation coefficient, from the two means and one fused
    pass for both variances and the covariance.

    Cauchy-Schwarz bounds the true value by 1, so the result is clamped to
    [-1, 1] only to absorb rounding excursions.  Raises ValueError when
    either variance is zero, or overflows to inf (samples near the float
    limit), where the clamp would turn a NaN ratio into -1.
    """
    if len(x.values) < 2 or len(y.values) < 2:
        raise ValueError("variance needs at least 2 samples")
    require_compatible(x, y)
    n = len(x.values)
    sxx, syy, sxy = _centred_sums(x, y)
    return _pearson(sxy, math.sqrt(sxx / (n - 1)), math.sqrt(syy / (n - 1)), n)


@dataclass(frozen=True)
class SplitProduct:
    """An inner product split into its same-sign (>= 0) and opposite-sign
    (<= 0) parts; the two parts add back to the plain inner product."""

    same_sign: float
    opposite_sign: float

    def combined(self, alpha: float) -> float:
        """The mix 2*alpha*same_sign + 2*(1-alpha)*opposite_sign; alpha = 0.5
        recovers the plain inner product."""
        wp, wm = _alpha_weights(alpha)
        return wp * self.same_sign + wm * self.opposite_sign


def _split_sums(products) -> tuple[float, float]:
    """Sums of the positive and the negative terms of a stream of
    products f*g: the same-sign and opposite-sign parts of
    :func:`split_inner`.

    Only a same-signed pair has a positive product and only an
    opposite-signed pair a negative one; a zero product (a zero sample, or
    underflow) adds nothing to either part.  A product that overflows to
    infinity also puts 0*inf, a NaN, into the other part, as the gated form
    gate * product does.
    """
    plus = minus = 0.0
    for p in products:
        if p > 0.0:
            plus += p
            if p == math.inf:
                minus += 0.0 * p
        elif p < 0.0:
            minus += p
            if p == -math.inf:
                plus += 0.0 * p
    return plus, minus


def split_inner(f: Signal, g: Signal) -> SplitProduct:
    """Split the inner product into the contributions of same-signed and
    opposite-signed sample pairs.

    Pairs with a zero sample sit on the gate boundary (half weight in each
    gate) but contribute zero to both parts since their product is zero.
    """
    require_compatible(f, g)
    plus, minus = _split_sums(map(operator.mul, f.values, g.values))
    return SplitProduct(f.dx * plus, f.dx * minus)


class DoublePearson(NamedTuple):
    p_plus: float
    p_minus: float
    p_alpha: float


def double_pearson(x: Signal, y: Signal, alpha: float) -> DoublePearson:
    """Pearson correlation split into same-sign and opposite-sign parts of
    the standardized operands, plus their alpha-mix.

    p_plus >= 0 collects sample pairs lying on the same side of their means
    and p_minus <= 0 the opposite-side pairs; p_alpha at alpha = 0.5
    recovers the plain Pearson coefficient.  The parts expose structure the
    plain coefficient hides: a cloud mixing y = x with y = -x branches has
    Pearson near 0 but a strongly negative p_minus, while a single branch
    has p_minus = 0.

    The products of the standardized samples are split and summed in the
    function's own loop, with no new :class:`Signal`; like
    :func:`standardize`, this raises ValueError when either variance is
    zero or overflows to inf, checking x before y.
    """
    wp, wm = _alpha_weights(alpha)
    require_compatible(x, y)
    n = len(x.values)
    mx, sx = _location_scale(x)
    my, sy = _location_scale(y)
    # Unit spacing: the split is a vector statistic like the coefficient.
    # No product below is infinite, so the split needs no 0 * inf term:
    # each standardized sample is at most about 1.5 * sqrt(n - 1) in
    # magnitude.  Its deviation d was squared into the variance sum, which
    # never rounds below its term fl(d * d).  That term, and the variance's
    # division by n - 1, keep at least 2/3 of their exact value when they
    # land among the subnormals and not on 0, and all but an ulp of it
    # above them; the variance is not 0 (it was refused), and a d whose
    # square rounds to 0 standardizes below 1 in magnitude.  So every
    # product is at most about 2.25 * (n - 1).
    plus = minus = 0.0
    for a, b in zip(x.values, y.values):
        p = ((a - mx) / sx) * ((b - my) / sy)
        if p > 0.0:
            plus += p
        elif p < 0.0:
            minus += p
    p_plus = plus / (n - 1)
    p_minus = minus / (n - 1)
    return DoublePearson(p_plus, p_minus, wp * p_plus + wm * p_minus)


def _pearson_windows(template: Signal, signal: Signal):
    """The window preparation of pearson for slide: score(k) gives the
    Pearson coefficients of the template with the windows at lags k and
    k + 1, from one slice of the zero-padded signal and two passes that
    carry window k's sample, as the preparations in :mod:`msetsim.indices`
    do: the window means, then the centred sums.  Each window goes through
    _pearson, the pair function's own rule, by _defined, so it is None
    exactly where pearson() would raise on it.  A template of fewer than 2
    samples raises here, in sample_stats, as pearson() would on every
    window."""
    tv, sv, m = template.values, signal.values + (0.0,), len(template.values)
    st = sample_stats(template)
    tdev = tuple(a - st.mean for a in tv)

    def score(k):
        window = sv[k + 1:k + 1 + m]
        s0 = s1 = 0.0
        x = sv[k]
        for y in window:
            s0 += x
            s1 += y
            x = y
        m0 = s0 / m
        m1 = s1 / m
        sww0 = stw0 = sww1 = stw1 = 0.0
        x = sv[k]
        for da, y in zip(tdev, window):
            d = x - m0
            sww0 += d * d
            stw0 += da * d
            d = y - m1
            sww1 += d * d
            stw1 += da * d
            x = y
        return (_defined(_pearson, stw0, st.std, math.sqrt(sww0 / (m - 1)), m),
                _defined(_pearson, stw1, st.std, math.sqrt(sww1 / (m - 1)), m))
    return score
