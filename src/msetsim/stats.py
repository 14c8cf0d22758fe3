"""Sample statistics and the sign-split (double) inner product and Pearson
coefficient.

Variance and covariance use the unbiased 1/(N-1) normalization throughout,
so the double Pearson parts recombine to the plain coefficient at
alpha = 0.5.  Each mean and variance is computed once per operand, with
explicit left-to-right sums, and sums that share a pass share one loop:
covariance and pearson take their centred sums from the same pass.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .msetops import Signal, require_compatible


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


def standardize(v: Signal) -> Signal:
    """Affine-map the samples to zero mean and unit standard deviation."""
    st = sample_stats(v)
    if st.std == 0.0:
        raise ValueError("cannot standardize a zero-variance signal")
    return Signal(tuple((x - st.mean) / st.std for x in v.values), v.dx)


def _pair_length(x: Signal, y: Signal) -> int:
    n = len(x.values)
    if len(y.values) != n:
        raise ValueError(f"signal lengths differ: {n} vs {len(y.values)}")
    return n


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
    n = _pair_length(x, y)
    if n < 2:
        raise ValueError("covariance needs at least 2 samples")
    return _centred_sums(x, y)[2] / (n - 1)


def _pearson(cov_sum: float, std_x: float, std_y: float, n: int) -> float:
    r = cov_sum / (n - 1) / (std_x * std_y)
    return min(1.0, max(-1.0, r))


def pearson(x: Signal, y: Signal) -> float:
    """Pearson correlation coefficient, from the two means and one fused
    pass for both variances and the covariance.

    Cauchy-Schwarz bounds the true value by 1, so the result is clamped to
    [-1, 1] only to absorb rounding excursions.
    """
    if len(x.values) < 2 or len(y.values) < 2:
        raise ValueError("variance needs at least 2 samples")
    n = _pair_length(x, y)
    sxx, syy, sxy = _centred_sums(x, y)
    std_x = math.sqrt(sxx / (n - 1))
    std_y = math.sqrt(syy / (n - 1))
    if std_x == 0.0 or std_y == 0.0:
        raise ValueError("pearson correlation is undefined for a zero-variance operand")
    return _pearson(sxy, std_x, std_y, n)


@dataclass(frozen=True)
class SplitProduct:
    """An inner product split into its same-sign (>= 0) and opposite-sign
    (<= 0) parts; the two parts add back to the plain inner product."""

    same_sign: float
    opposite_sign: float

    def combined(self, alpha: float) -> float:
        """The mix 2*alpha*same_sign + 2*(1-alpha)*opposite_sign; alpha = 0.5
        recovers the plain inner product."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
        return 2.0 * alpha * self.same_sign + 2.0 * (1.0 - alpha) * self.opposite_sign


def _split_sums(fv, gv) -> tuple[float, float]:
    """Sums of the same-sign and opposite-sign products f*g.

    Only a same-signed pair has a positive product and only an
    opposite-signed pair a negative one; a zero product (a zero sample, or
    underflow) adds nothing to either part.  A product that overflows to
    infinity also puts 0*inf, a NaN, into the other part, as the gated form
    gate * product does.
    """
    plus = minus = 0.0
    for a, b in zip(fv, gv):
        p = a * b
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
    plus, minus = _split_sums(f.values, g.values)
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
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    n = _pair_length(x, y)
    # unit spacing: the split is a vector statistic like the coefficient itself
    plus, minus = _split_sums(standardize(x).values, standardize(y).values)
    p_plus = plus / (n - 1)
    p_minus = minus / (n - 1)
    p_alpha = 2.0 * alpha * p_plus + 2.0 * (1.0 - alpha) * p_minus
    return DoublePearson(p_plus, p_minus, p_alpha)


def _pearson_windows(template: Signal, signal: Signal):
    """Pearson score of every valid window, and the lags flagged degenerate
    (fewer than 2 samples or zero variance on either side), for slide."""
    tv, sv, m = template.values, signal.values, len(template.values)
    lags = range(len(sv) - m + 1)
    st = sample_stats(template) if m >= 2 else None
    if st is None or st.variance == 0.0:
        return [0.0] * len(lags), list(lags)
    tdev = tuple(a - st.mean for a in tv)
    scores = []
    flagged = []
    for k in lags:
        window = sv[k:k + m]
        mw = _total(window) / m
        sww = stw = 0.0
        for da, b in zip(tdev, window):
            db = b - mw
            sww += db * db
            stw += da * db
        var = sww / (m - 1)
        if var == 0.0:
            scores.append(0.0)
            flagged.append(k)
        else:
            scores.append(_pearson(stw, st.std, math.sqrt(var), m))
    return scores, flagged
