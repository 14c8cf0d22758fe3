"""The two sign-split loops on the pair path, by bits against the oracles.

``double_pearson`` sums the products of the standardized samples in its own
loop, with no 0 * inf term, and the gate loop behind ``aggregate``,
``kernel`` and ``split_intersection`` has one body per magnitude rule, with
no test of the weight.  Both are checked here at lengths 1 to 300 over
every binade, with signed zeros, subnormals and +-1e308, at alpha 0, 0.5, 1
and a drawn alpha: alpha 0 and 1 give the split intersection the +0.0 and
-0.0 weights whose pairs the loop no longer skips.  The standardized
samples' bound, which lets ``double_pearson`` leave out the 0 * inf terms,
is checked on operands whose variance is subnormal or just below overflow.
"""

import math
import random
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msetsim.indices import split_intersection
from msetsim.msetops import MsetOpKind, Signal, aggregate
from msetsim.stats import _location_scale, double_pearson

from oracles import OP_NAMES, oaggregate, omean, osplit_inner, osplit_intersection, ovariance

MAX = sys.float_info.max
EDGE = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1e308, MAX, -MAX)


def key(v: float) -> bytes:
    """The bit pattern of v, with every NaN mapped to one key."""
    return b"nan" if math.isnan(v) else struct.pack("<d", v)


def operand(rng: random.Random, n: int) -> list:
    """n samples around one drawn binade, spread over a few binades more,
    with a drawn share of edge values.  A whole operand of one scale keeps
    its variance finite and nonzero often enough: most binades drawn are
    those whose squares stay normal, and the edge values near the float
    limit join a quarter of the operands; the rest of the binades, where
    the variance underflows to 0 or overflows, are drawn too."""
    r = rng.random()
    if r < 0.7:
        binade = rng.randint(-530, 505)
    elif r < 0.8:
        binade = rng.randint(-1074, -531)
    else:
        binade = rng.randint(506, 1024)
    spread = rng.choice((0, 1, 4, 60))
    edges = EDGE if rng.random() < 0.25 else EDGE[:6]
    edge_share = rng.choice((0.0, 0.05, 0.5))
    values = []
    for _ in range(n):
        if rng.random() < edge_share:
            values.append(rng.choice(edges))
        else:
            exponent = min(max(binade + rng.randint(-spread, spread), -1074), 1024)
            values.append(rng.choice((1.0, -1.0)) * math.ldexp(rng.uniform(0.5, 0.9999), exponent))
    return values


@st.composite
def pair(draw):
    """Two operands of one drawn length, from a drawn seed: far faster to
    draw than up to 600 samples one by one."""
    n = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return operand(rng, n), operand(rng, n)


alphas = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))


def standardize_error(fv):
    """The message double_pearson raises for an operand, or None."""
    if len(fv) < 2:
        return "variance needs at least 2 samples"
    var = ovariance(fv)
    if var == 0.0:
        return "cannot standardize a zero-variance signal"
    if var == math.inf:
        return "cannot standardize this signal: the variance overflows"
    return None


def ostandardized(fv):
    m, s = omean(fv), math.sqrt(ovariance(fv))
    return [(a - m) / s for a in fv]


@settings(max_examples=250, deadline=None)
@given(pair(), alphas)
def test_double_pearson_bits_match_the_oracle_composition(operands, alpha):
    fv, gv = operands
    f, g = Signal(fv), Signal(gv)
    error = standardize_error(fv) or standardize_error(gv)
    if error is not None:
        with pytest.raises(ValueError) as info:
            double_pearson(f, g, alpha)
        assert str(info.value) == error
        return
    n = len(fv)
    plus, minus = osplit_inner(ostandardized(fv), ostandardized(gv))
    p_plus, p_minus = plus / (n - 1), minus / (n - 1)
    want = (p_plus, p_minus, 2.0 * alpha * p_plus + 2.0 * (1.0 - alpha) * p_minus)
    assert list(map(key, double_pearson(f, g, alpha))) == list(map(key, want))


@settings(max_examples=250, deadline=None)
@given(pair(), alphas, st.sampled_from((1.0, 0.1, 1e-300)))
def test_gate_loop_bits_match_the_oracles(operands, alpha, dx):
    fv, gv = operands
    f, g = Signal(fv, dx), Signal(gv, dx)
    for op in OP_NAMES:
        assert key(aggregate(MsetOpKind(op), f, g)) == key(oaggregate(op, fv, gv, dx)), op
    for a in (0.0, 0.5, 1.0, alpha):
        assert key(split_intersection(f, g, a)) == key(osplit_intersection(fv, gv, a, dx)), a


def assert_products_finite(fv, gv):
    """Every standardized sample of fv and gv is within about 1.5 *
    sqrt(n - 1) of 0, so every product that double_pearson sums, and even
    the product of the largest two, is finite, as its comment bounds them."""
    n = len(fv)
    bound = 1.5 * math.sqrt(n - 1) * (1 + 1e-12)
    (mx, sx), (my, sy) = _location_scale(Signal(fv)), _location_scale(Signal(gv))
    zf = [(a - mx) / sx for a in fv]
    zg = [(b - my) / sy for b in gv]
    peak = max(map(abs, zf + zg))
    assert peak <= bound, (fv, gv)
    assert math.isfinite(peak * peak)
    assert all(math.isfinite(a * b) for a, b in zip(zf, zg))


def scaled_operand(rng: random.Random, n: int, binades) -> list:
    """n samples of the given binades, the first positive and the last
    negative, so that the variance is not 0."""
    values = [rng.choice((1.0, -1.0, 0.0)) * math.ldexp(rng.uniform(0.5, 0.9999), rng.choice(binades))
              for _ in range(n)]
    values[0] = math.ldexp(0.75, rng.choice(binades))
    values[-1] = -math.ldexp(0.75, rng.choice(binades))
    return values


SUBNORMAL_VARIANCE = range(-530, -520)  # squared deviations below 2**-1022
NEAR_OVERFLOW = range(500, 506)         # variances within 2**44 of overflow


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 300), st.integers(0, 2**32 - 1))
def test_standardized_products_are_finite_at_the_variance_extremes(n, seed):
    rng = random.Random(seed)
    tiny = scaled_operand(rng, n, SUBNORMAL_VARIANCE)
    huge = scaled_operand(rng, n, NEAR_OVERFLOW)
    assert 0.0 < ovariance(tiny) < 2.2250738585072014e-308
    assert 2.0 ** 980 < ovariance(huge) < math.inf
    assert_products_finite(tiny, huge)
    assert_products_finite(tiny, tiny[::-1])
    assert_products_finite(huge, huge[::-1])


def test_standardized_samples_reach_near_the_bound():
    # one sample away from n - 1 zeros standardizes to (n - 1) / sqrt(n),
    # nearly sqrt(n - 1), in exact arithmetic; in the subnormals the
    # roundings may take it up to 1.5 times the bound of exact arithmetic
    for n in (2, 3, 50, 300):
        for scale in (-525, 0, 509):
            fv = [0.0] * (n - 1) + [math.ldexp(1.0, scale)]
            m, s = _location_scale(Signal(fv))
            peak = max(abs((a - m) / s) for a in fv)
            assert (n - 1) / math.sqrt(n) * 0.99 < peak <= 1.5 * math.sqrt(n - 1) * (1 + 1e-12)
            assert_products_finite(fv, fv[::-1])
    # a variance within a factor 2 of the largest float
    top = [math.ldexp(0.7, 512), -math.ldexp(0.7, 512)]
    assert ovariance(top) > MAX / 2
    assert_products_finite(top, top[::-1])
