import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msetsim.msetops import Signal
from msetsim.sliding import SlideIndex, slide

from oracles import oslide, oslide_rescored


def planted_signal(rng, template, offset, length):
    values = [rng.uniform(-10, 10) for _ in range(length)]
    values[offset:offset + len(template)] = template
    return values


def test_identity_window_wins():
    rng = random.Random(401)
    template = [rng.uniform(1, 5) for _ in range(6)]
    signal = planted_signal(rng, template, 7, 40)
    profile = slide(Signal(template), Signal(signal), SlideIndex.JACCARD)
    assert profile.lags == tuple(range(35))
    assert profile.best_lag == 7
    assert profile.best_score == 1.0
    assert profile.degenerate_lags == ()


def test_negated_window_scores_minus_one():
    rng = random.Random(402)
    template = [rng.uniform(1, 5) for _ in range(6)]
    signal = planted_signal(rng, [-v for v in template], 7, 40)
    profile = slide(Signal(template), Signal(signal), SlideIndex.JACCARD)
    assert profile.scores[7] == -1.0


def test_inner_profile_matches_naive_cross_correlation():
    rng = random.Random(403)
    for _ in range(100):
        n = rng.randint(1, 64)
        m = rng.randint(1, n)
        dx = rng.choice([1.0, 0.5])
        tv = [rng.uniform(-5, 5) for _ in range(m)]
        sv = [rng.uniform(-5, 5) for _ in range(n)]
        profile = slide(Signal(tv, dx), Signal(sv, dx), SlideIndex.INNER)
        lags, scores, best_lag, best_score, flagged = oslide(tv, sv, "inner", dx)
        assert profile.lags == tuple(lags)
        assert profile.scores == tuple(scores)
        assert profile.best_lag == best_lag
        assert profile.best_score == best_score
        assert profile.degenerate_lags == tuple(flagged)


def test_bounded_indices_stay_in_unit_interval():
    rng = random.Random(404)
    for index in (SlideIndex.JACCARD, SlideIndex.COINCIDENCE):
        for _ in range(50):
            n = rng.randint(2, 40)
            m = rng.randint(1, n)
            tv = [rng.choice([0.0, rng.uniform(-5, 5)]) for _ in range(m)]
            sv = [rng.choice([0.0, rng.uniform(-5, 5)]) for _ in range(n)]
            profile = slide(Signal(tv), Signal(sv), index)
            assert all(-1.0 <= s <= 1.0 for s in profile.scores)


def test_scaled_window_is_stricter_than_cosine():
    rng = random.Random(405)
    template = [rng.uniform(0.5, 3) for _ in range(8)]
    c = 2.5
    signal = [c * v for v in template]
    jac = slide(Signal(template), Signal(signal), SlideIndex.JACCARD)
    cos = slide(Signal(template), Signal(signal), SlideIndex.COSINE)
    assert jac.scores[0] < cos.scores[0]
    assert jac.scores[0] == pytest.approx(1 / c, abs=1e-12)
    assert cos.scores[0] == pytest.approx(1.0, abs=1e-12)


def test_inner_profile_is_bilinear():
    rng = random.Random(406)
    tv = [rng.uniform(-5, 5) for _ in range(5)]
    sv = [rng.uniform(-5, 5) for _ in range(24)]
    single = slide(Signal(tv), Signal(sv), SlideIndex.INNER)
    double = slide(Signal([2 * v for v in tv]), Signal(sv), SlideIndex.INNER)
    assert double.scores == tuple(2 * s for s in single.scores)


def test_pearson_flags_constant_windows():
    signal = [1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 1.0]
    template = [0.5, 1.5, 0.25]
    profile = slide(Signal(template), Signal(signal), SlideIndex.PEARSON)
    assert 0 in profile.degenerate_lags
    assert 1 in profile.degenerate_lags
    assert profile.scores[0] == 0.0
    assert 2 not in profile.degenerate_lags


def test_pearson_constant_template_flags_everything():
    profile = slide(Signal((2.0, 2.0)), Signal((1.0, 5.0, 3.0)), SlideIndex.PEARSON)
    assert profile.degenerate_lags == profile.lags
    assert profile.scores == (0.0, 0.0)


def test_pearson_length_one_template_is_degenerate():
    profile = slide(Signal((2.0,)), Signal((1.0, 5.0)), SlideIndex.PEARSON)
    assert profile.degenerate_lags == (0, 1)


def test_cosine_flags_zero_windows():
    profile = slide(Signal((1.0, 2.0)), Signal((0.0, 0.0, 3.0)), SlideIndex.COSINE)
    assert 0 in profile.degenerate_lags
    assert profile.scores[0] == 0.0
    assert 1 not in profile.degenerate_lags


def test_tie_break_picks_smallest_lag():
    profile = slide(Signal((1.0, 2.0)), Signal((1.0, 2.0, 1.0, 2.0)), SlideIndex.JACCARD)
    assert profile.scores[0] == profile.scores[2] == 1.0
    assert profile.best_lag == 0


def test_template_longer_than_signal_errors():
    with pytest.raises(ValueError, match="longer"):
        slide(Signal((1, 2, 3)), Signal((1, 2)), SlideIndex.INNER)


def test_spacing_mismatch_errors():
    with pytest.raises(ValueError, match="spacings"):
        slide(Signal((1,), 1.0), Signal((1, 2), 0.5), SlideIndex.INNER)


def key(v: float) -> bytes:
    """The bit pattern of v, with every NaN mapped to one key."""
    return b"nan" if math.isnan(v) else struct.pack("<d", v)


# signed zeros, subnormals and values near the float limit, where sums
# overflow to inf and some scores are NaN
EDGE_SAMPLES = st.one_of(
    st.floats(-5.0, 5.0),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     1e308, -1e308, 1.7e308, -1.7e308)),
)


@settings(deadline=None, max_examples=400)
@given(st.sampled_from(SlideIndex), st.integers(1, 6),
       st.one_of(st.sampled_from((1, 2, 3)), st.integers(4, 13)),
       st.sampled_from(("plain", "zero tail", "zero stretch", "zero template")),
       st.sampled_from((1.0, 0.5, 1e-300)), st.data())
def test_slide_matches_the_oracle_bit_for_bit(index, m, lag_count, shape, dx, data):
    """slide scores two adjacent windows per pass over a signal padded with
    one zero sample; every lag count, odd and even, must give the oracle's
    profile, and the padded window past an odd count must neither appear nor
    be flagged, even when it is undefined (a signal ending in m - 1 zeros
    makes it all zero).  A one-sample pearson template and an all-zero
    cosine template flag every lag.  A Jaccard, coincidence or cosine
    window whose denominator overflows scores the rescored pair oracle."""
    n = m + lag_count - 1
    tv = data.draw(st.lists(EDGE_SAMPLES, min_size=m, max_size=m))
    sv = data.draw(st.lists(EDGE_SAMPLES, min_size=n, max_size=n))
    if shape == "zero tail":
        sv[n - (m - 1):] = [0.0] * (m - 1)
    elif shape == "zero stretch":
        at = data.draw(st.integers(0, n - 1))
        sv[at:at + m + 1] = [0.0] * len(sv[at:at + m + 1])
    elif shape == "zero template":
        tv = data.draw(st.lists(st.sampled_from((0.0, -0.0)), min_size=m, max_size=m))
    profile = slide(Signal(tv, dx), Signal(sv, dx), index)
    lags, scores, best_lag, best_score, flagged = oslide_rescored(tv, sv, index.value, dx)
    where = (tv, sv, dx)
    assert profile.lags == tuple(lags), where
    assert list(map(key, profile.scores)) == list(map(key, scores)), where
    assert (profile.best_lag, key(profile.best_score)) == (best_lag, key(best_score)), where
    assert profile.degenerate_lags == tuple(flagged), where
