"""Pair indices whose denominator overflows are scored again from the
samples scaled by a power of two, so no overflowing sum gives a finite
wrong answer.

Scaling both operands by 2**-k is exact while no sample or sum leaves the
normal range, and a ratio of two sums does not change with it; so where the
union, the smaller absolute mass or a raw sum of squares overflows, the
value of ``jaccard``, ``interiority``, ``coincidence``, ``jaccard_power``,
``cosine`` and ``report``'s ratios is the naive oracle's on the scaled
samples, ``index(f, g) == oracle(2**-k f, 2**-k g)``; cosine, which does not
change when one operand is scaled, scales only an operand whose sum of
squares overflows.  In the cases below the result is the same at two
scales far apart, which the tests check, so the expected values come from
the oracles at those scales, with no use of the library's choice of k, or
from exact cases such as ``jaccard(f, f) == 1``.  The values that scale
with the spacing keep an honest inf, and every result whose denominator
is finite keeps its bits.  ``tests/oracles.py`` states the rescore, with
its k, for the random cases.

``slide``'s Jaccard, coincidence and cosine windows are scored by the same
pair loops where a denominator overflows, so each window's score is the
pair function's value on that window.  ``jaccard_alt``, whose squared
union or raw inner sum leaves the normal range at either end, is scored
again from scaled samples at a scaled spacing; its expected values come
from exact ``Fraction`` arithmetic and from its two scale laws."""

import math
import random
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msetsim.cli import main as cli
from msetsim.indices import (
    coincidence,
    cosine,
    euclidean,
    inner,
    interiority,
    jaccard,
    jaccard_alt,
    jaccard_power,
    norm,
    report,
)
from msetsim.io import fmt
from msetsim.msetops import MsetOpKind, Signal, aggregate
from msetsim.sliding import SlideIndex, slide

from oracles import (
    oabs_mass,
    oaggregate,
    ocoincidence,
    ocoincidence_rescored,
    ocosine,
    ocosine_rescored,
    oinner,
    ointeriority,
    ointeriority_rescored,
    ojaccard,
    ojaccard_power,
    ojaccard_power_rescored,
    ojaccard_rescored,
)

MAX = sys.float_info.max


def bits(v: float) -> bytes:
    return b"nan" if math.isnan(v) else struct.pack("<d", v)


def scaled(values, k):
    return [v * 2.0 ** -k for v in values]


def law(oracle, fv, gv, *args):
    """oracle(2**-k f, 2**-k g), the same at k = 8 and k = 500, where no
    sample or sum of these cases leaves the normal range."""
    low = oracle(scaled(fv, 8), scaled(gv, 8), *args)
    assert bits(oracle(scaled(fv, 500), scaled(gv, 500), *args)) == bits(low)
    return low


F, G = (1e308, 1e308), (1e308, 1.0)


def test_an_overflowing_union_is_rescored():
    f, g = Signal(F), Signal(G)
    # the union overflows, so the direct ratio is scap / inf = 0
    assert oaggregate("acup", F, G) == math.inf and ojaccard(F, G) == 0.0
    assert bits(jaccard(f, g)) == bits(law(ojaccard, F, G))
    assert jaccard(f, g) == 0.5
    assert bits(coincidence(f, g)) == bits(law(ocoincidence, F, G))
    assert coincidence(f, g) == 0.5
    assert bits(jaccard_power(f, g, 3)) == bits(law(ojaccard_power, F, G, 3))
    assert jaccard_power(f, g, 3) == 0.125
    # the smaller mass, g's, is finite: interiority is not rescored
    assert interiority(f, g) == ointeriority(F, G) == 1.0


def test_exact_cases_near_the_float_limit():
    for fv in ((1e308, 1e308), (MAX, -MAX, 1.0), (1.7e308, 5e-324, -1e308)):
        f, neg = Signal(fv), Signal([-v for v in fv])
        assert jaccard(f, f) == 1.0 and jaccard(f, neg) == -1.0, fv
        assert interiority(f, f) == 1.0 and coincidence(f, f) == 1.0, fv
        assert jaccard_power(f, neg, 3) == -1.0 and jaccard_power(f, neg, 2) == 1.0, fv


def test_an_overflowing_smaller_mass_is_rescored():
    fv, gv = (1e308, 1e308, 0.0), (1e308, 1e308, 1e308)
    assert min(oabs_mass(fv), oabs_mass(gv)) == math.inf
    assert ointeriority(fv, gv) != ointeriority(fv, gv)  # NaN: inf / inf
    f, g = Signal(fv), Signal(gv)
    assert bits(interiority(f, g)) == bits(law(ointeriority, fv, gv)) == bits(1.0)
    assert bits(coincidence(f, g)) == bits(law(ocoincidence, fv, gv))


def test_an_overflowing_sum_of_squares_is_rescored():
    fv, gv = (1.0, 1.0), (1e308, 1.0)
    assert ocosine(fv, gv) == 0.0  # the norm of g is inf
    f, g = Signal(fv), Signal(gv)
    # g alone is scaled: at k = 520 and 600 the square of its 1e308 term is
    # normal, and that of its 1 is far below it, so both give one value
    want = ocosine(fv, scaled(gv, 520))
    assert bits(ocosine(fv, scaled(gv, 600))) == bits(want)
    assert bits(cosine(f, g)) == bits(want)
    assert abs(want - math.sqrt(0.5)) < 1e-15
    assert bits(report(f, g).cosine) == bits(want)
    assert cosine(Signal(gv), Signal(gv)) == 1.0


def test_values_that_scale_with_the_spacing_stay_inf():
    f, g = Signal(F, 0.5), Signal(G, 0.5)
    assert inner(f, g) == norm(f) == euclidean(f, Signal((-1e308, -1e308), 0.5)) == math.inf
    assert aggregate(MsetOpKind.ACUP, f, g) == math.inf
    rep = report(Signal((1.0, 1.0)), Signal((1e308, 1.0)))
    assert (rep.norm_g, rep.euclidean) == (math.inf, math.inf)


def test_compute_prints_the_rescored_value(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1e308,1e308\n1e308,1\n")
    assert cli(["compute", "--input", str(p), "--cols", "a,b", "--index", "jaccard"]) == 0
    assert capsys.readouterr().out == "jaccard=0.5\n"
    q = tmp_path / "c.csv"
    q.write_text("a,b\n1,1e308\n1,1\n")
    assert cli(["compute", "--input", str(q), "--cols", "a,b", "--index", "cosine"]) == 0
    assert capsys.readouterr().out == f"cosine={fmt(ocosine((1.0, 1.0), scaled((1e308, 1.0), 520)))}\n"


huge_or_small = st.one_of(
    st.floats(1e306, MAX), st.floats(-MAX, -1e306), st.floats(-10.0, 10.0),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, MAX, -MAX)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(huge_or_small, huge_or_small), min_size=1, max_size=30))
def test_pair_indices_match_the_scaled_oracles(pairs):
    fv, gv = [a for a, _ in pairs], [b for _, b in pairs]
    f, g = Signal(fv), Signal(gv)
    rep = None
    if oinner(fv, fv) != 0.0 and oinner(gv, gv) != 0.0:
        rep = report(f, g)
        assert bits(cosine(f, g)) == bits(rep.cosine) == bits(ocosine_rescored(fv, gv))
    for got, want in ((jaccard(f, g), ojaccard_rescored(fv, gv)),
                      (interiority(f, g), ointeriority_rescored(fv, gv)),
                      (coincidence(f, g), ocoincidence_rescored(fv, gv)),
                      (jaccard_power(f, g, 3), ojaccard_power_rescored(fv, gv, 3))):
        assert bits(got) == bits(want), (fv, gv)
    if rep is not None:
        assert bits(rep.jaccard) == bits(jaccard(f, g))
        assert bits(rep.coincidence) == bits(coincidence(f, g))
    # a rescored ratio is never NaN, and lies in its index's range
    assert -1.0 <= jaccard(f, g) <= 1.0 and 0.0 <= interiority(f, g) <= 1.0


def test_results_whose_denominators_are_finite_keep_their_bits():
    rng = random.Random(1818)
    kept = cosines = 0
    for _ in range(3000):
        n, top = rng.randint(1, 12), rng.choice((511, 1024))
        fv = [rng.choice((1.0, -1.0)) * min(math.ldexp(rng.random(), rng.choice(
            (rng.randint(-1074, top), top))), MAX) for _ in range(n)]
        gv = [rng.choice((1.0, -1.0, 0.5)) * v for v in reversed(fv)]
        f, g = Signal(fv), Signal(gv)
        where = (fv, gv)
        if oaggregate("acup", fv, gv) < math.inf:  # and so both masses
            kept += 1
            assert bits(jaccard(f, g)) == bits(ojaccard(fv, gv)), where
            assert bits(coincidence(f, g)) == bits(ocoincidence(fv, gv)), where
            assert bits(jaccard_power(f, g, 3)) == bits(ojaccard_power(fv, gv, 3)), where
        if min(oabs_mass(fv), oabs_mass(gv)) < math.inf:
            assert bits(interiority(f, g)) == bits(ointeriority(fv, gv)), where
        if 0.0 < oinner(fv, fv) < math.inf and 0.0 < oinner(gv, gv) < math.inf:
            cosines += 1
            assert bits(cosine(f, g)) == bits(report(f, g).cosine) == bits(ocosine(fv, gv)), where
    # guards the sweep: both kinds of case are met, and so are overflows
    assert 300 < kept < 2900 and 300 < cosines < 2900


def test_overflowing_windows_are_rescored():
    # each window's value is its pair function's, derived at two scales
    template, signal = (1e308, 1e308), (1e308, 1.0, 1e308)
    windows = [signal[k:k + 2] for k in range(2)]
    for index, oracle in ((SlideIndex.JACCARD, ojaccard), (SlideIndex.COINCIDENCE, ocoincidence)):
        profile = slide(Signal(template), Signal(signal), index)
        want = [law(oracle, template, w) for w in windows]
        assert all(oaggregate("acup", template, w) == math.inf for w in windows)
        assert list(map(bits, profile.scores)) == list(map(bits, want)) == [bits(0.5)] * 2
        assert profile.degenerate_lags == ()
    # the window (1e308, 1) is scaled alone, as in the pair case above
    profile = slide(Signal((1.0, 1.0)), Signal((1e308, 1.0, 1.0, 1.0)), SlideIndex.COSINE)
    want = ocosine((1.0, 1.0), scaled((1e308, 1.0), 520))
    assert bits(ocosine((1.0, 1.0), scaled((1e308, 1.0), 600))) == bits(want)
    ones = ocosine((1.0, 1.0), (1.0, 1.0))
    assert profile.scores == (want, ones, ones)
    assert profile.scores[0] == 0.7071067811865475
    # a template whose sum of squares overflows is scaled for every window
    profile = slide(Signal((1e308, 1e308)), Signal((1.0,) * 4), SlideIndex.COSINE)
    want = ocosine(scaled((1e308, 1e308), 520), (1.0, 1.0))
    assert bits(ocosine(scaled((1e308, 1e308), 600), (1.0, 1.0))) == bits(want)
    assert profile.scores == (want,) * 3 and want == 0.9999999999999998


@settings(max_examples=300, deadline=None)
@given(st.lists(huge_or_small, min_size=1, max_size=6), st.integers(1, 9),
       st.sampled_from((1.0, 0.5, 1e-300)), st.data())
def test_slide_windows_score_the_pair_functions(tv, lag_count, dx, data):
    """Every Jaccard, coincidence and cosine window, at odd and even lag
    counts, scores the pair function's value on that window, and a window
    is flagged exactly where cosine raises on it."""
    m = len(tv)
    sv = data.draw(st.lists(huge_or_small, min_size=m + lag_count - 1,
                            max_size=m + lag_count - 1))
    template = Signal(tv, dx)
    windows = [Signal(sv[k:k + m], dx) for k in range(lag_count)]
    for index, pair in ((SlideIndex.JACCARD, jaccard), (SlideIndex.COINCIDENCE, coincidence),
                        (SlideIndex.COSINE, cosine)):
        profile = slide(template, Signal(sv, dx), index)
        assert profile.lags == tuple(range(lag_count))
        flagged = []
        for k, window in enumerate(windows):
            try:
                want = pair(template, window)
            except ValueError:
                flagged.append(k)
                want = 0.0
            assert bits(profile.scores[k]) == bits(want), (index, tv, sv, k)
        assert profile.degenerate_lags == tuple(flagged), (index, tv, sv)


def exact_jaccard_alt(fv, gv, dx):
    """dx * sum(f * g) / (dx * sum(max(|f|, |g|)))**2 in exact arithmetic,
    rounded once."""
    union = sum(max(abs(Fraction(a)), abs(Fraction(b))) for a, b in zip(fv, gv))
    dot = sum(Fraction(a) * Fraction(b) for a, b in zip(fv, gv))
    return float(Fraction(dx) * dot / (Fraction(dx) * union) ** 2)


@pytest.mark.parametrize("fv, dx, want", [
    ((9e153, 9e153), 1.0, 0.5),  # the squared union overflows
    ((1e-170, 1e-170), 1.0, 0.5),  # it underflows to 0
    ((1.0, 1.0), 1e-200, 5e199),  # it underflows to 0 at a small spacing
    ((1.0, 1.0), 1e-160, 5e159),  # it is subnormal
])
def test_jaccard_alt_outside_the_normal_range(fv, dx, want):
    f = Signal(fv, dx)
    assert exact_jaccard_alt(fv, fv, dx) == want
    assert bits(jaccard_alt(f, f)) == bits(want)
    union = aggregate(MsetOpKind.ACUP, f, f)
    assert not 2.0 ** -1022 <= union * union < math.inf


def test_jaccard_alt_of_zero_subnormal_and_overflowing_values():
    assert bits(jaccard_alt(Signal((0.0, -0.0)), Signal((-0.0, 0.0)))) == bits(0.0)
    assert jaccard_alt(Signal((1e-200,)), Signal((0.0,))) == 0.0  # its inner product is 0
    assert jaccard_alt(Signal((5e-324,)), Signal((5e-324,))) == exact_jaccard_alt(
        (5e-324,), (5e-324,), 1.0) == 1.0
    # a value past the float range is inf with its sign
    assert jaccard_alt(Signal((1.0,), 5e-324), Signal((-1.0,), 5e-324)) == -math.inf


def is_normal(v):
    return 2.0 ** -1022 <= abs(v) < math.inf


@pytest.mark.parametrize("v, dx, a, b", [
    (1e300, 1e-300, -997, 997),  # the raw sum of f*g overflows
    (1e-200, 1e200, 664, -664),  # it underflows to 0
    (1e-160, 1e20, 532, -66),  # it is subnormal
])
def test_jaccard_alt_whose_inner_sum_leaves_the_normal_range(v, dx, a, b):
    """The squared union is normal, but v * v is not: the value is that of
    the pair scaled by 2**a at the spacing dx * 2**b, where every sum is
    normal, times 2**b (the two scale laws), within 4 ulps of the exact
    value."""
    f = Signal((v,), dx)
    union = aggregate(MsetOpKind.ACUP, f, f)
    assert is_normal(union * union) and not is_normal(v * v)
    w, d = math.ldexp(v, a), math.ldexp(dx, b)
    assert is_normal(w * w) and is_normal(d * w * w) and is_normal((d * w) ** 2)
    scaled = Signal((w,), d)
    want = math.ldexp(jaccard_alt(scaled, scaled), b)
    assert bits(jaccard_alt(f, f)) == bits(want)
    exact = exact_jaccard_alt((v,), (v,), dx)
    assert abs(Fraction(want) - Fraction(exact)) <= 4 * Fraction(math.ulp(exact))


def test_jaccard_alt_whose_inner_sum_is_nan():
    # at dx = 1e-300 the squared union of (1e200, 1e200) and (1e200,
    # -1e200) is normal, but their products overflow to inf and -inf, so
    # the raw sum is NaN; the exact inner product, and so the value, is 0
    f, g = Signal((1e200, 1e200), 1e-300), Signal((1e200, -1e200), 1e-300)
    union = aggregate(MsetOpKind.ACUP, f, g)
    assert is_normal(union * union) and math.isnan(1e200 * 1e200 + 1e200 * -1e200)
    assert exact_jaccard_alt(f.values, g.values, f.dx) == 0.0
    assert bits(jaccard_alt(f, g)) == bits(0.0)
    # a raw sum of exactly 0 is scored again too, and is still +0.0
    assert bits(jaccard_alt(Signal((1, 1)), Signal((1, -1)))) == bits(0.0)


law_samples = st.one_of(st.just(0.0), st.floats(0.5, 8.0), st.floats(-8.0, -0.5))
# an exponent far from 0, at either end, or a moderate one
law_powers = st.one_of(st.integers(-1010, -600), st.integers(600, 1010), st.integers(-100, 100))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(law_samples, law_samples), min_size=1, max_size=12),
       st.sampled_from((1.0, 0.1, 3.0)), law_powers, law_powers)
def test_jaccard_alt_scale_laws(pairs, dx, a, b):
    """jaccard_alt(2**a f, 2**a g) equals jaccard_alt(f, g), and the value
    at the spacing dx * 2**b is the value at dx times 2**-b, both taken
    where no sample, spacing, term or value leaves the normal range.  The
    scaled operands are drawn so that their squared union leaves that
    range, at either end, where the pair is scored again."""
    fv, gv = [x for x, _ in pairs], [y for _, y in pairs]
    magnitudes = [abs(v) for v in fv + gv if v != 0.0]
    assume(magnitudes)
    f, g = Signal(fv, dx), Signal(gv, dx)
    union = aggregate(MsetOpKind.ACUP, f, g)
    base = jaccard_alt(f, g)
    assert 2.0 ** -1022 <= union * union < math.inf

    def normal(v, power):
        """v * 2**power is normal: 2**(e - 1) <= |v| < 2**e for e = frexp's."""
        return -1021 <= math.frexp(v)[1] + power <= 1024

    assume(normal(max(magnitudes), a) and normal(min(magnitudes), a) and normal(dx, b))
    assume(base == 0.0 or normal(base, -b))
    scaled_f = Signal([math.ldexp(v, a) for v in fv], math.ldexp(dx, b))
    scaled_g = Signal([math.ldexp(v, a) for v in gv], math.ldexp(dx, b))
    union = aggregate(MsetOpKind.ACUP, scaled_f, scaled_g)
    assume(not 2.0 ** -1022 <= union * union < math.inf)
    assert bits(jaccard_alt(scaled_f, scaled_g)) == bits(math.ldexp(base, -b))
