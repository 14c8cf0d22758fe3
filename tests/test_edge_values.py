"""Bit-exact agreement with the naive oracles on edge values: signed zeros,
subnormals, zero and all-zero templates, the extreme template lengths, a
non-unit spacing, and magnitudes near 1e308 where sums overflow to inf or
NaN.  Floats are compared by their bit patterns, so -0.0 differs from 0.0
and NaN results are checked too.  The scalar surfaces are compared cell by
cell with the public pointwise definitions on the same kinds of lattice."""

import itertools
import math
import random
import struct
from dataclasses import astuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msetsim import fields
from msetsim.fields import FieldExpr, GridSpec, field, field_rows, jr_value
from msetsim.indices import (
    _signed_powers,
    coincidence,
    cosine,
    interiority,
    jaccard,
    report,
    signed_power,
    split_intersection,
)
from msetsim.msetops import MsetOpKind, Signal, abs_mass, aggregate, kernel
from msetsim.signs import gen_kronecker
from msetsim.sliding import SlideIndex, slide
from msetsim.stats import covariance, double_pearson, pearson, split_inner, standardize

from oracles import (
    OP_NAMES,
    oabs_mass,
    oaggregate,
    ocoincidence,
    ocoincidence_rescored,
    ocosine,
    ocosine_rescored,
    ocovariance,
    oeuclidean,
    oinner,
    ointeriority,
    ointeriority_rescored,
    ojaccard,
    ojaccard_rescored,
    okernel,
    omean,
    onorm,
    opearson,
    osign,
    oslide,
    osplit_inner,
    osplit_intersection,
    ovariance,
)

TINY = 5e-324
HUGE = 1e308
EDGE = (0.0, -0.0, TINY, -TINY, 2.2e-308, -1e-310, 1.0, -1.0, 2.5, -3.0,
        HUGE, -HUGE, 1.7e308, -1.7e308)


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


def all_bits(values) -> list[bytes]:
    return [bits(v) for v in values]


def edge_pairs():
    """Two-sample pairs over every combination of EDGE values, then random
    longer lists drawn from EDGE and ordinary values."""
    pairs = [([a, b], [c, d]) for (a, b), (c, d) in
             itertools.product(itertools.product(EDGE[:6], repeat=2), repeat=2)]
    pairs += [([a], [b]) for a, b in itertools.product(EDGE, repeat=2)]
    rng = random.Random(7001)
    for _ in range(300):
        n = rng.randint(1, 7)
        pool = EDGE + (rng.uniform(-5, 5),)
        pairs.append(([rng.choice(pool) for _ in range(n)],
                      [rng.choice(pool) for _ in range(n)]))
    return pairs


@pytest.mark.parametrize("op", OP_NAMES)
def test_kernel_bits_match_oracle(op):
    # The oracle's s*x magnitudes can give -0.0 where the library gives
    # +0.0 (for example scap_minus at (-0.0, 1.0)), so zeros are pinned to
    # +0.0 rather than compared with the oracle's bits.
    kind = MsetOpKind(op)
    for x, y in itertools.product(EDGE, repeat=2):
        got = kernel(kind, x, y)
        want = okernel(op, x, y)
        where = (op, x, y)
        assert got == want, where
        if kind is MsetOpKind.CAP:
            assert bits(got) == bits(min(x, y)), where
        elif kind is MsetOpKind.CUP:
            assert bits(got) == bits(max(x, y)), where
        elif got == 0.0:
            assert bits(got) == bits(0.0), where
        else:
            assert bits(got) == bits(want), where


def test_kernel_oracle_zeros_differ_in_sign():
    # guards the test above: its zero rule is needed on these edge values
    negative = [(op, x, y) for op in OP_NAMES[2:]
                for x, y in itertools.product(EDGE, repeat=2)
                if bits(okernel(op, x, y)) == bits(-0.0)]
    assert negative


@pytest.mark.parametrize("dx", [1.0, 0.5])
@pytest.mark.parametrize("op", OP_NAMES)
def test_aggregate_bits_match_oracle(op, dx):
    kind = MsetOpKind(op)
    for fv, gv in edge_pairs():
        got = aggregate(kind, Signal(fv, dx), Signal(gv, dx))
        assert bits(got) == bits(oaggregate(op, fv, gv, dx)), (op, fv, gv, dx)


@pytest.mark.parametrize("dx", [1.0, 0.5])
def test_abs_mass_bits_match_oracle(dx):
    for fv, _ in edge_pairs():
        assert bits(abs_mass(Signal(fv, dx))) == bits(oabs_mass(fv, dx)), fv


def test_aggregate_overflow_reaches_inf():
    # guards the edge pairs above against staying finite
    f = Signal((1.7e308, -1.7e308, -1.0))
    g = Signal((1.7e308, -1.7e308, 1.0))
    assert aggregate(MsetOpKind.ACUP, f, g) == float("inf")
    assert aggregate(MsetOpKind.CAP, Signal((-1.7e308, -1.7e308)),
                     Signal((1.0, 1.0))) == float("-inf")


@pytest.mark.parametrize("dx", [1.0, 0.5])
def test_pair_indices_bits_match_oracle(dx):
    overflows = rescored = 0
    for fv, gv in edge_pairs():
        f, g = Signal(fv, dx), Signal(gv, dx)
        where = (fv, gv, dx)
        assert all_bits(astuple(split_inner(f, g))) == \
            all_bits(osplit_inner(fv, gv, dx)), where
        for alpha in (0.0, 0.3, 1.0):
            assert bits(split_intersection(f, g, alpha)) == \
                bits(osplit_intersection(fv, gv, alpha, dx)), where
        # a pair whose union or smaller mass overflows is scored again from
        # its scaled samples
        rescored += oaggregate("acup", fv, gv) == math.inf
        assert bits(jaccard(f, g)) == bits(ojaccard_rescored(fv, gv)), where
        assert bits(interiority(f, g)) == bits(ointeriority_rescored(fv, gv)), where
        assert bits(coincidence(f, g)) == bits(ocoincidence_rescored(fv, gv)), where
        if len(fv) >= 2:
            assert bits(covariance(f, g)) == bits(ocovariance(fv, gv)), where
            var_f, var_g = ovariance(fv), ovariance(gv)
            if var_f == 0.0 or var_g == 0.0:
                with pytest.raises(ValueError, match="zero-variance"):
                    pearson(f, g)
            elif not (math.isfinite(var_f) and math.isfinite(var_g)):
                # the clamp would map the NaN ratio to -1
                with pytest.raises(ValueError, match="the variance overflows"):
                    pearson(f, g)
                overflows += 1
            else:
                assert bits(pearson(f, g)) == bits(opearson(fv, gv)), where
        if onorm(fv) == 0.0 or onorm(gv) == 0.0:
            continue  # report raises with cosine
        rep = report(f, g)
        want = (ojaccard_rescored(fv, gv), ointeriority_rescored(fv, gv),
                ocoincidence_rescored(fv, gv), ocosine_rescored(fv, gv), oinner(fv, gv, dx),
                onorm(fv, dx), onorm(gv, dx), oeuclidean(fv, gv, dx))
        assert all_bits(astuple(rep)) == all_bits(want), where
    # guards the edge pairs: some pearson variances and some unions overflow
    assert overflows > 0
    assert rescored > 0


ALPHAS = (0.0, 0.3, 0.5, 1.0)


@pytest.mark.parametrize("dx", [1.0, 0.5])
def test_split_product_combined_bits_match_oracle(dx):
    for fv, gv in edge_pairs():
        plus, minus = osplit_inner(fv, gv, dx)
        sp = split_inner(Signal(fv, dx), Signal(gv, dx))
        for alpha in ALPHAS:
            want = 2.0 * alpha * plus + 2.0 * (1.0 - alpha) * minus
            assert bits(sp.combined(alpha)) == bits(want), (fv, gv, dx, alpha)


def ostandardized(fv):
    m = omean(fv)
    s = math.sqrt(ovariance(fv))
    return [(x - m) / s for x in fv]


def standardizable(fv) -> bool:
    return len(fv) >= 2 and 0.0 < ovariance(fv) < math.inf


def standardizable_pairs():
    """Three-sample rows of EDGE values around a middle sample, kept when
    the variance is finite and nonzero, each paired with a random such row."""
    rows = [[a, b, c] for a, b, c in itertools.product(EDGE, (0.0, -1.0, 2.5, 1e-160), EDGE)]
    rows = [r for r in rows if standardizable(r)]
    rng = random.Random(7003)
    return [(r, rng.choice(rows)) for r in rows]


def test_standardize_and_double_pearson_bits_match_oracle():
    pairs = standardizable_pairs()
    # guards the filter: edge values and subnormal variances stay in play
    assert len(pairs) > 300
    assert any(0.0 < ovariance(fv) < 2.2e-308 for fv, _ in pairs)
    for fv, gv in pairs:
        zf, zg = ostandardized(fv), ostandardized(gv)
        assert all_bits(standardize(Signal(fv, 0.5)).values) == all_bits(zf), fv
        plus, minus = osplit_inner(zf, zg)
        p_plus, p_minus = plus / (len(fv) - 1), minus / (len(fv) - 1)
        for alpha in ALPHAS:
            want = (p_plus, p_minus, 2.0 * alpha * p_plus + 2.0 * (1.0 - alpha) * p_minus)
            got = double_pearson(Signal(fv), Signal(gv), alpha)
            assert all_bits(got) == all_bits(want), (fv, gv, alpha)


def slide_cases():
    rng = random.Random(7002)
    cases = [
        # template with zeros, signed zeros and subnormals in the signal
        ([1.0, 0.0, -2.0], [0.0, -0.0, TINY, -TINY, 1.0, 0.0, -2.0, 3.0], 1.0),
        # all-zero template: pearson and cosine flag every lag
        ([0.0, 0.0, -0.0], [1.0, -2.0, 0.0, 3.0, -0.0, 4.0], 1.0),
        ([0.0, 0.0], [0.0, 0.0, 0.0, -0.0], 1.0),
        # m == 1 and m == len(signal)
        ([-2.5], [1.0, -0.0, TINY, -3.0, 2.5], 1.0),
        ([1.0, -2.0, 0.5, 0.0], [0.25, -1.0, 2.0, -0.0], 1.0),
        # subnormal-only operands: squares and scaled sums underflow
        ([TINY, -TINY], [TINY, TINY, -TINY, 0.0, TINY], 1.0),
        ([TINY, 2 * TINY], [TINY, 3 * TINY, -TINY, 2 * TINY], 0.5),
        # squares in the subnormal range: tiny but nonzero norms and variances
        ([1.0, -2.0], [1e-160, -1e-160, 2e-160, 0.0, 3e-162], 1.0),
        ([2e-160, 1e-160], [1e-160, 2e-160, 2.2e-162, 0.0, -2.3e-162, 1e-160], 1.0),
        # magnitudes near 1e308: sums and products overflow to inf and NaN
        ([HUGE, HUGE], [HUGE, HUGE, -HUGE, HUGE, 1.0, -HUGE], 1.0),
        ([1.7e308, -1.7e308, 1.0], [1.7e308, 1.7e308, -1.7e308, 0.0, 1.7e308], 1.0),
        ([HUGE, 1.0], [HUGE, -HUGE, HUGE, HUGE], 0.5),
    ]
    for _ in range(60):
        n = rng.randint(1, 12)
        m = rng.choice([1, n, rng.randint(1, n)])
        pool = EDGE + (rng.uniform(-5, 5), rng.uniform(-5, 5))
        tv = [rng.choice(pool) for _ in range(m)]
        if rng.random() < 0.2:
            tv = [rng.choice((0.0, -0.0)) for _ in range(m)]
        cases.append((tv, [rng.choice(pool) for _ in range(n)], rng.choice([1.0, 0.5])))
    return cases


@pytest.mark.parametrize("index", list(SlideIndex))
def test_slide_bits_match_oracle(index):
    for tv, sv, dx in slide_cases():
        profile = slide(Signal(tv, dx), Signal(sv, dx), index)
        lags, scores, best_lag, best_score, flagged = oslide(tv, sv, index.value, dx)
        where = (index, tv, sv, dx)
        assert profile.lags == tuple(lags), where
        assert all_bits(profile.scores) == all_bits(scores), where
        assert profile.best_lag == best_lag, where
        assert bits(profile.best_score) == bits(best_score), where
        assert profile.degenerate_lags == tuple(flagged), where


ARGMAX_CASES = [
    # Jaccard scores (0.0, -0.0) and (-0.0, 0.0): a signed-zero tie keeps
    # the smaller lag
    ((2.0,), (0.0, -TINY), SlideIndex.JACCARD, 0),
    ((2.0,), (-TINY, 0.0), SlideIndex.JACCARD, 0),
    # cosine scores (nan, 0.0, 0.9999999999999998): the NaN at lag 0 is
    # passed over for the largest score that is not NaN
    ((1.0, 1.0), (HUGE, HUGE, 1.0, 1.0), SlideIndex.COSINE, 2),
    # cosine scores (nan, nan): with no other score, lag 0 and its NaN
    ((HUGE, HUGE), (HUGE, HUGE, HUGE), SlideIndex.COSINE, 0),
]


def test_slide_argmax_on_signed_zero_ties_and_nan_matches_oracle():
    profiles = []
    for tv, sv, index, want_lag in ARGMAX_CASES:
        profile = slide(Signal(tv), Signal(sv), index)
        _, scores, best_lag, best_score, _ = oslide(list(tv), list(sv), index.value)
        assert all_bits(profile.scores) == all_bits(scores), (tv, sv)
        assert (profile.best_lag, bits(profile.best_score)) == (best_lag, bits(best_score))
        assert best_lag == want_lag, (tv, sv)
        profiles.append(profile)
    # guards the cases above against becoming vacuous
    assert all_bits(profiles[0].scores) == all_bits((0.0, -0.0))
    assert all_bits(profiles[1].scores) == all_bits((-0.0, 0.0))
    assert math.isnan(profiles[2].scores[0])
    assert profiles[2].best_score == profiles[2].scores[2] == 0.9999999999999998
    assert all(math.isnan(s) for s in profiles[3].scores + (profiles[3].best_score,))


def test_all_zero_template_flags_every_lag():
    for index in (SlideIndex.PEARSON, SlideIndex.COSINE):
        profile = slide(Signal((0.0, -0.0, 0.0)), Signal((1.0, 2.0, -3.0, 4.0)), index)
        assert profile.degenerate_lags == profile.lags == (0, 1)
        assert all_bits(profile.scores) == all_bits((0.0, 0.0))


def test_slide_overflow_cases_produce_nan():
    # guards the edge cases above against becoming vacuous
    profile = slide(Signal((HUGE, HUGE)), Signal((HUGE, HUGE, -HUGE)), SlideIndex.COSINE)
    assert any(s != s for s in profile.scores)
    profile = slide(Signal((HUGE, HUGE)), Signal((HUGE, HUGE, -HUGE)), SlideIndex.INNER)
    assert profile.scores[0] == float("inf")


# Cosine cancels the spacing, so a window is undefined only when a raw sum
# of squares is 0, and the profile at any spacing is the profile at dx = 1.
SCALED_NORMS = [
    # the window's squared norm 5e-324 is nonzero, and stays so at any dx
    ((2e-160, 1e-160), (2.2e-162, 0.0, 1e-160), 0.5),
    # windows and templates of ordinary small samples at a tiny spacing
    ((1.0, -2.0), (1e-13, 0.0, 1.0, 2.0, 0.0, -1e-12), 1e-300),
    ((1e-13, 2e-13), (1.0, 2.0, 3.0), 1e-300),
]


def assert_cosine_profile(tv, sv, dx, flagged):
    """The cosine profile at ``dx`` flags ``flagged``, has the bits of the
    profile at dx = 1, and equals the oracle's."""
    profile = slide(Signal(tv, dx), Signal(sv, dx), SlideIndex.COSINE)
    at_one = slide(Signal(tv), Signal(sv), SlideIndex.COSINE)
    where = (tv, sv, dx)
    assert profile.degenerate_lags == at_one.degenerate_lags == flagged, where
    assert all_bits(profile.scores) == all_bits(at_one.scores), where
    assert (profile.best_lag, bits(profile.best_score)) == \
        (at_one.best_lag, bits(at_one.best_score)), where
    lags, scores, best_lag, best_score, oflagged = oslide(list(tv), list(sv), "cosine", dx)
    assert profile.lags == tuple(lags), where
    assert all_bits(profile.scores) == all_bits(scores), where
    assert (profile.best_lag, bits(profile.best_score)) == (best_lag, bits(best_score)), where
    assert profile.degenerate_lags == tuple(oflagged), where
    return profile


def test_cosine_scores_window_whose_dx_scaled_norm_would_underflow():
    for tv, sv, dx in SCALED_NORMS:
        profile = assert_cosine_profile(tv, sv, dx, ())
        assert profile.best_score > 0.0, (tv, sv, dx)


UNDERFLOWING_NORMS = [
    # every |w| of windows 0 and 4 is below about 1e-162, so their raw sums
    # of squares are 0
    ((1.0, -2.0), (1e-163, 0.0, 1.0, 2.0, 0.0, -1e-170), (0, 4)),
    # and so is the template's, which flags every lag
    ((1e-163, -1e-165), (1.0, 2.0, 3.0), (0, 1)),
]


@pytest.mark.parametrize("dx", [1e-300, 0.5, 1.0, 1e300])
def test_cosine_flags_window_whose_raw_sum_of_squares_underflows(dx):
    for tv, sv, flagged in UNDERFLOWING_NORMS:
        profile = assert_cosine_profile(tv, sv, dx, flagged)
        assert all(bits(profile.scores[k]) == bits(0.0) for k in flagged), (tv, sv, dx)


PAIR_FUNCTIONS = {SlideIndex.COSINE: cosine, SlideIndex.PEARSON: pearson}


def check_flags_match_pair_functions(tv, sv, dx) -> list[str]:
    """Check that slide flags lag k for cosine and pearson exactly when the
    pair function raises on (template, window k), that a flagged score has
    the bits of +0.0 and any other score the bits of the pair function, and
    that the other indices flag nothing; return the error message of each
    flagged lag."""
    template, signal, m = Signal(tv, dx), Signal(sv, dx), len(tv)
    messages = []
    for index in SlideIndex:
        profile = slide(template, signal, index)
        pair = PAIR_FUNCTIONS.get(index)
        if pair is None:
            assert profile.degenerate_lags == (), (index, tv, sv, dx)
            continue
        for k in profile.lags:
            where = (index, tv, sv, dx, k)
            try:
                want = pair(template, Signal(sv[k:k + m], dx))
            except ValueError as exc:
                assert k in profile.degenerate_lags, where
                assert bits(profile.scores[k]) == bits(0.0), where
                messages.append(str(exc))
            else:
                assert k not in profile.degenerate_lags, where
                window = sv[k:k + m]
                if index is SlideIndex.COSINE and math.inf in (oinner(tv, tv),
                                                               oinner(window, window)):
                    # a raw sum of squares overflows: the pair function
                    # scores the scaled samples, slide's window does not yet
                    want = ocosine(tv, window)
                assert bits(profile.scores[k]) == bits(want), where
    return messages


def test_slide_flags_exactly_where_pair_function_raises():
    messages = set()
    for case in slide_cases():
        messages.update(check_flags_match_pair_functions(*case))
    # guards the cases: every rule that makes a window undefined is met
    assert messages == {
        "variance needs at least 2 samples",
        "pearson correlation is undefined for a zero-variance operand",
        "cannot compute this pearson correlation: the variance overflows",
        "cosine similarity is undefined for a zero-norm operand",
    }


edge_samples = st.one_of(
    st.floats(-5.0, 5.0),
    st.sampled_from(EDGE + (-HUGE / 2, 3e-162, -2.2e-162)),
)


@settings(deadline=None)
@given(st.integers(1, 5), st.lists(edge_samples, min_size=1, max_size=10),
       st.sampled_from([1.0, 0.5, 1e-300]), st.data())
def test_slide_flags_exactly_where_pair_function_raises_on_edge_values(m, sv, dx, data):
    tv = data.draw(st.lists(edge_samples, min_size=min(m, len(sv)), max_size=min(m, len(sv))))
    check_flags_match_pair_functions(tv, sv, dx)


def test_pearson_flags_windows_whose_variance_overflows():
    # each window's variance overflows to inf, so pearson raises on every
    # window and slide flags every lag; the true coefficient at lag 0 is
    # 0.5, and the finite ratio of the overflowed sums would be +-0.0
    sv = (0.0, 1e308, 5e307, -3e307, 1e307, 0.5)
    assert all(ovariance(sv[k:k + 3]) == math.inf for k in range(4))
    profile = slide(Signal((1.0, 2.0, 3.0)), Signal(sv), SlideIndex.PEARSON)
    assert profile.degenerate_lags == profile.lags == (0, 1, 2, 3)
    assert all_bits(profile.scores) == all_bits((0.0,) * 4)
    with pytest.raises(ValueError, match="the variance overflows"):
        pearson(Signal((1.0, 2.0, 3.0)), Signal(sv[:3]))


# Per-cell reference surfaces built from the public pointwise definitions.
def _ref_a4(x, y):
    m = kernel(MsetOpKind.ACUP, x, y)
    return m * m  # overflows to inf; m ** 2 would raise


def _ref_jr(x, y):
    den = kernel(MsetOpKind.ACUP, x, y)
    return 0.0 if den == 0 else kernel(MsetOpKind.SCAP, x, y) / den


def _oracle_jr(x, y):
    # from the oracle kernels: the signed intersection over the union of
    # absolutes, and +0.0 on the zero gate, where x or y is 0
    if osign(x) * osign(y) == 0:
        return 0.0
    return okernel("scap", x, y) / okernel("acup", x, y)


def test_jr_value_bits_match_oracle():
    for x, y in itertools.product(EDGE, repeat=2):
        assert bits(jr_value(x, y)) == bits(_oracle_jr(x, y)), (x, y)


_REF_CELL = {
    FieldExpr.A1: lambda x, y, d: kernel(MsetOpKind.SCAP, x, y),
    FieldExpr.A2: lambda x, y, d: kernel(MsetOpKind.ACUP, x, y),
    FieldExpr.A3: lambda x, y, d: x * y,
    FieldExpr.A4: lambda x, y, d: _ref_a4(x, y),
    FieldExpr.A5: lambda x, y, d: kernel(MsetOpKind.ACAP, x, y),
    FieldExpr.JR: lambda x, y, d: _ref_jr(x, y),
    FieldExpr.JR_POW: lambda x, y, d: signed_power(_ref_jr(x, y), d),
    FieldExpr.KRON: lambda x, y, d: float(gen_kronecker(x, y)),
}

SURFACE_GRIDS = {
    "symmetric": GridSpec(nx=5, ny=5),
    "symmetric_odd": GridSpec(-3.0, 3.0, -1.5, 1.5, 13, 9),
    "asymmetric": GridSpec(0.1, 3.7, -1.0, -0.3, 7, 5),
    "negative_zero_ends": GridSpec(-1.0, -0.0, -0.0, 2.5, 4, 3),
    "subnormal": GridSpec(-1e-310, 2e-310, -5e-324, 1.5e-323, 9, 7),
    "huge": GridSpec(-1e300, 1e300, -1e300, 1e300, 5, 5),
    "two_by_two": GridSpec(-1.0, 2.0, -3.0, 0.5, 2, 2),
}


def surface_cases():
    for name, spec in SURFACE_GRIDS.items():
        for expr in FieldExpr:
            for d in (range(1, 8) if expr is FieldExpr.JR_POW else (None,)):
                yield pytest.param(expr, spec, d, id=f"{expr.value}-{name}-d{d}")


@pytest.mark.parametrize("expr, spec, d", surface_cases())
def test_surface_bits_match_pointwise_reference(expr, spec, d):
    cell = _REF_CELL[expr]
    want = [cell(x, y, d) for y in spec.ys() for x in spec.xs()]
    assert all_bits(field(expr, spec, d=d).values) == all_bits(want)


def test_surface_grids_reach_their_edge_values():
    # guards the cases above against becoming vacuous
    a3 = field(FieldExpr.A3, SURFACE_GRIDS["symmetric"]).values
    assert all_bits(a3).count(bits(-0.0)) == 4
    huge = field(FieldExpr.A3, SURFACE_GRIDS["huge"]).values
    assert huge.count(float("inf")) == 8 and huge.count(-float("inf")) == 8
    assert any(0.0 < abs(x) < 2.2e-308 for x in SURFACE_GRIDS["subnormal"].xs())
    assert bits(SURFACE_GRIDS["negative_zero_ends"].xs()[-1]) == bits(-0.0)


@pytest.mark.parametrize("name", SURFACE_GRIDS)
def test_jrpow_past_the_float_range_is_the_kronecker_surface(name):
    # jr is s * min(|x|, |y|) / max(|x|, |y|) with s the sign product of x
    # and y, so it is +-1 exactly where |x| = |y| != 0: +1 on x = y and -1
    # on x = -y, which is kron there, and a quotient a/b of floats a < b
    # rounds below 1, so every other |jr| is < 1.  A power of 10**400 (or
    # 10**400 + 1) drives |jr| < 1 to 0 and keeps |jr| = 1: the odd power
    # equals kron value by value (a zero's sign may differ), and the even
    # one is |kron|, never negative
    spec = SURFACE_GRIDS[name]
    kron = field(FieldExpr.KRON, spec).values
    odd = field(FieldExpr.JR_POW, spec, 10**400 + 1).values
    assert len(odd) == len(kron) and all(a == b for a, b in zip(odd, kron))
    even = field(FieldExpr.JR_POW, spec, 10**400).values
    assert all_bits(even) == all_bits([abs(v) for v in kron])
    if name.startswith("symmetric"):  # the crests are lattice points
        assert kron.count(1.0) > 1 and kron.count(-1.0) > 1


@pytest.mark.parametrize("value, exponent, want", [
    (1e200, 2, math.inf), (-1e200, 2, math.inf), (-1e200, 3, -math.inf),
    (-2.0, 2000, math.inf), (-2.0, 2001, -math.inf), (1.5, 10**400, math.inf),
    (-1.5, 10**400 + 1, -math.inf), (-1.0, 10**400 + 1, -1.0), (-1.0, 10**400, 1.0),
    (-0.5, 10**400 + 1, -0.0), (-0.5, 10**400, 0.0),
], ids=lambda v: f"10**400+{v % 2}" if type(v) is int and v > 10**400 - 1 else None)
def test_signed_power_is_total_past_the_float_range(value, exponent, want):
    # a power past the float range overflows to inf, as a product does
    # (1e200 * 1e200 is inf), negative for a negative value and an odd
    # exponent, and an exponent past 2**1023 gives each |value| <= 1 its
    # closed form, 0 or 1 with the sign kept for odd exponents; until this
    # rule, each raised OverflowError
    assert bits(signed_power(value, exponent)) == bits(want)


OVERFLOWING = GridSpec(-1e308, 1e308, -1e308, 1e308, 5, 5)


@pytest.mark.parametrize("expr", list(FieldExpr))
def test_surface_rejects_lattice_whose_blend_overflows(expr):
    # the endpoint blend of +-1e308 gives (-1e308, -inf, nan, inf, 1e308);
    # before the lattice was checked, a3 returned inf and nan cells here,
    # and until GridSpec checked its own axes, xs() returned those points
    blend = [(-1e308 * (4 - i) + 1e308 * i) / 4 for i in range(5)]
    assert any(x != x for x in blend) and float("inf") in blend
    tall = GridSpec(-1.0, 1.0, -1e308, 1e308, 3, 5)
    assert len(tall.xs()) == 3
    with pytest.raises(ValueError, match="^the x lattice from -1e\\+308 to 1e\\+308 "):
        OVERFLOWING.xs()
    with pytest.raises(ValueError, match="^the y lattice from -1e\\+308 to 1e\\+308 "):
        tall.ys()
    with pytest.raises(ValueError, match="the x lattice"):
        field(expr, OVERFLOWING, d=3)
    with pytest.raises(ValueError, match="the y lattice"):
        field(expr, tall, d=3)


# An auto-ranged heatmap folds min and max over the sub-lattice of each
# axis's extreme points (fields._extreme_points), in row-major order, where
# the whole field's fold would take every cell: the two folds must agree bit
# for bit, a zero extreme's sign and an inf included.
def _fold(rows):
    lo, hi = math.inf, -math.inf
    for row in rows:
        lo, hi = min(lo, *row), max(hi, *row)
    return lo, hi


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


# bounds of every scale at which a fold can go wrong: signed zeros,
# subnormals, where products underflow to +-0, and magnitudes from 1e154,
# where a3 and a4 overflow to inf
grid_bounds = st.one_of(
    st.sampled_from([0.0, -0.0]),
    _signed(st.floats(5e-324, 2.2250738585072014e-308)),
    _signed(st.floats(1e154, 1e300)),
    _signed(st.floats(1e-3, 1e3)),
)


@settings(deadline=None, max_examples=300)
@given(grid_bounds, grid_bounds, grid_bounds, grid_bounds,
       st.integers(2, 40), st.integers(2, 40))
def test_extreme_point_fold_is_the_whole_field_fold(x0, x1, y0, y1, nx, ny):
    xs, ys = sorted((x0, x1)), sorted((y0, y1))
    assume(xs[0] < xs[1] and ys[0] < ys[1])
    spec = GridSpec(*xs, *ys, nx, ny)
    for expr in (FieldExpr.A1, FieldExpr.A2, FieldExpr.A3, FieldExpr.A4, FieldExpr.A5):
        sub = fields._rows(expr, spec, None, fields._extreme_points)
        assert all_bits(_fold(sub)) == all_bits(_fold(field_rows(expr, spec))), expr


def _outcome(power):
    try:
        return bits(power())
    except OverflowError as exc:
        return str(exc)


POWER_EDGE = EDGE + (math.inf, -math.inf, math.nan, -math.nan, 0.5, -0.5, 1e154, -1e154,
                     math.nextafter(1.0, 2.0), -math.nextafter(1.0, 2.0),
                     math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0))


@settings(deadline=None, max_examples=500)
@given(st.one_of(st.sampled_from(POWER_EDGE), st.floats()),
       st.sampled_from([*range(1, 65), 2**53 - 2, 2**53 - 1, 2**53 + 1, 2**53 + 2]))
def test_signed_powers_are_the_copysign_rule(value, d):
    # below 2**53 an odd power is taken as value ** d, which CPython
    # computes on the magnitude and negates; the rule it must equal keeps
    # the sign by copysign, and an overflow raises the same error
    def rule():
        return math.copysign(abs(value) ** d, value) if d % 2 else abs(value) ** d

    assert _outcome(lambda: _signed_powers([value], d)[0]) == _outcome(rule)
