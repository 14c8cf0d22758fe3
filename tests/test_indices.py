import math
import random
import sys
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

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
    split_intersection,
)
from msetsim.msetops import MsetOpKind, Signal, aggregate
from msetsim.sliding import SlideIndex, slide

from oracles import (
    ocoincidence,
    ocosine,
    oeuclidean,
    oinner,
    ointeriority,
    ojaccard,
    ojaccard_alt,
    ojaccard_power,
    oaggregate,
    onorm,
    osplit_intersection,
)

values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
sample_lists = st.lists(values, min_size=1, max_size=32)
nonzero = values.filter(lambda v: v != 0)
# magnitudes where squaring neither under- nor overflows
normal_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-100, max_value=1e100),
    st.floats(min_value=-1e100, max_value=-1e-100),
)


def pair_signals(a, b, dx=1.0):
    n = min(len(a), len(b))
    return Signal(a[:n], dx), Signal(b[:n], dx)


class TestInner:
    def test_orthogonal(self):
        assert inner(Signal((1, 0)), Signal((0, 1))) == 0.0

    def test_direct_sum(self):
        assert inner(Signal((2, 1)), Signal((1, 2))) == 4.0

    def test_sin_cos_orthogonality(self):
        n = 1000
        dx = 2 * math.pi / n
        xs = [(k + 0.5) * dx for k in range(n)]
        f = Signal([math.sin(x) for x in xs], dx)
        g = Signal([math.cos(x) for x in xs], dx)
        # analytic value is 0; midpoint quadrature reproduces it to rounding
        assert abs(inner(f, g)) <= 1e-9

    def test_mismatch(self):
        with pytest.raises(ValueError):
            inner(Signal((1,)), Signal((1, 2)))


def test_norm_345():
    assert norm(Signal((3, 4))) == 5.0


def test_euclidean_identity():
    assert euclidean(Signal((1, 1)), Signal((1, 1))) == 0.0


def test_euclidean_simple():
    assert euclidean(Signal((0, 0)), Signal((3, 4))) == 5.0


def test_cosine_antiparallel():
    assert cosine(Signal((1, 0)), Signal((-1, 0))) == -1.0


def test_cosine_zero_norm_errors():
    with pytest.raises(ValueError, match="zero-norm"):
        cosine(Signal((0, 0)), Signal((1, 1)))


class TestJaccard:
    @given(nonzero)
    def test_identity_crest(self, x):
        assert jaccard(Signal((x,)), Signal((x,))) == 1.0

    @given(nonzero)
    def test_anti_identity_crest(self, x):
        assert jaccard(Signal((x,)), Signal((-x,))) == -1.0

    def test_two_sample_example(self):
        f, g = Signal((2, 1)), Signal((1, 2))
        assert jaccard(f, g) == 0.5
        assert jaccard(f, g) == ojaccard([2, 1], [1, 2])

    def test_zero_signals_convention(self):
        assert jaccard(Signal((0, 0)), Signal((0, 0))) == 0.0


class TestJaccardAlt:
    @given(normal_values.filter(lambda v: v != 0), normal_values)
    def test_scalar_agreement(self, x, y):
        f, g = Signal((x,)), Signal((y,))
        a, b = jaccard(f, g), jaccard_alt(f, g)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_underflowing_denominator_is_total(self):
        assert jaccard_alt(Signal((1e-200,)), Signal((0.0,))) == 0.0

    def test_two_sample_example_differs(self):
        f, g = Signal((2, 1)), Signal((1, 2))
        assert jaccard_alt(f, g) == 0.25
        assert jaccard_alt(f, g) == ojaccard_alt([2, 1], [1, 2])
        assert jaccard(f, g) == 0.5

    def test_zero_signals_convention(self):
        assert jaccard_alt(Signal((0,)), Signal((0,))) == 0.0


class TestInteriority:
    def test_equal_signals(self):
        assert interiority(Signal((1, 2)), Signal((1, 2))) == 1.0

    def test_contained_operand(self):
        assert interiority(Signal((1, 0)), Signal((1, 1))) == 1.0

    def test_sign_blind_numerator(self):
        f, g = Signal((1, 1)), Signal((1, -1))
        assert interiority(f, g) == 1.0
        assert interiority(f, g) == ointeriority([1, 1], [1, -1])

    def test_zero_mass_convention(self):
        assert interiority(Signal((0, 0)), Signal((0, 0))) == 1.0
        assert interiority(Signal((0, 0)), Signal((1, 2))) == 1.0


class TestCoincidence:
    @given(values, values)
    def test_scalar_collapse(self, x, y):
        f, g = Signal((x,)), Signal((y,))
        assert abs(coincidence(f, g) - jaccard(f, g)) <= 1e-12

    def test_cancelling_intersection(self):
        assert coincidence(Signal((1, 1)), Signal((1, -1))) == 0.0

    def test_two_sample_value(self):
        # jaccard 0.5 times interiority 2/3
        f, g = Signal((2, 1)), Signal((1, 2))
        expected = ocoincidence([2, 1], [1, 2])
        assert coincidence(f, g) == expected
        assert math.isclose(expected, 1 / 3, rel_tol=1e-15)


class TestJaccardPower:
    @given(sample_lists, sample_lists)
    def test_power_one_is_jaccard(self, a, b):
        f, g = pair_signals(a, b)
        assert jaccard_power(f, g, 1) == jaccard(f, g)

    def test_tangent_scalar_pair(self):
        t = math.tan(math.radians(30.0))
        got = jaccard_power(Signal((1.0,)), Signal((t,)), 21)
        # frozen from a 50-digit oracle: (1/sqrt(3))**21
        assert abs(got - 9.777477504947175e-06) <= 1e-8

    @given(nonzero)
    def test_even_power_folds_anti_crest(self, x):
        assert jaccard_power(Signal((x,)), Signal((-x,)), 2) == 1.0

    @pytest.mark.parametrize("bad", [0, -3, 1.5, "2"])
    def test_rejects_bad_power(self, bad):
        with pytest.raises(ValueError):
            jaccard_power(Signal((1,)), Signal((1,)), bad)


class TestSplitIntersection:
    @given(sample_lists, sample_lists)
    def test_half_alpha_recovers_signed_intersection(self, a, b):
        f, g = pair_signals(a, b)
        assert split_intersection(f, g, 0.5) == aggregate(MsetOpKind.SCAP, f, g)

    def test_same_sign_only(self):
        assert split_intersection(Signal((1, -1)), Signal((1, 1)), 1.0) == 2.0

    def test_opposite_sign_only(self):
        assert split_intersection(Signal((1, -1)), Signal((1, 1)), 0.0) == -2.0

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            split_intersection(Signal((1,)), Signal((1,)), alpha)


class TestProperties:
    @given(sample_lists, sample_lists)
    def test_swap_symmetry(self, a, b):
        f, g = pair_signals(a, b)
        assert jaccard(f, g) == jaccard(g, f)
        assert interiority(f, g) == interiority(g, f)
        assert coincidence(f, g) == coincidence(g, f)
        assert inner(f, g) == inner(g, f)
        assert euclidean(f, g) == euclidean(g, f)
        if norm(f) > 0 and norm(g) > 0:
            assert cosine(f, g) == cosine(g, f)

    @given(sample_lists, sample_lists)
    def test_bounds(self, a, b):
        f, g = pair_signals(a, b)
        assert abs(jaccard(f, g)) <= 1.0
        assert 0.0 <= interiority(f, g) <= 1.0
        assert abs(coincidence(f, g)) <= abs(jaccard(f, g))

    @given(sample_lists, sample_lists,
           st.floats(min_value=0.001, max_value=1000).filter(lambda c: c != 0))
    def test_scale_invariance(self, a, b, c):
        f, g = pair_signals(a, b)
        # the law needs c*v to be c times v: skip draws where a scaled sample
        # leaves the normal range (see test_scale_underflow_example)
        assume(all(abs(c * v) >= sys.float_info.min for v in f.values + g.values if v != 0))
        fc = Signal([c * v for v in f.values])
        gc = Signal([c * v for v in g.values])
        base = jaccard(f, g)
        assert abs(jaccard(fc, gc) - base) <= 1e-9 * max(1.0, abs(base))
        # negative scale too: numerator sign factors square away
        fn = Signal([-c * v for v in f.values])
        gn = Signal([-c * v for v in g.values])
        assert abs(jaccard(fn, gn) - base) <= 1e-9 * max(1.0, abs(base))

    def test_scale_underflow_example(self):
        # 0.5 * 5e-324 rounds to 0, so the "scaled" pair is all zeros and
        # takes the zero-signal convention instead of the unscaled value
        f = Signal([5e-324])
        fc = Signal([0.5 * v for v in f.values])
        assert fc.values == (0.0,)
        assert jaccard(f, f) == 1.0
        assert jaccard(fc, fc) == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=32),
           st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=32))
    def test_nonnegative_samples_reduce_to_classic_ratio(self, a, b):
        f, g = pair_signals(a, b)
        den = sum(max(x, y) for x, y in zip(f.values, g.values))
        if den == 0:
            assert jaccard(f, g) == 0.0
        else:
            num = sum(min(x, y) for x, y in zip(f.values, g.values))
            classic = num / den
            assert abs(jaccard(f, g) - classic) <= 1e-12


def test_indices_match_oracles_on_random_signals():
    rng = random.Random(90125)
    for _ in range(500):
        n = rng.randint(1, 8)
        dx = rng.choice([1.0, 0.5, 0.01, 2.0])
        fv = [rng.uniform(-10, 10) for _ in range(n)]
        gv = [rng.choice([0.0, rng.uniform(-10, 10)]) for _ in range(n)]
        f, g = Signal(fv, dx), Signal(gv, dx)
        assert inner(f, g) == oinner(fv, gv, dx)
        assert norm(f) == onorm(fv, dx)
        assert euclidean(f, g) == oeuclidean(fv, gv, dx)
        assert jaccard(f, g) == ojaccard(fv, gv)
        assert jaccard_alt(f, g) == ojaccard_alt(fv, gv, dx)
        assert interiority(f, g) == ointeriority(fv, gv)
        assert coincidence(f, g) == ocoincidence(fv, gv)
        assert jaccard_power(f, g, 3) == ojaccard_power(fv, gv, 3)
        alpha = rng.random()
        assert split_intersection(f, g, alpha) == osplit_intersection(fv, gv, alpha, dx)
        if norm(f) > 0 and norm(g) > 0:
            assert cosine(f, g) == ocosine(fv, gv)


def test_report_fields_consistent():
    f, g = Signal((2, 1, -3)), Signal((1, 2, -1))
    rep = report(f, g)
    assert rep.jaccard == jaccard(f, g)
    assert rep.interiority == interiority(f, g)
    assert rep.coincidence == rep.jaccard * rep.interiority
    assert rep.cosine == cosine(f, g)
    assert rep.inner == inner(f, g)
    assert rep.norm_f == norm(f)
    assert rep.norm_g == norm(g)
    assert rep.euclidean == euclidean(f, g)


# The normalised indices are ratios of two sums over the same samples, so
# the spacing cancels: each is taken over the raw sums and has the same
# bits, raises and flagged windows at every dx.
SPACINGS = (1e-300, 0.00628, 0.1, 3.0, 1e300)
# samples with decimal exponents of about +-150, and zeros of both signs
spaced_values = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.builds(lambda m, e, s: s * math.ldexp(m, e),
              st.floats(0.5, 1.0), st.integers(-500, 500), st.sampled_from((1.0, -1.0))),
)
spaced_cases = st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.lists(spaced_values, min_size=n, max_size=n),
    st.lists(spaced_values, min_size=n, max_size=n),
    st.integers(1, n)))


def outcome(call):
    """repr of the call's result, which tells every float's bits apart (-0.0
    from 0.0 included), or the type and message of its ValueError."""
    try:
        return repr(call())
    except ValueError as err:
        return ("ValueError", str(err))


def normalised_outcomes(fv, gv, m, dx):
    f, g, t = Signal(fv, dx), Signal(gv, dx), Signal(fv[:m], dx)
    out = {fn.__name__: outcome(lambda: fn(f, g))
           for fn in (jaccard, interiority, coincidence, cosine)}
    out["jaccard_power"] = outcome(lambda: jaccard_power(f, g, 3))
    # jaccard, interiority, coincidence and cosine
    out["report"] = outcome(lambda: astuple(report(f, g))[:4])
    for index in (SlideIndex.JACCARD, SlideIndex.COINCIDENCE, SlideIndex.COSINE,
                  SlideIndex.PEARSON):
        # scores, best lag and score, and degenerate lags
        out[index] = outcome(lambda: astuple(slide(t, g, index))[1:])
    return out


@given(spaced_cases)
@example(([1e-30, 2e-30, -1e-30], [1e-30, 2e-30, -1e-30], 3))
def test_normalised_indices_do_not_depend_on_the_spacing(case):
    fv, gv, m = case
    at_one = normalised_outcomes(fv, gv, m, 1.0)
    for dx in SPACINGS:
        assert normalised_outcomes(fv, gv, m, dx) == at_one, dx


def test_jaccard_is_one_rounded_division_of_the_raw_sums():
    rng = random.Random(2626)
    for dx in SPACINGS:
        for _ in range(400):
            n = rng.randint(1, 20)
            fv = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            gv = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            scap, acup = oaggregate("scap", fv, gv), oaggregate("acup", fv, gv)
            want = float(Fraction(scap) / Fraction(acup))
            got = jaccard(Signal(fv, dx), Signal(gv, dx))
            assert repr(got) == repr(want), (fv, gv, dx)
    f = Signal((1e-30, 2e-30, -1e-30), dx=1e-300)
    assert (jaccard(f, f), coincidence(f, f)) == (1.0, 1.0)
