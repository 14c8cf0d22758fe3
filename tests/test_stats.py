import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msetsim.indices import inner
from msetsim.msetops import Signal
from msetsim.stats import (
    SplitProduct,
    covariance,
    double_pearson,
    mean,
    pearson,
    sample_stats,
    split_inner,
    standardize,
)

from oracles import ocovariance, opearson, osplit_inner

values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
sample_lists = st.lists(values, min_size=2, max_size=32)


def pair_signals(a, b, dx=1.0):
    n = min(len(a), len(b))
    return Signal(a[:n], dx), Signal(b[:n], dx)


class TestSampleStats:
    def test_simple(self):
        st_ = sample_stats(Signal((1, 2, 3)))
        assert st_ == (2.0, 1.0, 1.0, 3)

    def test_constant(self):
        assert sample_stats(Signal((4.2, 4.2, 4.2))).variance == 0.0

    def test_two_point(self):
        st_ = sample_stats(Signal((-1, 1)))
        assert st_.mean == 0.0
        assert st_.variance == 2.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            sample_stats(Signal((1,)))

    def test_mean_works_on_single_sample(self):
        assert mean(Signal((5,))) == 5.0

    @given(sample_lists)
    def test_std_is_root_of_variance(self, a):
        st_ = sample_stats(Signal(a))
        assert st_.std == math.sqrt(st_.variance)
        assert st_.variance >= 0.0


# samples whose standard deviation overflows to inf: (x - mean) / std is 0
# for the first, and NaN for the second, whose mean overflows too
OVERFLOWING = [(1e308, 5e307, -3e307, 1e307), (1.7e308, 1.7e308, -1.7e308)]


class TestStandardize:
    @pytest.mark.parametrize("values", OVERFLOWING)
    def test_overflowing_variance_errors(self, values):
        with pytest.raises(ValueError, match="overflow"):
            standardize(Signal(values))

    def test_two_point(self):
        out = standardize(Signal((0, 2)))
        assert out.values == pytest.approx((-1 / math.sqrt(2), 1 / math.sqrt(2)), abs=1e-15)

    def test_unit_steps(self):
        assert standardize(Signal((1, 2, 3))).values == (-1.0, 0.0, 1.0)

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError, match="zero-variance"):
            standardize(Signal((3, 3, 3)))

    def test_keeps_spacing(self):
        assert standardize(Signal((0, 2), 0.25)).dx == 0.25

    def test_output_is_standard(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(2, 64)
            out = standardize(Signal([rng.uniform(-10, 10) for _ in range(n)]))
            st_ = sample_stats(out)
            assert abs(st_.mean) <= 1e-12
            assert abs(st_.std - 1.0) <= 1e-12

    def test_idempotent(self):
        rng = random.Random(32)
        for _ in range(300):
            n = rng.randint(2, 64)
            once = standardize(Signal([rng.uniform(-10, 10) for _ in range(n)]))
            twice = standardize(once)
            for u, v in zip(once.values, twice.values):
                assert abs(u - v) <= 1e-12


class TestCovariance:
    @given(sample_lists)
    def test_self_covariance_is_variance(self, a):
        v = Signal(a)
        assert covariance(v, v) == sample_stats(v).variance

    def test_hand_value(self):
        assert covariance(Signal((1, 2)), Signal((2, 1))) == -0.5

    def test_constant_operand(self):
        assert covariance(Signal((1, 2)), Signal((5, 5))) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError, match="lengths"):
            covariance(Signal((1, 2)), Signal((1, 2, 3)))
        with pytest.raises(ValueError, match="2 samples"):
            covariance(Signal((1,)), Signal((2,)))


class TestPearson:
    def test_perfect_correlation(self):
        rng = random.Random(30)
        for _ in range(300):
            n = rng.randint(2, 64)
            a = [rng.uniform(-10, 10) for _ in range(n)]
            v = Signal(a)
            neg = Signal([-x for x in a])
            assert pearson(v, v) == pytest.approx(1.0, abs=1e-12)
            assert pearson(v, neg) == pytest.approx(-1.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = random.Random(39)
        for _ in range(300):
            n = rng.randint(2, 64)
            a = [rng.uniform(-10, 10) for _ in range(n)]
            scale = rng.uniform(0.01, 100)
            shift = rng.uniform(-100, 100)
            w = Signal([scale * x + shift for x in a])
            assert pearson(w, Signal(a)) >= 1.0 - 1e-9

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError, match="zero-variance"):
            pearson(Signal((1, 1)), Signal((1, 2)))

    @pytest.mark.parametrize("values", OVERFLOWING)
    def test_overflowing_variance_errors(self, values):
        # the fused sums give a NaN ratio, which the clamp would make -1
        f = Signal(values)
        with pytest.raises(ValueError, match="the variance overflows"):
            pearson(f, f)
        with pytest.raises(ValueError, match="the variance overflows"):
            pearson(Signal(range(len(values))), f)

    def test_equals_standardized_covariance(self):
        rng = random.Random(33)
        for _ in range(200):
            n = rng.randint(2, 64)
            x = Signal([rng.uniform(-10, 10) for _ in range(n)])
            y = Signal([rng.uniform(-10, 10) for _ in range(n)])
            expected = covariance(standardize(x), standardize(y))
            assert abs(pearson(x, y) - expected) <= 1e-9

    def test_matches_oracle(self):
        rng = random.Random(34)
        for _ in range(200):
            n = rng.randint(2, 8)
            xv = [rng.uniform(-10, 10) for _ in range(n)]
            yv = [rng.uniform(-10, 10) for _ in range(n)]
            assert pearson(Signal(xv), Signal(yv)) == opearson(xv, yv)
            assert covariance(Signal(xv), Signal(yv)) == ocovariance(xv, yv)


class TestSplitInner:
    def test_sin_cos_split(self):
        n = 1000
        dx = 2 * math.pi / n
        xs = [(k + 0.5) * dx for k in range(n)]
        f = Signal([math.sin(x) for x in xs], dx)
        g = Signal([math.cos(x) for x in xs], dx)
        sp = split_inner(f, g)
        # analytic quadrant integrals of sin*cos are +1 and -1
        assert abs(sp.same_sign - 1.0) <= 0.01
        assert abs(sp.opposite_sign + 1.0) <= 0.01
        assert abs(sp.same_sign + sp.opposite_sign) <= 1e-3
        assert (sp.same_sign, sp.opposite_sign) == osplit_inner(f.values, g.values, dx)

    def test_all_same_sign(self):
        sp = split_inner(Signal((1, 2)), Signal((3, 4)))
        assert sp.opposite_sign == 0.0
        assert sp.same_sign == 11.0

    def test_hand_value(self):
        sp = split_inner(Signal((1, -1)), Signal((1, 1)))
        assert sp.same_sign == 1.0
        assert sp.opposite_sign == -1.0
        assert sp.same_sign + sp.opposite_sign == 0.0

    @given(sample_lists, sample_lists)
    def test_recombination(self, a, b):
        f, g = pair_signals(a, b)
        sp = split_inner(f, g)
        ip = inner(f, g)
        scale = max(1.0, sp.same_sign - sp.opposite_sign)
        assert abs((sp.same_sign + sp.opposite_sign) - ip) <= 1e-12 * scale
        assert abs(sp.combined(0.5) - ip) <= 1e-12 * scale

    @given(sample_lists, sample_lists)
    def test_gate_signs(self, a, b):
        f, g = pair_signals(a, b)
        sp = split_inner(f, g)
        assert sp.same_sign >= 0.0
        assert sp.opposite_sign <= 0.0

    @given(sample_lists, sample_lists)
    def test_gate_exchange_still_sums_to_inner(self, a, b):
        # the two gates partition unity on nonzero pairs, whichever one is
        # called "same": summing all gated products recovers the inner product
        f, g = pair_signals(a, b)
        total = 0.0
        for x, y in zip(f.values, g.values):
            sx = (x > 0) - (x < 0)
            sy = (y > 0) - (y < 0)
            total += abs(sx - sy) / 2 * x * y   # gates applied in swapped roles
            total += abs(sx + sy) / 2 * x * y
        ip = inner(f, g)
        sp = split_inner(f, g)
        assert abs(total - ip) <= 1e-12 * max(1.0, sp.same_sign - sp.opposite_sign)

    def test_combined_is_affine_in_alpha(self):
        sp = SplitProduct(3.0, -2.0)
        assert sp.combined(1.0) == 2 * sp.same_sign
        assert sp.combined(0.0) == 2 * sp.opposite_sign
        mid = 0.5 * (sp.combined(0.25) + sp.combined(0.75))
        assert abs(sp.combined(0.5) - mid) <= 1e-12

    def test_combined_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            SplitProduct(1.0, 0.0).combined(1.5)


class TestDoublePearson:
    def test_identical_operands(self):
        rng = random.Random(35)
        x = Signal([rng.uniform(-5, 5) for _ in range(40)])
        dp = double_pearson(x, x, 0.5)
        assert abs(dp.p_plus - 1.0) <= 1e-12
        assert dp.p_minus == 0.0
        assert abs(dp.p_alpha - 1.0) <= 1e-12

    def test_half_alpha_recovers_pearson(self):
        rng = random.Random(36)
        for _ in range(200):
            n = rng.randint(2, 64)
            x = Signal([rng.uniform(-10, 10) for _ in range(n)])
            y = Signal([rng.uniform(-10, 10) for _ in range(n)])
            dp = double_pearson(x, y, 0.5)
            assert abs(dp.p_alpha - pearson(x, y)) <= 1e-9

    def test_x_cloud_vs_branch_cloud(self):
        base = [0.5 + k for k in range(50)]
        x_cloud_x, x_cloud_y = [], []
        for b in base:
            x_cloud_x += [b, b, -b, -b]
            x_cloud_y += [b, -b, b, -b]
        xc = double_pearson(Signal(x_cloud_x), Signal(x_cloud_y), 0.5)
        branch_x = [b for b in base] + [-b for b in base]
        branch = double_pearson(Signal(branch_x), Signal(branch_x), 0.5)
        # mixed-branch cloud: strongly negative p_minus, Pearson near 0;
        # single branch: p_minus vanishes, Pearson near 1
        assert xc.p_minus <= -0.4
        assert abs(pearson(Signal(x_cloud_x), Signal(x_cloud_y))) <= 1e-9
        assert branch.p_minus == 0.0
        assert pearson(Signal(branch_x), Signal(branch_x)) >= 1.0 - 1e-12

    def test_positive_affine_rescale_invariance(self):
        rng = random.Random(37)
        n = 30
        xv = [rng.uniform(-10, 10) for _ in range(n)]
        yv = [rng.uniform(-10, 10) for _ in range(n)]
        dp1 = double_pearson(Signal(xv), Signal(yv), 0.3)
        dp2 = double_pearson(Signal([3.5 * v + 2 for v in xv]),
                             Signal([0.25 * v - 7 for v in yv]), 0.3)
        assert dp1.p_plus == pytest.approx(dp2.p_plus, abs=1e-9)
        assert dp1.p_minus == pytest.approx(dp2.p_minus, abs=1e-9)
        assert dp1.p_alpha == pytest.approx(dp2.p_alpha, abs=1e-9)

    def test_alpha_endpoints(self):
        rng = random.Random(38)
        x = Signal([rng.uniform(-5, 5) for _ in range(20)])
        y = Signal([rng.uniform(-5, 5) for _ in range(20)])
        lo = double_pearson(x, y, 0.0)
        hi = double_pearson(x, y, 1.0)
        assert lo.p_alpha == 2 * lo.p_minus
        assert hi.p_alpha == 2 * hi.p_plus

    def test_errors(self):
        x = Signal((1, 2, 3))
        with pytest.raises(ValueError, match="alpha"):
            double_pearson(x, x, -0.5)
        with pytest.raises(ValueError, match="lengths"):
            double_pearson(x, Signal((1, 2)), 0.5)
        with pytest.raises(ValueError, match="zero-variance"):
            double_pearson(x, Signal((1, 1, 1)), 0.5)

    @pytest.mark.parametrize("values", OVERFLOWING)
    def test_overflowing_variance_errors(self, values):
        f = Signal(values)
        with pytest.raises(ValueError, match="overflow"):
            double_pearson(f, f, 0.5)
        with pytest.raises(ValueError, match="overflow"):
            double_pearson(Signal(range(len(values))), f, 0.5)


ZERO_VAR = "cannot standardize a zero-variance signal"
OVERFLOWS = "cannot standardize this signal: the variance overflows"
PEARSON_ZERO = "pearson correlation is undefined for a zero-variance operand"
PEARSON_OVERFLOWS = "cannot compute this pearson correlation: the variance overflows"
TOO_SHORT = "variance needs at least 2 samples"
CONSTANT, VARIED, HUGE3 = (3.0, 3.0, 3.0), (1.0, 2.0, 4.0), (1e308, 5e307, -3e307)


class TestRefusalOrder:
    """The exact message each refusal raises, where several apply at once.

    double_pearson checks alpha, then the lengths, then x (too short, zero
    variance, overflowing variance), then y; pearson checks that both have
    2 samples, then the lengths, then a zero variance on either side, then
    an overflowing one; standardize checks its one operand."""

    @pytest.mark.parametrize("x, y, dp, pr, sx, sy", [
        (CONSTANT, VARIED, ZERO_VAR, PEARSON_ZERO, ZERO_VAR, None),
        (VARIED, CONSTANT, ZERO_VAR, PEARSON_ZERO, None, ZERO_VAR),
        (HUGE3, VARIED, OVERFLOWS, PEARSON_OVERFLOWS, OVERFLOWS, None),
        (VARIED, HUGE3, OVERFLOWS, PEARSON_OVERFLOWS, None, OVERFLOWS),
        (CONSTANT, HUGE3, ZERO_VAR, PEARSON_ZERO, ZERO_VAR, OVERFLOWS),
        (HUGE3, CONSTANT, OVERFLOWS, PEARSON_ZERO, OVERFLOWS, ZERO_VAR),
        ((1.0,), (2.0,), TOO_SHORT, TOO_SHORT, TOO_SHORT, TOO_SHORT),
        ((1.0,), (1.0, 2.0), "signal lengths differ: 1 vs 2", TOO_SHORT, TOO_SHORT, None),
        ((1.0, 2.0), (1.0,), "signal lengths differ: 2 vs 1", TOO_SHORT, None, TOO_SHORT),
        (CONSTANT, (1.0, 2.0), "signal lengths differ: 3 vs 2",
         "signal lengths differ: 3 vs 2", ZERO_VAR, None),
    ], ids=["zero_x", "zero_y", "overflow_x", "overflow_y", "zero_x_overflow_y",
            "overflow_x_zero_y", "one_sample", "one_vs_two", "two_vs_one", "lengths_first"])
    def test_first_refusal_wins(self, x, y, dp, pr, sx, sy):
        x, y = Signal(x), Signal(y)
        for call, message in [(lambda: double_pearson(x, y, 0.5), dp),
                              (lambda: pearson(x, y), pr),
                              (lambda: standardize(x), sx), (lambda: standardize(y), sy)]:
            if message is None:
                call()
                continue
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    def test_spacings_must_agree(self):
        # after the lengths and before any variance: the constant operand
        # would otherwise raise its zero variance first
        x, y = Signal(CONSTANT, 0.5), Signal(VARIED)
        for call in (lambda: covariance(x, y), lambda: pearson(x, y),
                     lambda: double_pearson(x, y, 0.5)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "sample spacings differ: 0.5 vs 1.0"

    def test_alpha_is_checked_first(self):
        with pytest.raises(ValueError) as err:
            double_pearson(Signal((1.0,)), Signal(CONSTANT), 1.5)
        assert str(err.value) == "alpha must lie in [0, 1], got 1.5"
