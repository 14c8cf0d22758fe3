"""Bit-exact agreement with the naive oracles on edge values: signed zeros,
subnormals, zero and all-zero templates, the extreme template lengths, a
non-unit spacing, and magnitudes near 1e308 where sums overflow to inf or
NaN.  Floats are compared by their bit patterns, so -0.0 differs from 0.0
and NaN results are checked too.  The scalar surfaces are compared cell by
cell with the public pointwise definitions on the same kinds of lattice."""

import itertools
import random
import struct
from dataclasses import astuple

import pytest

from msetsim.fields import FieldExpr, GridSpec, field
from msetsim.indices import (
    coincidence,
    interiority,
    jaccard,
    report,
    signed_power,
    split_intersection,
)
from msetsim.msetops import MsetOpKind, Signal, abs_mass, aggregate, kernel
from msetsim.signs import gen_kronecker
from msetsim.sliding import SlideIndex, slide
from msetsim.stats import covariance, pearson, split_inner

from oracles import (
    OP_NAMES,
    oabs_mass,
    oaggregate,
    ocoincidence,
    ocosine,
    ocovariance,
    oeuclidean,
    oinner,
    ointeriority,
    ojaccard,
    okernel,
    onorm,
    opearson,
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
    for fv, gv in edge_pairs():
        f, g = Signal(fv, dx), Signal(gv, dx)
        where = (fv, gv, dx)
        assert all_bits(astuple(split_inner(f, g))) == \
            all_bits(osplit_inner(fv, gv, dx)), where
        for alpha in (0.0, 0.3, 1.0):
            assert bits(split_intersection(f, g, alpha)) == \
                bits(osplit_intersection(fv, gv, alpha, dx)), where
        assert bits(jaccard(f, g)) == bits(ojaccard(fv, gv, dx)), where
        assert bits(interiority(f, g)) == bits(ointeriority(fv, gv, dx)), where
        assert bits(coincidence(f, g)) == bits(ocoincidence(fv, gv, dx)), where
        if len(fv) >= 2:
            assert bits(covariance(f, g)) == bits(ocovariance(fv, gv)), where
            if ovariance(fv) != 0.0 and ovariance(gv) != 0.0:
                assert bits(pearson(f, g)) == bits(opearson(fv, gv)), where
        if onorm(fv, dx) == 0.0 or onorm(gv, dx) == 0.0:
            continue  # report raises with cosine
        rep = report(f, g)
        want = (ojaccard(fv, gv, dx), ointeriority(fv, gv, dx), ocoincidence(fv, gv, dx),
                ocosine(fv, gv, dx), oinner(fv, gv, dx), onorm(fv, dx), onorm(gv, dx),
                oeuclidean(fv, gv, dx))
        assert all_bits(astuple(rep)) == all_bits(want), where


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


UNDERFLOWING_NORMS = [
    # the squared norm 5e-324 of the first window is nonzero, but dx times
    # it is 0, so its norm is 0 and the window is flagged
    ((2e-160, 1e-160), (2.2e-162, 0.0, 1e-160), 0.5, (0,)),
    # at a spacing of 1e-300 windows of ordinary small samples underflow
    ((1.0, -2.0), (1e-13, 0.0, 1.0, 2.0, 0.0, -1e-12), 1e-300, (0, 4)),
    # and so does the template, which flags every lag
    ((1e-13, 2e-13), (1.0, 2.0, 3.0), 1e-300, (0, 1)),
]


def test_cosine_flags_window_whose_norm_underflows_with_spacing():
    for tv, sv, dx, flagged in UNDERFLOWING_NORMS:
        profile = slide(Signal(tv, dx), Signal(sv, dx), SlideIndex.COSINE)
        where = (tv, sv, dx)
        assert profile.degenerate_lags == flagged, where
        assert all(bits(profile.scores[k]) == bits(0.0) for k in flagged), where
        if len(flagged) < len(profile.lags):
            assert profile.best_score > 0.0, where
        lags, scores, best_lag, best_score, oflagged = oslide(list(tv), list(sv), "cosine", dx)
        assert profile.lags == tuple(lags), where
        assert all_bits(profile.scores) == all_bits(scores), where
        assert (profile.best_lag, bits(profile.best_score)) == (best_lag, bits(best_score)), where
        assert profile.degenerate_lags == tuple(oflagged), where


# Per-cell reference surfaces built from the public pointwise definitions.
def _ref_a4(x, y):
    m = kernel(MsetOpKind.ACUP, x, y)
    return m * m  # overflows to inf; m ** 2 would raise


def _ref_jr(x, y):
    den = kernel(MsetOpKind.ACUP, x, y)
    return 0.0 if den == 0 else kernel(MsetOpKind.SCAP, x, y) / den


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


OVERFLOWING = GridSpec(-1e308, 1e308, -1e308, 1e308, 5, 5)


@pytest.mark.parametrize("expr", list(FieldExpr))
def test_surface_rejects_lattice_whose_blend_overflows(expr):
    # the endpoint blend of +-1e308 gives (-1e308, -inf, nan, inf, 1e308);
    # before the lattice was checked, a3 returned inf and nan cells here
    xs = OVERFLOWING.xs()
    assert any(x != x for x in xs) and float("inf") in xs
    with pytest.raises(ValueError, match="the x lattice"):
        field(expr, OVERFLOWING, d=3)
    with pytest.raises(ValueError, match="the y lattice"):
        field(expr, GridSpec(-1.0, 1.0, -1e308, 1e308, 3, 5), d=3)
