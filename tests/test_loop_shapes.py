"""The two loop shapes of the Jaccard family, tied to each other and to the
naive oracles, bit for bit.

The pair functions (``jaccard``, ``interiority``, ``coincidence``,
``report``) walk the raw samples and branch on their signs; ``slide``'s
window scorers take two adjacent windows per pass, the Jaccard and
coincidence ones over per-sample gate tuples, each over a signal padded
with one zero sample.  For equal-length operands ``slide`` scores exactly
one window, and never takes the padded one's score, so its score must be
the pair function's value for every index (the inner product times
``dx``), and where ``cosine`` or ``pearson`` raises, its one lag must be
flagged and score +0.0.  The gate loop behind ``aggregate``, ``kernel``
and ``split_intersection`` is checked against the oracles of every kind.
Every sign-aware value is also checked to be unchanged when both
operands are negated, the symmetry the sign-branch loops fold on.
Inputs reach every binade, from the subnormals to the largest
float, with signed zeros, over three spacings; where a sum overflows and
makes a result NaN, two NaN results match.  Where the union, the smaller
absolute mass or a raw sum of squares overflows, the pair functions score
the samples scaled by a power of two and match the oracles on those
samples, and so do ``slide``'s windows: each window's score is still the
pair function's value."""

import math
import random
import struct
import sys

import pytest

from msetsim.indices import (
    coincidence,
    cosine,
    euclidean,
    inner,
    interiority,
    jaccard,
    jaccard_power,
    norm,
    report,
    split_intersection,
)
from msetsim.msetops import MsetOpKind, Signal, aggregate, kernel
from msetsim.sliding import SlideIndex, slide
from msetsim.stats import pearson

from oracles import (
    OP_NAMES,
    oaggregate,
    ocoincidence_rescored,
    ocosine_rescored,
    ointeriority_rescored,
    ojaccard_power_rescored,
    ojaccard_rescored,
    okernel,
    osplit_intersection,
)

MAX = sys.float_info.max
EDGE = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
        1e-310, -1e-310, 1e308, -1e308, MAX, -MAX, 1.0, -1.0, 2.5, -3.0)
CASES_PER_SPACING = 7000
GATED_KINDS = [k for k in MsetOpKind if k not in (MsetOpKind.CAP, MsetOpKind.CUP)]


def key(v: float) -> bytes:
    """The bit pattern of v, with every NaN mapped to one key."""
    return b"nan" if math.isnan(v) else struct.pack("<d", v)


def sample(rng: random.Random) -> float:
    """An edge value, a subnormal, or a random value of any exponent."""
    r = rng.random()
    if r < 0.4:
        return rng.choice(EDGE)
    if r < 0.5:
        return rng.choice((1.0, -1.0)) * rng.randint(1, 2**52 - 1) * 5e-324
    v = math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1074, 1024))
    return rng.choice((1.0, -1.0)) * min(v, MAX)


def cases(dx: float, seed: int):
    rng = random.Random(seed)
    for _ in range(CASES_PER_SPACING):
        n = rng.randint(1, 9)
        fv = [sample(rng) for _ in range(n)]
        if rng.random() < 0.3:  # equal magnitudes: ties and exact +-1 ratios
            gv = [rng.choice((1.0, -1.0)) * v for v in fv]
        else:
            gv = [sample(rng) for _ in range(n)]
        yield fv, gv, Signal(fv, dx), Signal(gv, dx), rng.random()


def outcome(call):
    """The call's result, or the type and message of its ValueError."""
    try:
        return call()
    except ValueError as err:
        return ("ValueError", str(err))


def same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return key(a) == key(b)
    return a == b


@pytest.mark.parametrize("dx, seed", [(1.0, 1401), (0.5, 1402), (1e-300, 1403)])
def test_loop_shapes_agree_bit_for_bit(dx, seed):
    rescored = 0
    for fv, gv, f, g, alpha in cases(dx, seed):
        where = (fv, gv, dx)
        j, i, c = jaccard(f, g), interiority(f, g), coincidence(f, g)
        rescored += oaggregate("acup", fv, gv) == math.inf
        cos = outcome(lambda: cosine(f, g))
        # the window loops score the one window of equal-length operands
        # with the pair function's value, rescored where a denominator
        # overflows, and flag it exactly where the pair function raises
        for index, value in ((SlideIndex.JACCARD, j), (SlideIndex.COINCIDENCE, c),
                             (SlideIndex.INNER, inner(f, g)), (SlideIndex.COSINE, cos),
                             (SlideIndex.PEARSON, outcome(lambda: pearson(f, g)))):
            profile = slide(f, g, index)
            raised = isinstance(value, tuple)
            assert profile.degenerate_lags == ((0,) if raised else ()), (index, where)
            assert same(profile.scores[0], 0.0 if raised else value), (index, where)
        # the pair loops against the oracles, rescored where a denominator
        # overflows
        assert same(j, ojaccard_rescored(fv, gv)), where
        assert same(i, ointeriority_rescored(fv, gv)), where
        assert same(c, ocoincidence_rescored(fv, gv)), where
        if not isinstance(cos, tuple):
            assert same(cos, ocosine_rescored(fv, gv)), where
        # bit for bit: a Jaccard ratio of -0.0 gives -0.0 for odd d
        assert same(jaccard_power(f, g, 3), ojaccard_power_rescored(fv, gv, 3)), where
        # every report field is its pair function's value; report raises
        # exactly when cosine does, with its message
        want = dict(jaccard=j, interiority=i, coincidence=c, inner=inner(f, g),
                    norm_f=norm(f), norm_g=norm(g), euclidean=euclidean(f, g))
        rep = outcome(lambda: report(f, g))
        if isinstance(cos, tuple):
            assert rep == cos, where
        else:
            for name, value in dict(want, cosine=cos).items():
                assert same(getattr(rep, name), value), (name, where)
        # the gate loop: every kind, and the alpha-split intersection
        for op in OP_NAMES:
            kind = MsetOpKind(op)
            assert same(aggregate(kind, f, g), oaggregate(op, fv, gv, dx)), (op, where)
            for x, y in zip(fv, gv):
                got, oracle = kernel(kind, x, y), okernel(op, x, y)
                # the oracle's s*x magnitudes can make a zero -0.0; the
                # gated kernels give +0.0 (see the kernel docstring)
                if got == 0.0 and kind not in (MsetOpKind.CAP, MsetOpKind.CUP):
                    assert key(got) == key(0.0) and oracle == 0.0, (op, x, y)
                else:
                    assert same(got, oracle), (op, x, y)
        for a in (0.0, 0.5, 1.0, alpha):
            assert same(split_intersection(f, g, a),
                        osplit_intersection(fv, gv, a, dx)), (a, where)
        # the sign fold's premise: negating both operands keeps every sign
        # relation and magnitude, so no sign-aware value moves.  CAP and CUP
        # are left out: min(-x, -y) is -max(x, y)
        nf, ng = Signal([-v for v in fv], dx), Signal([-v for v in gv], dx)
        assert same(jaccard(nf, ng), j), where
        assert same(interiority(nf, ng), i), where
        assert same(coincidence(nf, ng), c), where
        assert same(jaccard_power(nf, ng, 3), jaccard_power(f, g, 3)), where
        for kind in GATED_KINDS:
            assert same(aggregate(kind, nf, ng), aggregate(kind, f, g)), (kind, where)
        for a in (0.0, 0.5, 1.0, alpha):
            assert same(split_intersection(nf, ng, a), split_intersection(f, g, a)), (a, where)
    # guards the inputs: some unions must overflow, as in the near-MAX cases
    assert rescored > 0
