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
its k, for the random cases."""

import math
import random
import struct
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from msetsim.cli import main as cli
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
)
from msetsim.io import fmt
from msetsim.msetops import MsetOpKind, Signal, aggregate

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
