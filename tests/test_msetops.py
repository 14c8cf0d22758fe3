import collections
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msetsim.msetops import MsetOpKind, Signal, abs_mass, aggregate, kernel, require_compatible

from oracles import OP_NAMES, oaggregate, okernel

finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)
sample_lists = st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                                  allow_infinity=False), min_size=1, max_size=32)


class TestSignal:
    def test_values_coerced_to_float_tuple(self):
        s = Signal([1, 2, 3])
        assert s.values == (1.0, 2.0, 3.0)
        assert all(isinstance(v, float) for v in s.values)
        assert len(s) == 3
        assert s.dx == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one sample"):
            Signal(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Signal((1.0, bad))

    @pytest.mark.parametrize("bad,shown", [(math.nan, "nan"), (math.inf, "inf"),
                                           (-math.inf, "-inf")])
    def test_names_the_first_non_finite_sample(self, bad, shown):
        with pytest.raises(ValueError, match=f"finite, got {shown}$"):
            Signal((1.0, 2.0, bad, math.nan, 3.0))
        with pytest.raises(ValueError, match=f"finite, got {shown}$"):
            Signal([str(bad)])

    @pytest.mark.parametrize("values, shown", [
        ([1.0, None], "None"), ([1j], "1j"), ([2.0, 10**400, None], repr(10**400)),
        (["1", "one"], "'one'"), ([[1.0]], "[1.0]"),
        # the first refused sample, whether float() refuses it or it is not finite
        ([1.0, math.inf, None], "inf"), ([None, math.nan], "None"),
        # a one-shot iterator is read once, so its refused sample is found
        (iter([1.0, None, "x"]), "None"), ((v for v in (2.0, 1j)), "1j"),
    ], ids=["None", "complex", "huge int", "text", "list", "inf first", "None first",
            "iterator", "generator"])
    def test_names_the_first_sample_it_refuses(self, values, shown):
        with pytest.raises(ValueError) as err:
            Signal(values)
        assert str(err.value) == f"signal samples must be finite, got {shown}"

    def test_reads_a_one_shot_iterator(self):
        assert Signal(iter([1, "2.5", -0.0])).values == (1.0, 2.5, -0.0)

    # text and bools too, as for a GridSpec bound, though float() takes
    # "0.5", b"1" and True
    @pytest.mark.parametrize("dx", [0.0, -1.0, math.nan, math.inf, "0.5", b"1", True, False])
    def test_rejects_bad_spacing(self, dx):
        with pytest.raises(ValueError, match="spacing"):
            Signal((1.0,), dx)

    @pytest.mark.parametrize("values", ["123", b"12", bytearray(b"12")], ids=repr)
    def test_rejects_text_and_bytes_as_samples(self, values):
        # float() takes each character of a str and each byte of bytes, so
        # unchecked these would be the samples (1.0, 2.0, 3.0) and (49.0, 50.0)
        with pytest.raises(ValueError, match=f"samples must be numbers, got {type(values).__name__}$"):
            Signal(values)

    @pytest.mark.parametrize("values", [
        {3.0, -1.0, 2.0}, frozenset({3.0, -1.0}), {3.0: "a", -1.0: "b"},
        collections.OrderedDict([(3.0, 0), (-1.0, 0)]), collections.Counter([3.0, -1.0]),
        type("Samples", (set,), {})({3.0, -1.0})], ids=lambda v: type(v).__name__)
    def test_rejects_sets_and_dicts_as_samples(self, values):
        # float() would take their elements or keys in iteration order, which
        # is not a sample order: on CPython {3.0, -1.0, 2.0} reads (2.0, 3.0, -1.0)
        with pytest.raises(ValueError, match=f"samples must be numbers, got {type(values).__name__}$"):
            Signal(values)


def test_require_compatible():
    require_compatible(Signal((1, 2)), Signal((3, 4)))
    with pytest.raises(ValueError, match="lengths"):
        require_compatible(Signal((1, 2)), Signal((3,)))
    with pytest.raises(ValueError, match="spacings"):
        require_compatible(Signal((1, 2), 1.0), Signal((3, 4), 0.5))


@pytest.mark.parametrize("kind,x,y,expected", [
    (MsetOpKind.SCAP, 3.0, 2.0, 2.0),
    (MsetOpKind.SCAP, 3.0, -2.0, -2.0),
    (MsetOpKind.ACUP, -3.0, 2.0, 3.0),
    (MsetOpKind.SCAP_PLUS, 3.0, -2.0, 0.0),
    (MsetOpKind.CAP, -1.0, 2.0, -1.0),
    (MsetOpKind.CUP, -1.0, 2.0, 2.0),
    (MsetOpKind.SCUP, 3.0, -2.0, -3.0),
    (MsetOpKind.SCAP_MINUS, 3.0, -2.0, 2.0),
    (MsetOpKind.SCUP_PLUS, -3.0, -2.0, 3.0),
    (MsetOpKind.SCUP_MINUS, 0.0, 2.0, 1.0),
    (MsetOpKind.ACAP, -3.0, 2.0, 2.0),
])
def test_kernel_examples(kind, x, y, expected):
    assert kernel(kind, x, y) == expected


def test_kernel_rejects_non_finite():
    with pytest.raises(ValueError):
        kernel(MsetOpKind.SCAP, math.nan, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", list(MsetOpKind))
def test_kernel_rejects_non_finite_operands(kind, bad):
    with pytest.raises(ValueError, match="finite"):
        kernel(kind, bad, 1.0)
    with pytest.raises(ValueError, match="finite"):
        kernel(kind, 1.0, bad)


@pytest.mark.parametrize("kind", ["cap", None, 3, [], MsetOpKind])
def test_unknown_kind_is_a_value_error(kind):
    with pytest.raises(ValueError, match="unknown operation kind"):
        kernel(kind, 1.0, 2.0)
    with pytest.raises(ValueError, match="unknown operation kind"):
        aggregate(kind, Signal((1.0, -2.0)), Signal((2.0, 0.5)))


@given(st.sampled_from(list(MsetOpKind)), finite, finite)
def test_kernel_matches_oracle(kind, x, y):
    assert kernel(kind, x, y) == okernel(kind.value, x, y)


@given(st.sampled_from(list(MsetOpKind)), finite, finite)
def test_kernel_swap_symmetry(kind, x, y):
    assert kernel(kind, x, y) == kernel(kind, y, x)


@given(finite, finite)
def test_kernel_split_identities(x, y):
    scap = kernel(MsetOpKind.SCAP, x, y)
    assert scap == kernel(MsetOpKind.SCAP_PLUS, x, y) - kernel(MsetOpKind.SCAP_MINUS, x, y)
    scup = kernel(MsetOpKind.SCUP, x, y)
    assert scup == kernel(MsetOpKind.SCUP_PLUS, x, y) - kernel(MsetOpKind.SCUP_MINUS, x, y)


@given(finite, finite)
def test_kernel_gate_products_vanish_unless_one_zero(x, y):
    one_zero = (x == 0) != (y == 0)
    if not one_zero:
        assert kernel(MsetOpKind.SCAP_PLUS, x, y) * kernel(MsetOpKind.SCAP_MINUS, x, y) == 0.0


@given(finite, finite)
def test_pointwise_factorization(x, y):
    lhs = x * y
    rhs = kernel(MsetOpKind.SCAP, x, y) * kernel(MsetOpKind.ACUP, x, y)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@given(finite, finite)
def test_absolute_kernels_ordered_and_nonnegative(x, y):
    acap = kernel(MsetOpKind.ACAP, x, y)
    acup = kernel(MsetOpKind.ACUP, x, y)
    assert 0.0 <= acap <= acup


class TestAggregate:
    def test_signed_intersection_example(self):
        assert aggregate(MsetOpKind.SCAP, Signal((2, 1)), Signal((1, 2))) == 2.0

    def test_absolute_union_example(self):
        assert aggregate(MsetOpKind.ACUP, Signal((2, 1)), Signal((1, 2))) == 4.0

    def test_plain_intersection_with_null_operand_is_not_null(self):
        # min against an all-zero signal can go negative
        assert aggregate(MsetOpKind.CAP, Signal((1, 1)), Signal((0, 0))) == 0.0
        assert aggregate(MsetOpKind.CAP, Signal((-1, 1)), Signal((0, 0))) == -1.0

    def test_signed_intersection_with_null_operand_is_null(self):
        assert aggregate(MsetOpKind.SCAP, Signal((-1, 1)), Signal((0, 0))) == 0.0

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            aggregate(MsetOpKind.SCAP, Signal((1,)), Signal((1, 2)))
        with pytest.raises(ValueError):
            aggregate(MsetOpKind.SCAP, Signal((1, 2), 1.0), Signal((1, 2), 2.0))


@given(sample_lists, sample_lists, st.floats(min_value=0.001, max_value=100, allow_nan=False),
       st.sampled_from(list(MsetOpKind)))
def test_aggregate_dx_linearity(values, other, dx, kind):
    n = min(len(values), len(other))
    values, other = values[:n], other[:n]
    f1, g1 = Signal(values, dx), Signal(other, dx)
    f2, g2 = Signal(values, 1.0), Signal(other, 1.0)
    assert aggregate(kind, f1, g1) == dx * aggregate(kind, f2, g2)


def test_aggregate_matches_oracle_on_random_signals():
    rng = random.Random(7041)
    for _ in range(500):
        n = rng.randint(1, 8)
        dx = rng.choice([1.0, 0.5, 0.01, 2.0])
        fv = [rng.uniform(-10, 10) for _ in range(n)]
        gv = [rng.choice([0.0, rng.uniform(-10, 10)]) for _ in range(n)]
        f, g = Signal(fv, dx), Signal(gv, dx)
        for kind in MsetOpKind:
            assert aggregate(kind, f, g) == oaggregate(kind.value, fv, gv, dx)


def test_mset_op_kind_is_exactly_ten_tags():
    assert sorted(k.value for k in MsetOpKind) == sorted(OP_NAMES)


@pytest.mark.parametrize("values,dx,expected", [
    ((1, -2, 3), 1.0, 6.0),
    ((0, 0), 0.5, 0.0),
    ((-1, -1), 2.0, 4.0),
])
def test_abs_mass_examples(values, dx, expected):
    assert abs_mass(Signal(values, dx)) == expected
