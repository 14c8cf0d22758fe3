"""Every public parameter that is not a sample is checked by one of three
rules in ``msetops``: a real number, a count, or a member of a table.

Each site below gets the same hostile values.  A site refuses each of them
with a ValueError whose message names its parameter, except where a value
is a valid one for the site (a count takes any int of at least its least
value, so ``10**400`` is a count, and a power that large gives its closed
form; a column selector that is text is a header name; ``has_header``
takes True, False and None).  Reals of every numeric type (``Fraction``,
``Decimal``, ``int``) are taken, and a type that stores the parameter
stores a float.
"""

import math
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction

import pytest

from msetsim.fields import FieldExpr, GridSpec, PolarProbe, ScalarField, field, field_rows
from msetsim.indices import jaccard_power, signed_power, split_intersection
from msetsim.io import HeatmapRange, read_csv
from msetsim.msetops import Signal, aggregate, kernel
from msetsim.sliding import slide
from msetsim.stats import SplitProduct, double_pearson

# not a real number: text and bools, which float() would take, and values
# float() refuses
NOT_REAL = ["1", b"1", True, False, None, 1j, [1.0]]
# reals that no finite range holds; the int is past the float range
NOT_FINITE = [10**400, math.nan, math.inf]
HOSTILE = NOT_REAL + NOT_FINITE

F = Signal((1.0, -2.0, 0.5))
G = Signal((2.0, 1.0, -0.5))
TINY = GridSpec(nx=3, ny=3)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("parameters") / "data.csv"
    p.write_text("1,4\n2,5\n")
    return p


def _grid(name):
    return lambda v, _: GridSpec(**{name: v})


def _crossed(name):
    """A bound just past the other bound of its axis (whose default is -2
    or 2), and the message that reports it."""
    v = 2.0 if name.endswith("min") else -2.0
    return [(v, f"need {name[0]}_min < {name[0]}_max, got {v!r} >= {v!r}")]


# (site, call(value, csv_path), the requirement a refused value is reported
# with, the message of a non-finite value when the site reports it in its
# own words, and values just outside the range with their messages, None
# for the requirement's)
REALS = [
    *[(f"GridSpec.{name}", _grid(name), f"{name} must be a real number", f"{name} must be finite",
       _crossed(name)) for name in ("x_min", "x_max", "y_min", "y_max")],
    ("PolarProbe.alpha", lambda v, _: PolarProbe(v, 1.0), "alpha must lie in [0, pi/4)", None,
     [(math.pi / 4, None), (-5e-324, None)]),
    ("PolarProbe.rho", lambda v, _: PolarProbe(0.1, v), "rho must be positive and finite", None,
     [(0.0, None), (-5e-324, None)]),
    ("Signal.dx", lambda v, _: Signal((1.0,), v), "sample spacing must be a positive finite real",
     None, [(0.0, None), (-5e-324, None)]),
    ("read_csv.dx", lambda v, p: read_csv(p, [0], dx=v),
     "sample spacing must be a positive finite real", None, [(0.0, None)]),
    ("split_intersection.alpha", lambda v, _: split_intersection(F, G, v),
     "alpha must lie in [0, 1]", None, [(math.nextafter(1.0, 2.0), None), (-5e-324, None)]),
    ("double_pearson.alpha", lambda v, _: double_pearson(F, G, v),
     "alpha must lie in [0, 1]", None, [(math.nextafter(1.0, 2.0), None)]),
    ("SplitProduct.combined.alpha", lambda v, _: SplitProduct(1.0, -1.0).combined(v),
     "alpha must lie in [0, 1]", None, [(-5e-324, None)]),
    ("HeatmapRange.lo", lambda v, _: HeatmapRange(v, 1.0), "heatmap levels must be real numbers",
     "need finite lo < hi, got {f!r}, 1.0", [(1.0, "need finite lo < hi, got 1.0, 1.0")]),
    ("HeatmapRange.hi", lambda v, _: HeatmapRange(0.0, v), "heatmap levels must be real numbers",
     "need finite lo < hi, got 0.0, {f!r}", [(0.0, "need finite lo < hi, got 0.0, 0.0")]),
]


def _as_float(v):
    return math.inf if v == 10**400 else float(v)


def _real_cases():
    for site, call, refused, non_finite, outside in REALS:
        for v in NOT_REAL:
            yield pytest.param(call, v, f"{refused}, got {v!r}", id=f"{site}-{v!r}")
        for v in NOT_FINITE:
            message = (f"{refused}, got {v!r}" if non_finite is None
                       else non_finite.format(f=_as_float(v)))
            yield pytest.param(call, v, message, id=f"{site}-{str(v)[:8]}")
        for v, message in outside:
            yield pytest.param(call, v, message or f"{refused}, got {v!r}", id=f"{site}-{v!r}")


# jrpow on TINY (x, y in -2, 0, 2): jr is +-1 on the four corners, where
# |x| = |y| != 0, and 0 elsewhere, so every even power is 1 at the corners
CORNERS = [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]

# (site, call, the requirement a value that is not a count is reported
# with, the least count, the message of the value just below it, None for
# the requirement's, and what the call gives for the count 10**400, None
# where that is not a closed-form value); a count takes any int of at least
# its least value, 10**400 included
COUNTS = [
    ("GridSpec.nx", _grid("nx"), "nx must be an integer", 2,
     "grids need at least 2 points per axis", None),
    ("GridSpec.ny", _grid("ny"), "ny must be an integer", 2,
     "grids need at least 2 points per axis", None),
    ("field_rows.d", lambda v, _: field_rows(FieldExpr.JR_POW, TINY, v),
     "JR_POW needs a positive integer power", 1, None, CORNERS),
    ("field.d", lambda v, _: field(FieldExpr.JR_POW, TINY, v),
     "JR_POW needs a positive integer power", 1, None,
     ScalarField(TINY, [v for row in CORNERS for v in row])),
    # 0.5 ** d is 0 from d = 1075 on: 2**-1075 rounds to 0, half the least subnormal
    ("signed_power.exponent", lambda v, _: signed_power(0.5, v),
     "exponent must be a positive integer", 1, None, 0.0),
    # jaccard(F, G) is (1 - 1 - 0.5) / (2 + 2 + 0.5) = -1/9, inside (-1, 1)
    ("jaccard_power.d", lambda v, _: jaccard_power(F, G, v),
     "exponent must be a positive integer", 1, None, 0.0),
    # text is a header name, so "1" is left out of the selector's values
    ("read_csv.selector", lambda v, p: read_csv(p, [0, v]),
     "column index must be an integer >= 0", 0, None, None),
]


def _count_cases():
    for site, call, refused, least, below, _ in COUNTS:
        values = [v for v in NOT_REAL + [math.nan, math.inf]
                  if not (site == "read_csv.selector" and isinstance(v, str))]
        for v in [*values, 1.9, float(least + 1), Fraction(least + 1)]:
            yield pytest.param(call, v, f"{refused}, got {v!r}", id=f"{site}-{v!r}")
        yield pytest.param(call, least - 1, below or f"{refused}, got {least - 1!r}",
                           id=f"{site}-{least - 1}")


# (site, call, what the table holds, the value of a member: the text a
# member is named by is not the member)
MEMBERS = [
    ("kernel.kind", lambda v, _: kernel(v, 1.0, 2.0), "operation kind", "scap"),
    ("aggregate.kind", lambda v, _: aggregate(v, F, G), "operation kind", "cap"),
    ("field_rows.expr", lambda v, _: field_rows(v, TINY), "field expression", "a1"),
    ("field.expr", lambda v, _: field(v, TINY), "field expression", "jr"),
    ("slide.index", lambda v, _: slide(Signal((1.0, 2.0)), F, v), "slide index", "jaccard"),
]


def _member_cases():
    for site, call, what, named in MEMBERS:
        for v in [*HOSTILE, named]:
            yield pytest.param(call, v, f"unknown {what}: {v!r}", id=f"{site}-{str(v)[:8]}")


def _signed_power_value_cases():
    # every other value of the hostile list is a real, whose power is total
    for v in NOT_REAL:
        yield pytest.param(lambda v, _: signed_power(v, 3), v,
                           f"value must be a real number, got {v!r}", id=f"signed_power.value-{v!r}")


def _read_with_header(v, p):
    return read_csv(p, [0], has_header=v)


def _has_header_cases():
    for v in [v for v in HOSTILE if v not in (True, False, None)] + [1, 0, "no"]:
        message = f"has_header must be None, True or False, got {v!r}"
        yield pytest.param(_read_with_header, v, message, id=f"read_csv.has_header-{str(v)[:8]}")


@pytest.mark.parametrize("call, value, message",
                         [*_real_cases(), *_count_cases(), *_member_cases(), *_has_header_cases(),
                          *_signed_power_value_cases()])
def test_hostile_value_is_a_value_error_naming_the_parameter(csv_path, call, value, message):
    # field_rows checks its arguments when called, before the first row
    with pytest.raises(ValueError) as err:
        call(value, csv_path)
    assert str(err.value) == message


# (site, the stored parameter built from a value, a fraction and an int the
# site takes)
ACCEPTED = [
    ("GridSpec.x_min", lambda v: GridSpec(x_min=v).x_min, -0.5, -1),
    ("GridSpec.y_max", lambda v: GridSpec(y_max=v).y_max, -0.5, -1),
    ("PolarProbe.alpha", lambda v: PolarProbe(v, 1.0).alpha, 0.5, 0),
    ("PolarProbe.rho", lambda v: PolarProbe(0.1, v).rho, 0.5, 3),
    ("Signal.dx", lambda v: Signal((1.0,), v).dx, 0.5, 2),
    ("HeatmapRange.lo", lambda v: HeatmapRange(v, 1.0).lo, -0.5, 0),
    ("HeatmapRange.hi", lambda v: HeatmapRange(-1.0, v).hi, -0.5, 0),
]


@pytest.mark.parametrize("site, stored, number, whole", ACCEPTED, ids=[a[0] for a in ACCEPTED])
def test_reals_of_every_type_are_stored_as_floats(site, stored, number, whole):
    for value, expected in ((Fraction(number), number), (Decimal(str(number)), number),
                            (whole, whole)):
        got = stored(value)
        assert type(got) is float and got == expected, value


@pytest.mark.parametrize("alpha", [Fraction(1, 4), Decimal("0.25"), 0, 1])
def test_alpha_of_every_real_type_mixes_as_its_float(alpha):
    assert split_intersection(F, G, alpha) == split_intersection(F, G, float(alpha))
    assert double_pearson(F, G, alpha) == double_pearson(F, G, float(alpha))


@pytest.mark.parametrize("value, exponent, want", [
    # an even power of an int, a Fraction or a Decimal stays of its type
    # without the real rule
    (2, 2, 4.0),
    (Fraction(1, 2), 2, 0.25),
    (Decimal("-0.5"), 2, 0.25),
    # an int power past the float range is inf, not a big int
    (2, 10**6, math.inf),
    # an int value past the float range is +-inf, and so is its power
    (10**400, 3, math.inf),
    (-10**400, 3, -math.inf),
    (-10**400, 2, math.inf),
], ids=["int", "fraction", "decimal", "huge power", "huge int",
        "huge negative int, odd power", "huge negative int, even power"])
def test_signed_power_of_every_real_type_is_a_float(value, exponent, want):
    got = signed_power(value, exponent)
    assert type(got) is float and got == want


def test_read_csv_spacing_of_every_real_type_is_a_float(csv_path):
    for dx in (Fraction(1, 2), Decimal("0.5"), 2):
        (f,) = read_csv(csv_path, [0], dx=dx)
        assert type(f.dx) is float and f.dx == float(dx)


def test_counts_past_the_float_range_are_counts():
    # any int of at least 2 is a point count; the lattice is built on demand,
    # where a count whose blend cannot be computed in floats is refused, and
    # refused again when asked again: a refused axis is not kept
    spec = GridSpec(nx=10**400, ny=10**400)
    assert spec.nx == spec.ny == 10**400
    for axis, build in (("x", spec.xs), ("y", spec.ys)) * 2:
        with pytest.raises(ValueError, match=f"^the {axis} lattice cannot be computed in floats"):
            build()


@pytest.mark.parametrize("call, closed_form", [
    pytest.param(call, value, id=site) for site, call, *_, value in COUNTS if value is not None])
def test_powers_past_the_float_range_take_their_closed_forms(csv_path, call, closed_form):
    got = call(10**400, csv_path)
    # field_rows gives its rows as they come; repr tells +0.0 from -0.0, and
    # an even power is never negative
    assert repr(list(got) if isinstance(got, Iterator) else got) == repr(closed_form)


def test_slide_with_a_bad_index_raises_rather_than_flagging_every_lag():
    # a lookup inside the guard that flags an undefined template would read
    # the unknown index as "every lag degenerate"
    with pytest.raises(ValueError, match="^unknown slide index: 'jaccard'$"):
        slide(Signal((1.0, 2.0)), Signal((1.0, 2.0, 3.0)), "jaccard")


def test_bad_selector_is_reported_before_the_file_is_opened(tmp_path):
    for selector in (1.9, True, -1):
        with pytest.raises(ValueError, match="^column index must be an integer >= 0, got "):
            read_csv(tmp_path / "missing.csv", [selector])
    with pytest.raises(ValueError, match="^has_header must be None, True or False, got 'no'$"):
        read_csv(tmp_path / "missing.csv", [0], has_header="no")
