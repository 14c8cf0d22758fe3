import math
import re
from fractions import Fraction

import pytest

from msetsim import fields
from msetsim.cli import main
from msetsim.fields import FieldExpr, GridSpec, PolarProbe, ScalarField, field, jr_value, probe
from msetsim.fields import _lattice as lattice
from msetsim.io import write_field_csv
from msetsim.signs import gen_kronecker

SMALL = GridSpec(nx=101, ny=101)  # same [-2, 2]^2 domain, crests still on-lattice


class TestGridSpec:
    def test_defaults_cover_unit_demo_domain(self):
        spec = GridSpec()
        assert (spec.x_min, spec.x_max, spec.nx) == (-2.0, 2.0, 401)

    def test_lattice_endpoints_exact(self):
        spec = GridSpec(0.1, 3.7, -1.0, 2.0, 7, 5)
        assert spec.xs()[0] == 0.1
        assert spec.xs()[-1] == 3.7
        assert spec.ys()[0] == -1.0
        assert spec.ys()[-1] == 2.0
        assert len(spec.xs()) == 7
        assert len(spec.ys()) == 5

    def test_lattice_is_monotone(self):
        xs = GridSpec(0.1, 3.7, 0.0, 1.0, 33, 2).xs()
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_symmetric_lattice_negates_exactly(self):
        xs = GridSpec().xs()
        n = len(xs)
        for i in range(n):
            assert xs[i] == -xs[n - 1 - i]
        assert xs[n // 2] == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(x_min=2.0, x_max=-2.0),
        dict(y_min=1.0, y_max=1.0),
        dict(nx=1),
        dict(ny=0),
        dict(x_min=math.nan),
    ])
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(nx=2.5), "nx must be an integer, got 2.5"),
        (dict(nx=3.0), "nx must be an integer, got 3.0"),
        (dict(ny="3"), "ny must be an integer, got '3'"),
        # bool is a subclass of int, but True is not a point count
        (dict(nx=True), "nx must be an integer, got True"),
        (dict(ny=False), "ny must be an integer, got False"),
    ])
    def test_rejects_non_integer_point_counts(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            GridSpec(**kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("heatmap", [[], ["--pgm", "a1.pgm"]], ids=["csv", "auto-ranged"])
    def test_export_builds_each_axis_once(self, tmp_path, monkeypatch, heatmap):
        # an auto-ranged heatmap reads the rows twice, and the writer reads
        # the axes again: each axis is still built once
        built = []
        monkeypatch.setattr(fields, "_lattice", lambda *a: built.append(a[0]) or lattice(*a))
        monkeypatch.chdir(tmp_path)
        main(["field", "--expr", "a1", "--nx", "5", "--ny", "4", "--out", "a1.csv", *heatmap])
        assert sorted(built) == ["x", "y"]

    @pytest.mark.parametrize("kwargs, message", [
        # float() would parse text and turn True into 1.0; both are refused
        (dict(x_min="-3"), "x_min must be a real number, got '-3'"),
        (dict(y_min=b"0"), "y_min must be a real number, got b'0'"),
        (dict(x_min=True, x_max=2), "x_min must be a real number, got True"),
        (dict(y_max=None), "y_max must be a real number, got None"),
        (dict(x_max=[2.0]), "x_max must be a real number, got [2.0]"),
        # an int that float() cannot hold is past every finite bound
        (dict(x_max=10**400), "x_max must be finite"),
        (dict(y_min=-math.inf), "y_min must be finite"),
    ])
    def test_rejects_bounds_that_are_not_finite_reals(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            GridSpec(**kwargs)
        assert str(err.value) == message

    def test_bounds_of_any_real_type_become_floats(self):
        spec = GridSpec(Fraction(-1, 2), 3, 0, 2.5, 3, 2)
        assert (spec.x_min, spec.x_max, spec.y_min, spec.y_max) == (-0.5, 3.0, 0.0, 2.5)
        assert all(type(b) is float for b in (spec.x_min, spec.x_max, spec.y_min, spec.y_max))


class TestJrValue:
    def test_crest_cases(self):
        assert jr_value(1.3, 1.3) == 1.0
        assert jr_value(1.3, -1.3) == -1.0
        assert jr_value(0.0, 0.0) == 0.0

    def test_ratio(self):
        assert jr_value(2.0, 1.0) == 0.5
        assert jr_value(1.0, 2.0) == 0.5
        assert jr_value(-2.0, 1.0) == -0.5

    def test_axis_values(self):
        assert jr_value(1.5, 0.0) == 0.0
        assert jr_value(0.0, -0.5) == 0.0


class TestField:
    def test_values_row_major(self):
        spec = GridSpec(0.0, 1.0, 0.0, 2.0, 2, 3)
        fld = field(FieldExpr.A3, spec)
        assert len(fld.values) == 6
        # row-major, y from y_min upward: (0,0),(1,0),(0,1),(1,1),(0,2),(1,2)
        assert fld.values == (0.0, 0.0, 0.0, 1.0, 0.0, 2.0)
        assert fld.at(1, 2) == 2.0

    def test_jr_piecewise_on_lattice(self):
        fld = field(FieldExpr.JR, SMALL)
        xs = SMALL.xs()
        ys = SMALL.ys()
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                v = fld.at(i, j)
                if x == y == 0:
                    assert v == 0.0
                elif x == y or x == -y:
                    assert v == math.copysign(1.0, x * y)

    def test_a3_over_a4_equals_a1_over_a2(self):
        a1 = field(FieldExpr.A1, SMALL).values
        a2 = field(FieldExpr.A2, SMALL).values
        a3 = field(FieldExpr.A3, SMALL).values
        a4 = field(FieldExpr.A4, SMALL).values
        for v1, v2, v3, v4 in zip(a1, a2, a3, a4):
            if v2 == 0.0:
                continue  # origin
            assert abs(v3 / v4 - v1 / v2) <= 1e-12

    def test_a5_is_min_of_absolutes(self):
        fld = field(FieldExpr.A5, GridSpec(nx=11, ny=11))
        xs = GridSpec(nx=11, ny=11).xs()
        for j, y in enumerate(xs):
            for i, x in enumerate(xs):
                assert fld.at(i, j) == min(abs(x), abs(y))

    def test_kron_surface(self):
        fld = field(FieldExpr.KRON, SMALL)
        xs = SMALL.xs()
        n = len(xs)
        for i, x in enumerate(xs):
            expected = 0.0 if x == 0 else 1.0
            assert fld.at(i, i) == expected
            anti = 0.0 if x == 0 else -1.0
            assert fld.at(i, n - 1 - i) == anti
        assert fld.at(1, 60) == 0.0

    def test_quadrant_symmetry(self):
        fld = field(FieldExpr.JR, SMALL)
        n = SMALL.nx
        for j in range(n):
            for i in range(n):
                assert fld.at(i, j) == fld.at(n - 1 - i, n - 1 - j)
                assert fld.at(i, n - 1 - j) == -fld.at(i, j)

    def test_regeneration_is_pure(self):
        spec = GridSpec(nx=31, ny=17)
        assert field(FieldExpr.A1, spec).values == field(FieldExpr.A1, spec).values

    def test_jr_pow_even_is_folded(self):
        fld = field(FieldExpr.JR_POW, SMALL, d=2)
        xs = SMALL.xs()
        n = len(xs)
        assert all(v >= 0.0 for v in fld.values)
        for i, x in enumerate(xs):
            if x != 0:
                assert fld.at(i, i) == 1.0
                assert fld.at(i, n - 1 - i) == 1.0

    def test_jr_pow_converges_to_kron(self):
        small = GridSpec(nx=41, ny=41)
        pow21 = field(FieldExpr.JR_POW, small, d=21)
        kron = field(FieldExpr.KRON, small)
        xs = small.xs()
        off_crest = 0.0
        for j, y in enumerate(xs):
            for i, x in enumerate(xs):
                diff = abs(pow21.at(i, j) - kron.at(i, j))
                if abs(x) != abs(y):
                    off_crest = max(off_crest, diff)
                else:
                    assert diff == 0.0
        ratios = [min(abs(x), abs(y)) / max(abs(x), abs(y))
                  for x in xs for y in xs if abs(x) != abs(y)]
        bound = max(ratios) ** 21
        assert off_crest <= bound * (1 + 1e-12)

    def test_jr_pow_requires_positive_integer_power(self):
        for bad in (None, 0, -2, 1.5):
            with pytest.raises(ValueError):
                field(FieldExpr.JR_POW, SMALL, d=bad)

    def test_matches_pointwise_kron(self):
        spec = GridSpec(nx=21, ny=21)
        fld = field(FieldExpr.KRON, spec)
        xs = spec.xs()
        for j, y in enumerate(xs):
            for i, x in enumerate(xs):
                assert fld.at(i, j) == float(gen_kronecker(x, y))


class TestProbe:
    def test_near_diagonal_limit(self):
        v = probe(PolarProbe(math.pi / 4 - 1e-9, 1.0))
        assert 0.999999 < v < 1.0

    def test_zero_angle(self):
        for rho in (0.5, 1.0, 2.0):
            assert probe(PolarProbe(0.0, rho)) == 0.0

    def test_thirty_degrees(self):
        v = probe(PolarProbe(math.radians(30.0), 2.0))
        assert abs(v - math.tan(math.radians(30.0))) <= 1e-12

    @pytest.mark.parametrize("deg", [1, 5, 10, 15, 20, 25, 30, 35, 40])
    def test_tangent_law_and_radius_invariance(self, deg):
        alpha = math.radians(deg)
        vals = [probe(PolarProbe(alpha, rho)) for rho in (0.5, 1.0, 2.0)]
        for v in vals:
            assert abs(v - math.tan(alpha)) <= 1e-12
        assert max(vals) - min(vals) <= 1e-12

    def test_monotone_in_angle(self):
        angles = [i * (math.pi / 4) / 50 for i in range(50)]
        vals = [probe(PolarProbe(a, 1.5)) for a in angles]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=-0.1, rho=1.0),
        dict(alpha=math.pi / 4, rho=1.0),
        dict(alpha=0.2, rho=0.0),
        dict(alpha=0.2, rho=-1.0),
    ])
    def test_probe_validation(self, kwargs):
        with pytest.raises(ValueError):
            PolarProbe(**kwargs)


@pytest.mark.parametrize("count", [3, 5])
def test_scalar_field_rejects_a_wrong_value_count(count):
    with pytest.raises(ValueError, match=f"2x2 grid needs 4 values, got {count}"):
        ScalarField(GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2), [0.5] * count)


def test_scalar_field_stores_values_as_a_tuple():
    fld = ScalarField(GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2), [1.0, -0.0, 3.0, 4.0])
    assert type(fld.values) is tuple
    assert fld.values == (1.0, -0.0, 3.0, 4.0)


@pytest.mark.parametrize("value, shown", [
    ("x", "'x'"), (None, "None"), ([1.0], "[1.0]"), (10**400, "1" + "0" * 400),
    (-10**5000, "a negative number of more than 4300 digits"),
], ids=["text", "None", "list", "10**400", "-10**5000"])
def test_scalar_field_refuses_a_value_float_refuses(value, shown):
    # the first refused value is named; the writers' struct packing would
    # otherwise meet it and raise struct.error, TypeError or OverflowError
    with pytest.raises(ValueError, match=f"^field values must be numbers, got {re.escape(shown)}$"):
        ScalarField(GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 2), [1.0, value, 3.0, "later"])


def test_scalar_field_converts_each_value_with_float(tmp_path):
    # as a Signal sample is: a bool or an int becomes a float, and NaN and
    # +-inf are kept as field values
    fld = ScalarField(GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 2), [True, 2, math.nan, -math.inf])
    assert [type(v) for v in fld.values] == [float] * 4
    assert repr(fld.values) == "(1.0, 2.0, nan, -inf)"
    write_field_csv(fld, tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_text().splitlines()[1:] == [
        "-1,-1,1", "1,-1,2", "-1,1,nan", "1,1,-inf"]


def test_scalar_field_at_indexing():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 3, 2)
    fld = ScalarField(spec, tuple(float(k) for k in range(6)))
    assert fld.at(0, 0) == 0.0
    assert fld.at(2, 0) == 2.0
    assert fld.at(0, 1) == 3.0
