import math
import os
import itertools
import pathlib
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import msetsim.io
from msetsim import fields
from msetsim.cli import BOUNDED_EXPRS, cli, main
from msetsim.fields import FieldExpr, GridSpec, field, field_rows
from msetsim.io import HeatmapRange, export_field, read_csv, write_field_csv, write_pgm
from msetsim.msetops import Signal
from msetsim.sliding import SlideIndex, slide
from msetsim.stats import double_pearson, pearson, standardize

from oracles import ogates, omean, opearson, osplit_inner, ovariance


def parse_kv(captured: str) -> dict:
    out = {}
    for line in captured.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = float(value)
    return out


def write_two_cols(path, xs, ys, header="a,b"):
    lines = [header] + [f"{x},{y}" for x, y in zip(xs, ys)]
    path.write_text("\n".join(lines) + "\n")


def reference_csv(header, rows) -> str:
    """The expected output file: each number with 17 significant digits,
    lags as plain integers."""
    def cell(v):
        return str(v) if isinstance(v, int) else format(v, ".17g")
    return ",".join(header) + "\n" + "".join(",".join(map(cell, row)) + "\n" for row in rows)


# samples with both signed zeros, so the sign gates take the value 0.5
ZERO_XS = [0.0, -0.0, 0.5, -1.25, 0.0, 3.0, -0.0, 1e-310, -2.0]
ZERO_YS = [-0.0, 0.0, -0.5, 2.0, 1.5, 0.0, -3.0, -1e-310, -0.0]


class TestCompute:
    def test_identity_columns(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        write_two_cols(p, [1, 2, -3], [1, 2, -3])
        assert cli(["compute", "--input", str(p), "--cols", "a,b"]) == 0
        got = parse_kv(capsys.readouterr().out)
        assert got["jaccard"] == 1.0
        assert got["coincidence"] == 1.0
        assert got["interiority"] == 1.0
        assert got["euclidean"] == 0.0
        assert set(got) == {"jaccard", "interiority", "coincidence", "cosine",
                            "inner", "norm_f", "norm_g", "euclidean"}

    def test_single_index(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        write_two_cols(p, [1, 2, 3], [3, 2, 1])
        assert cli(["compute", "--input", str(p), "--cols", "a,b",
                    "--index", "pearson"]) == 0
        got = parse_kv(capsys.readouterr().out)
        assert got == {"pearson": pearson(Signal((1, 2, 3)), Signal((3, 2, 1)))}

    def test_overflowing_pearson_is_data_error(self, tmp_path, capsys):
        # before, the clamp turned the NaN ratio into pearson=-1, exit 0
        p = tmp_path / "d.csv"
        write_two_cols(p, OVERFLOWING, OVERFLOWING)
        assert cli(["compute", "--input", str(p), "--cols", "a,b",
                    "--index", "pearson"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the variance overflows" in captured.err

    def test_dx_flag(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        write_two_cols(p, [1, 2], [1, 2])
        assert cli(["compute", "--input", str(p), "--cols", "a,b",
                    "--index", "inner", "--dx", "0.5"]) == 0
        got = parse_kv(capsys.readouterr().out)
        assert got["inner"] == 2.5

    def test_index_selection_by_position(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text("5,5\n1,2\n")  # headerless
        assert cli(["compute", "--input", str(p), "--cols", "0,1",
                    "--index", "jaccard"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("jaccard=")


class TestFieldCommand:
    def test_small_grid_deterministic_across_threads(self, tmp_path):
        args = ["field", "--expr", "jr", "--nx", "41", "--ny", "41"]
        out1 = tmp_path / "f1.csv"
        out2 = tmp_path / "f2.csv"
        assert cli(args + ["--out", str(out1), "--threads", "1"]) == 0
        assert cli(args + ["--out", str(out2), "--threads", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_pgm_defaults_for_bounded_surface(self, tmp_path):
        out = tmp_path / "k.csv"
        pgm = tmp_path / "k.pgm"
        assert cli(["field", "--expr", "kron", "--nx", "11", "--ny", "11",
                    "--out", str(out), "--pgm", str(pgm)]) == 0
        blob = pgm.read_bytes()
        assert blob.startswith(b"P5\n11 11\n255\n")
        payload = blob[len(b"P5\n11 11\n255\n"):]
        assert payload[0] == 0  # (-2, 2) anti-crest with default [-1, 1] range
        assert payload[10] == 255

    def test_pgm_autorange_for_unbounded_surface(self, tmp_path):
        out = tmp_path / "a2.csv"
        pgm = tmp_path / "a2.pgm"
        assert cli(["field", "--expr", "a2", "--nx", "11", "--ny", "11",
                    "--out", str(out), "--pgm", str(pgm)]) == 0
        payload = pgm.read_bytes()[len(b"P5\n11 11\n255\n"):]
        assert min(payload) == 0 and max(payload) == 255

    def test_jrpow_uses_power(self, tmp_path):
        out = tmp_path / "p.csv"
        assert cli(["field", "--expr", "jrpow", "--D", "2", "--nx", "5", "--ny", "5",
                    "--out", str(out)]) == 0
        values = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
        assert all(v >= 0 for v in values)

    def test_lo_without_hi_is_data_error(self, tmp_path, capsys):
        code = cli(["field", "--expr", "jr", "--nx", "5", "--ny", "5",
                    "--out", str(tmp_path / "f.csv"), "--pgm", str(tmp_path / "f.pgm"),
                    "--lo", "-1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_overflowing_lattice_is_data_error(self, tmp_path, capsys):
        code = cli(["field", "--expr", "a3", "--nx", "5", "--ny", "5",
                    "--xmin=-1e308", "--xmax=1e308", "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert "the x lattice" in capsys.readouterr().err

    def test_count_past_the_float_range_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = cli(["field", "--expr", "a1", "--nx", str(10**400), "--ny", "3",
                    "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: the x lattice cannot be computed in floats")
        assert not out.exists()

    @pytest.mark.parametrize("power, kron", [
        (10**400 + 1, lambda v: v),  # signed zeros may differ: -0 is 0
        (10**400, abs),
    ], ids=["odd", "even"])
    def test_power_past_the_float_range_is_the_kronecker_surface(self, tmp_path, power, kron):
        out = tmp_path / "p.csv"
        assert cli(["field", "--expr", "jrpow", "--D", str(power), "--nx", "9", "--ny", "7",
                    "--xmin", "-2", "--xmax", "2", "--ymin", "-1.5", "--ymax", "1.5",
                    "--out", str(out)]) == 0
        (values,) = read_csv(out, ["value"])
        spec = GridSpec(-2.0, 2.0, -1.5, 1.5, 9, 7)
        want = [kron(v) for v in field(FieldExpr.KRON, spec).values]
        assert list(values.values) == want and 1.0 in want

    def test_repeated_calls_start_from_defaults(self, tmp_path):
        out = tmp_path / "f.csv"
        assert cli(["field", "--expr", "jrpow", "--D", "2", "--nx", "3", "--ny", "3",
                    "--xmin", "1", "--out", str(out)]) == 0
        assert cli(["field", "--expr", "--bogus"]) == 2
        assert cli(["field", "--expr", "jrpow", "--nx", "3", "--ny", "3",
                    "--out", str(out)]) == 0
        # D back at 1 and xmin back at -2: (-2, -2) on the crest scores +1,
        # (2, -2) on the anti-crest keeps its sign
        lines = out.read_text().splitlines()
        assert lines[1] == "-2,-2,1"
        assert lines[3] == "2,-2,-1"


class TestSlide:
    def test_profile_file_and_best_lag(self, tmp_path, capsys):
        tpl = tmp_path / "t.csv"
        sig = tmp_path / "s.csv"
        out = tmp_path / "profile.csv"
        tpl.write_text("2\n3\n")
        sig.write_text("0\n1\n2\n3\n0\n")
        assert cli(["slide", "--template", str(tpl), "--signal", str(sig),
                    "--index", "jaccard", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "best_lag=2"
        lines = out.read_text().splitlines()
        assert lines[0] == "lag,score"
        assert len(lines) == 5
        assert lines[3].split(",")[0] == "2"
        assert float(lines[3].split(",")[1]) == 1.0

    @pytest.mark.parametrize("index", list(SlideIndex))
    def test_profile_bytes_match_reference(self, tmp_path, capsys, index):
        tpl = tmp_path / "t.csv"
        sig = tmp_path / "s.csv"
        out = tmp_path / "profile.csv"
        template = [0.0, -0.0, 0.5]
        samples = [-0.0, 0.0, -0.5, 0.5, -0.0, 1.0, -1.0, 0.0, 1e-310, 0.0]
        tpl.write_text("".join(f"{v}\n" for v in template))
        sig.write_text("".join(f"{v}\n" for v in samples))
        assert cli(["slide", "--template", str(tpl), "--signal", str(sig),
                    "--index", index.value, "--out", str(out)]) == 0
        prof = slide(Signal(template), Signal(samples), index)
        assert capsys.readouterr().out == f"best_lag={prof.best_lag}\n"
        want = reference_csv(["lag", "score"], zip(prof.lags, prof.scores))
        assert out.read_bytes() == want.encode()


# the standard deviation overflows to inf
OVERFLOWING = [1e308, 5e307, -3e307, 1e307]


class TestSplit:
    def test_alpha_half_matches_pearson(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        xs = [0.3 * k - 2 for k in range(40)]
        ys = [math.sin(x) + 0.2 * x for x in xs]
        write_two_cols(p, xs, ys)
        assert cli(["split", "--input", str(p), "--cols", "a,b",
                    "--alpha", "0.5"]) == 0
        got = parse_kv(capsys.readouterr().out)
        assert abs(got["p_alpha"] - got["pearson"]) <= 1e-9
        dp = double_pearson(Signal(xs), Signal(ys), 0.5)
        assert got["p_plus"] == dp.p_plus
        assert got["p_minus"] == dp.p_minus

    def test_branch_mix_matches_the_oracle_composition(self, capsys):
        # the committed file the CI smoke block pins: points on y = x and on
        # y = -x, a weak pearson hiding a strongly negative p_minus
        path = pathlib.Path(__file__).parent / "data" / "branch_mix.csv"
        assert cli(["split", "--input", str(path), "--cols", "x,y", "--alpha", "0.3"]) == 0
        xs, ys = (list(c) for c in zip(*(map(float, line.split(","))
                                         for line in path.read_text().splitlines()[1:])))

        def standardized(v):
            m, s = omean(v), math.sqrt(ovariance(v))
            return [(a - m) / s for a in v]

        plus, minus = osplit_inner(standardized(xs), standardized(ys))
        p_plus, p_minus = plus / (len(xs) - 1), minus / (len(xs) - 1)
        want = {"p_plus": p_plus, "p_minus": p_minus,
                "p_alpha": 2.0 * 0.3 * p_plus + 2.0 * 0.7 * p_minus, "pearson": opearson(xs, ys)}
        assert capsys.readouterr().out == "".join(f"{k}={v:.17g}\n" for k, v in want.items())
        assert p_minus < -0.5 and abs(want["pearson"]) < 0.2

    def test_overflowing_variance_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        write_two_cols(p, OVERFLOWING, OVERFLOWING)
        assert cli(["split", "--input", str(p), "--cols", "a,b", "--alpha", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflow" in captured.err


class TestStandardize:
    def test_overflowing_variance_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        out = tmp_path / "std.csv"
        write_two_cols(src, OVERFLOWING, OVERFLOWING)
        assert cli(["standardize", "--input", str(src), "--col", "a",
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflow" in captured.err
        assert not out.exists()

    def test_output_column(self, tmp_path):
        src = tmp_path / "d.csv"
        out = tmp_path / "std.csv"
        src.write_text("v\n1\n2\n3\n")
        assert cli(["standardize", "--input", str(src), "--col", "v",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value"
        got = tuple(float(v) for v in lines[1:])
        assert got == standardize(Signal((1, 2, 3))).values

    def test_bytes_match_reference(self, tmp_path):
        src = tmp_path / "d.csv"
        out = tmp_path / "std.csv"
        write_two_cols(src, ZERO_XS, ZERO_YS, header="x,y")
        assert cli(["standardize", "--input", str(src), "--col", "y",
                    "--out", str(out)]) == 0
        rows = [(v,) for v in standardize(Signal(ZERO_YS)).values]
        assert out.read_bytes() == reference_csv(["value"], rows).encode()

    def test_constant_column_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        src.write_text("v\n2\n2\n")
        assert cli(["standardize", "--input", str(src), "--col", "v",
                    "--out", str(tmp_path / "o.csv")]) == 1
        assert "zero-variance" in capsys.readouterr().err


class TestSigns:
    def test_reproduces_gates_for_sine_cosine(self, tmp_path):
        n = 64
        dx = 2 * math.pi / n
        xs = [math.sin((k + 0.5) * dx) for k in range(n)]
        ys = [math.cos((k + 0.5) * dx) for k in range(n)]
        src = tmp_path / "d.csv"
        out = tmp_path / "signs.csv"
        write_two_cols(src, xs, ys, header="f,g")
        assert cli(["signs", "--input", str(src), "--cols", "f,g",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s_hp,s_hm,s_xy"
        assert len(lines) == n + 1
        for line, x, y in zip(lines[1:], xs, ys):
            s_hp, s_hm, s_xy = (float(v) for v in line.split(","))
            assert (s_hp, s_hm, s_xy) == ogates(x, y)
            assert s_xy == s_hp - s_hm

    def test_bytes_match_reference(self, tmp_path):
        src = tmp_path / "d.csv"
        out = tmp_path / "signs.csv"
        write_two_cols(src, ZERO_XS, ZERO_YS)
        assert cli(["signs", "--input", str(src), "--cols", "0,1",
                    "--out", str(out)]) == 0
        rows = [ogates(x, y) for x, y in zip(ZERO_XS, ZERO_YS)]
        assert 0.5 in {v for row in rows for v in row}
        assert out.read_bytes() == reference_csv(["s_hp", "s_hm", "s_xy"], rows).encode()


class TestNonFiniteOutputs:
    """README: an undefined (non-finite) index value is a data error, exit 1,
    with nothing on stdout and each such output named on stderr."""

    def write_huge(self, path):
        # 1e308 * 1e308 overflows, so the inner product is +inf
        write_two_cols(path, [1e308, 1e308], [1e308, 1e308])

    def test_compute_all(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        self.write_huge(p)
        assert cli(["compute", "--input", str(p), "--cols", "a,b"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not finite: ")
        assert "inner=inf" in captured.err

    def test_compute_single_index(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        self.write_huge(p)
        assert cli(["compute", "--input", str(p), "--cols", "a,b",
                    "--index", "inner"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: not finite: inner=inf\n"


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cli(["compute", "--cols", "a,b"]) == 2
        capsys.readouterr()

    def test_bad_choice_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        write_two_cols(p, [1], [2])
        assert cli(["compute", "--input", str(p), "--cols", "a,b",
                    "--index", "hamming"]) == 2
        capsys.readouterr()

    def test_alpha_out_of_range_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        write_two_cols(p, [1, 2], [3, 4])
        assert cli(["split", "--input", str(p), "--cols", "a,b",
                    "--alpha", "1.5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("dx", ["inf", "1e400", "0", "nan", "-1"])
    def test_non_positive_or_non_finite_dx_is_usage_error(self, tmp_path, capsys, dx):
        # "1e400" parses to inf; a spacing is checked like every other flag
        # value, before the file is read
        p = tmp_path / "d.csv"
        write_two_cols(p, [1, 2], [3, 4])
        assert cli(["compute", "--input", str(p), "--cols", "a,b",
                    "--dx", dx]) == 2
        assert "--dx" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, index", [
        (["compute", "--cols=-1,0"], "--cols", -1),
        (["split", "--cols=0,-3", "--alpha", "0.5"], "--cols", -3),
        (["standardize", "--col", "-2", "--out", "o.csv"], "--col", -2),
        (["signs", "--cols=-1,1", "--out", "o.csv"], "--cols", -1),
    ])
    def test_negative_column_index_is_usage_error(self, tmp_path, capsys, argv, flag,
                                                  index):
        # refused while parsing, with read_csv's message, before the input
        # is opened: the file named does not exist
        argv = [a.replace("o.csv", str(tmp_path / "o.csv")) for a in argv]
        assert cli([*argv, "--input", str(tmp_path / "missing.csv")]) == 2
        want = f"argument {flag}: column index must be an integer >= 0, got {index}\n"
        assert capsys.readouterr().err.endswith(want)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flag", ["--xmin", "--xmax", "--ymin", "--ymax", "--lo", "--hi"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_field_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "f.csv"
        assert cli(["field", "--expr", "a3", "--nx", "5", "--ny", "5", f"{flag}={value}",
                    "--out", str(out), "--pgm", str(tmp_path / "f.pgm")]) == 2
        assert f"argument {flag}: must be finite: {value}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_unparseable_field_flag_says_not_a_number(self, tmp_path, capsys):
        # the same message as --dx and --alpha
        assert cli(["field", "--expr", "a3", "--lo", "x", "--out", str(tmp_path / "f.csv")]) == 2
        assert "argument --lo: not a number: 'x'\n" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert cli(["compute", "--input", str(tmp_path / "nope.csv"),
                    "--cols", "a,b"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_csv_module_error_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text('a,b\n1,2\n3,"' + "x" * 200_000 + '"\n')
        assert cli(["compute", "--input", str(p), "--cols", "a,b"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: line 3: field larger than field limit")
        assert "Traceback" not in err

    def test_unparseable_cell_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\nx,4\n")
        assert cli(["compute", "--input", str(p), "--cols", "a,b"]) == 1
        assert "row 3" in capsys.readouterr().err

    def test_mismatched_template_is_data_error(self, tmp_path, capsys):
        tpl = tmp_path / "t.csv"
        sig = tmp_path / "s.csv"
        tpl.write_text("1\n2\n3\n")
        sig.write_text("1\n2\n")
        assert cli(["slide", "--template", str(tpl), "--signal", str(sig),
                    "--index", "inner", "--out", str(tmp_path / "o.csv")]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_bad_threads_value_is_usage_error(self, tmp_path, capsys):
        assert cli(["field", "--expr", "jr", "--out", str(tmp_path / "f.csv"),
                    "--threads", "0"]) == 2
        capsys.readouterr()


class TestHeatmapFlags:
    """A bad --lo/--hi pair is a data error raised before the field is
    computed; an auto-range that gives no finite lo < hi is one raised
    after it, before any file is written.  Either way no CSV (and no PGM)
    is left behind."""

    def run(self, tmp_path, *extra):
        return cli(["field", "--expr", "jr", "--nx", "9", "--ny", "7",
                    "--out", str(tmp_path / "f.csv"), *extra])

    @pytest.mark.parametrize("flags, message", [
        (["--lo", "0"], "error: --lo and --hi must be given together\n"),
        (["--hi", "0"], "error: --lo and --hi must be given together\n"),
        (["--lo", "1", "--hi", "1"], "error: need finite lo < hi, got 1.0, 1.0\n"),
        (["--lo", "2", "--hi", "-1"], "error: need finite lo < hi, got 2.0, -1.0\n"),
    ])
    def test_bad_pair_writes_nothing(self, tmp_path, capsys, flags, message):
        assert self.run(tmp_path, "--pgm", str(tmp_path / "f.pgm"), *flags) == 1
        captured = capsys.readouterr()
        assert captured.err == message
        assert not (tmp_path / "f.csv").exists()
        assert not (tmp_path / "f.pgm").exists()

    def test_bad_pair_is_reported_before_an_overflowing_lattice(self, tmp_path, capsys):
        assert self.run(tmp_path, "--xmin=-1e308", "--xmax=1e308", "--pgm",
                        str(tmp_path / "f.pgm"), "--lo", "0") == 1
        assert capsys.readouterr().err == "error: --lo and --hi must be given together\n"
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("args, message", [
        # a2 = max(|x|, |y|) is 1 at all four corners of this grid
        (["--expr", "a2", "--nx", "2", "--ny", "2", "--xmin", "-1", "--xmax", "1",
          "--ymin", "-1", "--ymax", "1"],
         "error: cannot scale the heatmap: the field is constant at 1; set --lo and --hi\n"),
        (["--expr", "a3", "--nx", "3", "--ny", "3", "--xmin=-1e200", "--xmax", "1e200",
          "--ymin=-1e200", "--ymax", "1e200"],
         "error: cannot scale the heatmap: the field holds a non-finite value "
         "(min -inf, max inf); set --lo and --hi\n"),
    ], ids=["constant", "non_finite"])
    def test_unusable_auto_range_writes_nothing(self, tmp_path, capsys, args, message):
        out, pgm = tmp_path / "k.csv", tmp_path / "k.pgm"
        assert cli(["field", *args, "--out", str(out), "--pgm", str(pgm)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists() and not pgm.exists()
        # an explicit pair renders the same field; without --pgm it exports
        assert cli(["field", *args, "--out", str(out), "--pgm", str(pgm),
                    "--lo", "-1", "--hi", "2"]) == 0
        assert pgm.read_bytes().startswith(b"P5\n")
        pgm.unlink()
        assert cli(["field", *args, "--out", str(out)]) == 0
        assert not pgm.exists()

    @pytest.mark.parametrize("flags", [["--lo", "0"], ["--lo", "1", "--hi", "1"]])
    def test_pair_is_ignored_without_pgm(self, tmp_path, flags):
        assert self.run(tmp_path, *flags) == 0
        assert (tmp_path / "f.csv").exists()

    def test_pgm_bytes_follow_the_documented_formula(self, tmp_path):
        # pixel = round(255 * clamp((v - lo)/(hi - lo), 0, 1)), halves away
        # from zero, top image row = y_max row; v read back from the field
        # CSV, whose 17 digits round-trip exactly.  The expression inside
        # round() is evaluated in binary64 as written and its result rounded
        # exactly: v = 0.375 gives t = 0.7 (just below 7/10) and 255 * t =
        # 178.5, so pixel 179, where exact rational arithmetic would give 178
        lo, hi = -0.5, 0.75
        assert self.run(tmp_path, "--pgm", str(tmp_path / "f.pgm"),
                        "--lo", str(lo), "--hi", str(hi)) == 0
        rows = [line.split(",") for line in (tmp_path / "f.csv").read_text().splitlines()[1:]]
        values = [float(v) for _, _, v in rows]
        pixels = []
        for v in values:
            t = min(max((v - lo) / (hi - lo), 0.0), 1.0)
            pixels.append(math.floor(Fraction(255 * t) + Fraction(1, 2)))
        image_rows = [pixels[j * 9:(j + 1) * 9] for j in range(7)]
        payload = bytes(p for row in reversed(image_rows) for p in row)
        assert (tmp_path / "f.pgm").read_bytes() == b"P5\n9 7\n255\n" + payload
        assert 0 in payload and 255 in payload and 179 in payload

    def test_auto_range_evaluates_each_row_once(self, tmp_path, monkeypatch):
        # the range is folded over the sub-lattice of each axis's extreme
        # points, -2, -0.01, 0, 0.01 and 2 here, not over a second pass:
        # 401 * 401 cells for the outputs and 5 * 5 for the range
        cells = []
        a1 = fields._ROWS[FieldExpr.A1]

        def counted(c, y, d):
            cells.append(len(c.xs))
            return a1(c, y, d)

        monkeypatch.setitem(fields._ROWS, FieldExpr.A1, counted)
        out, pgm = tmp_path / "a1.csv", tmp_path / "a1.pgm"
        assert cli(["field", "--expr", "a1", "--out", str(out), "--pgm", str(pgm)]) == 0
        assert sum(cells) == 401 * 401 + 5 * 5
        # the fold gave the whole field's range: -2 renders black, 2 white
        payload = pgm.read_bytes()[len(b"P5\n401 401\n255\n"):]
        assert (min(payload), max(payload)) == (0, 255)


# (xmin, xmax, ymin, ymax, nx, ny): the 5x5 grid with its zero row and
# column, tiny and signed-zero bounds, an asymmetric range, and grids longer
# than they are wide and the other way round
EXPORT_GRIDS = [
    (-2.0, 2.0, -2.0, 2.0, 5, 5),
    (-1e-300, 1e-300, -1e-300, 1e-300, 5, 5),
    (-0.0, 1.0, -1.0, -0.0, 5, 5),
    (-1.3, 2.9, -0.7, 3.1, 13, 11),
    (-2.0, 2.0, -2.0, 2.0, 7, 4),
    (-2.0, 2.0, -2.0, 2.0, 4, 7),
]


class TestFieldExport:
    """``field`` writes the bytes of write_field_csv and write_pgm on the
    library's field, in one pass over its rows, and a failing export
    leaves no file behind."""

    def export(self, tmp_path, expr, d, grid, *extra):
        x0, x1, y0, y1, nx, ny = grid
        out, pgm = tmp_path / "f.csv", tmp_path / "f.pgm"
        for p in (out, pgm):
            p.unlink(missing_ok=True)
        code = cli(["field", "--expr", expr.value, "--D", str(d),
                    f"--xmin={x0!r}", f"--xmax={x1!r}", f"--ymin={y0!r}", f"--ymax={y1!r}",
                    "--nx", str(nx), "--ny", str(ny), "--out", str(out), *extra])
        return code, out, pgm

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("expr", list(FieldExpr), ids=lambda e: e.value)
    def test_bytes_match_the_library_writers(self, tmp_path, expr, d):
        want_csv, want_pgm = tmp_path / "want.csv", tmp_path / "want.pgm"
        for grid in EXPORT_GRIDS:
            fld = field(expr, GridSpec(*grid), d=d)
            write_field_csv(fld, want_csv)
            auto = ((-1.0, 1.0) if expr.value in BOUNDED_EXPRS
                    else (min(fld.values), max(fld.values)))
            # --lo/--hi, the default range (fixed or taken from the field),
            # and no heatmap
            for flags, rng in [(["--lo", "-0.5", "--hi", "0.75"], (-0.5, 0.75)),
                               ([], auto), (None, None)]:
                extra = [] if flags is None else ["--pgm", str(tmp_path / "f.pgm"), *flags]
                code, out, pgm = self.export(tmp_path, expr, d, grid, *extra)
                if rng is auto and not auto[0] < auto[1]:
                    # a3 and a4 underflow to a constant 0 on the 1e-300 grid;
                    # the messages are pinned in the test below
                    assert code == 1 and not out.exists() and not pgm.exists()
                    continue
                assert code == 0, (grid, flags)
                assert out.read_bytes() == want_csv.read_bytes(), (grid, flags)
                if rng is None:
                    assert not pgm.exists()
                else:
                    write_pgm(fld, HeatmapRange(*rng), want_pgm)
                    assert pgm.read_bytes() == want_pgm.read_bytes(), (grid, flags)

    @pytest.mark.parametrize("expr, grid, extra, message", [
        (expr, (-1.0, 1.0, -1.0, 1.0, 2, 2), [],
         "cannot scale the heatmap: the field is constant at 1; set --lo and --hi")
        for expr in (FieldExpr.A2, FieldExpr.A4, FieldExpr.A5)
    ] + [
        (FieldExpr.A3, (-1e200, 1e200, -1e200, 1e200, 3, 3), [],
         "cannot scale the heatmap: the field holds a non-finite value "
         "(min -inf, max inf); set --lo and --hi"),
        (FieldExpr.A4, (-2e154, 2e154, -2e154, 2e154, 5, 5), [],
         "cannot scale the heatmap: the field holds a non-finite value "
         "(min 0, max inf); set --lo and --hi"),
        # x*y underflows: -0.0 in the first cell, then +-0.0
        (FieldExpr.A3, (-1e-300, 1e-300, 1e-300, 2e-300, 3, 3), [],
         "cannot scale the heatmap: the field is constant at -0; set --lo and --hi"),
        (FieldExpr.A4, (-1e-300, 1e-300, -1e-300, 1e-300, 5, 5), [],
         "cannot scale the heatmap: the field is constant at 0; set --lo and --hi"),
        # x*y reaches +-1e308, so max - min overflows
        (FieldExpr.A3, (-1e154, 1e154, -1e154, 1e154, 5, 5), [],
         "cannot scale the heatmap: the field's range overflows "
         "(min -1e+308, max 1e+308); set --lo and --hi"),
        (FieldExpr.A3, (-2.0, 2.0, -2.0, 2.0, 5, 5), ["--lo=-1.7e308", "--hi=1.7e308"],
         "need a finite width hi - lo, got -1.7e+308, 1.7e+308"),
        (FieldExpr.A3, (-2.0, 2.0, -2.0, 2.0, 5, 5), ["--lo", "-1"],
         "--lo and --hi must be given together"),
        (FieldExpr.JR, (-2.0, 2.0, -2.0, 2.0, 5, 5), ["--hi", "1"],
         "--lo and --hi must be given together"),
    ], ids=["a2_constant", "a4_constant", "a5_constant", "a3_non_finite", "a4_non_finite",
            "a3_underflow", "a4_underflow", "a3_wide", "wide_lo_hi", "lone_lo",
            "lone_hi"])
    def test_unusable_range_writes_nothing(self, tmp_path, capsys, expr, grid, extra,
                                           message):
        code, out, pgm = self.export(tmp_path, expr, 1, grid, "--pgm",
                                     str(tmp_path / "f.pgm"), *extra)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not pgm.exists()

    @pytest.mark.parametrize("bad", ["out", "pgm", "both"])
    def test_unopenable_output_leaves_no_file(self, tmp_path, capsys, bad):
        missing = tmp_path / "missing"
        out = (missing if bad != "pgm" else tmp_path) / "s.csv"
        pgm = (missing if bad != "out" else tmp_path) / "s.pgm"
        # the message open() gives for the first output that cannot be opened
        with pytest.raises(OSError) as direct:
            open(out if bad != "pgm" else pgm, "wb")
        assert cli(["field", "--expr", "jr", "--nx", "5", "--ny", "5",
                    "--out", str(out), "--pgm", str(pgm)]) == 1
        assert capsys.readouterr().err == f"error: {direct.value}\n"
        assert not out.exists() and not pgm.exists()
        assert list(tmp_path.iterdir()) == []

    def test_one_file_for_both_outputs_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "f.out"
        assert cli(["field", "--expr", "jr", "--nx", "5", "--ny", "5",
                    "--out", str(path), "--pgm", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: the field CSV and its heatmap are one file: {path}\n")
        assert not path.exists()

    @pytest.mark.parametrize("expr", ["jr", "a3"])
    def test_export_memory_does_not_hold_the_field(self, tmp_path, expr):
        # a 401x401 field as a tuple holds 8 bytes a cell in its pointer
        # array alone; the export holds one row, the image and the CSV memo
        # (a3's PGM range comes from a pass of its own over the rows)
        n = 401
        tracemalloc.start()
        try:
            code = cli(["field", "--expr", expr, "--nx", str(n), "--ny", str(n),
                        "--out", str(tmp_path / "f.csv"), "--pgm", str(tmp_path / "f.pgm")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < n * n * 8, peak


JR5 = ["field", "--expr", "jr", "--nx", "5", "--ny", "5"]


class TestExportReplacesOutputs:
    """An output that exists as a regular file is replaced only by a whole
    export: a failing export leaves its old bytes, and no temporary file
    stays behind.  Devices, FIFOs and symlinks such as ``/dev/stdout`` are
    opened as given and never renamed over or removed."""

    OLD = b"old bytes\n"

    @staticmethod
    def reference(tmp_path):
        """The CSV and PGM bytes of the 5x5 jr export."""
        want = tmp_path / "want"
        want.mkdir()
        assert cli([*JR5, "--out", str(want / "f.csv"), "--pgm", str(want / "f.pgm")]) == 0
        return (want / "f.csv").read_bytes(), (want / "f.pgm").read_bytes()

    @staticmethod
    def names(path):
        return sorted(p.name for p in path.iterdir())

    def test_missing_pgm_directory_keeps_existing_csv(self, tmp_path, capsys):
        out = tmp_path / "pre.csv"
        out.write_bytes(self.OLD)
        missing = tmp_path / "missing" / "x.pgm"
        with pytest.raises(OSError) as direct:
            open(missing, "wb")
        assert cli([*JR5, "--out", str(out), "--pgm", str(missing)]) == 1
        assert capsys.readouterr().err == f"error: {direct.value}\n"
        assert out.read_bytes() == self.OLD
        assert self.names(tmp_path) == ["pre.csv"]

    @pytest.mark.parametrize("out_name, pgm_name", [
        ("f", "f"), ("f", "./f"), ("f", "link"), ("link", "f"), ("f", "hard")])
    def test_one_existing_file_keeps_its_bytes(self, tmp_path, capsys, out_name, pgm_name):
        (tmp_path / "f").write_bytes(self.OLD)
        (tmp_path / "link").symlink_to(tmp_path / "f")
        os.link(tmp_path / "f", tmp_path / "hard")
        pgm = str(tmp_path / pgm_name)
        assert cli([*JR5, "--out", str(tmp_path / out_name), "--pgm", pgm]) == 1
        assert capsys.readouterr().err == (
            f"error: the field CSV and its heatmap are one file: {pgm}\n")
        assert (tmp_path / "f").read_bytes() == self.OLD
        assert self.names(tmp_path) == ["f", "hard", "link"]

    def test_new_file_named_twice_is_removed(self, tmp_path, capsys):
        # the CSV, written through a dangling symlink, creates the heatmap's
        # name: both names are looked up before either output is opened, so
        # the new file is one this call created, and removed
        (tmp_path / "link").symlink_to(tmp_path / "f")
        pgm = str(tmp_path / "f")
        assert cli([*JR5, "--out", str(tmp_path / "link"), "--pgm", pgm]) == 1
        assert capsys.readouterr().err == (
            f"error: the field CSV and its heatmap are one file: {pgm}\n")
        assert self.names(tmp_path) == ["link"]

    def test_existing_outputs_are_replaced_whole(self, tmp_path):
        want_csv, want_pgm = self.reference(tmp_path)
        out, pgm = tmp_path / "f.csv", tmp_path / "f.pgm"
        for path, mode in [(out, 0o640), (pgm, 0o604)]:
            path.write_bytes(self.OLD * 100)
            path.chmod(mode)
        assert cli([*JR5, "--out", str(out), "--pgm", str(pgm)]) == 0
        assert out.read_bytes() == want_csv and pgm.read_bytes() == want_pgm
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert stat.S_IMODE(pgm.stat().st_mode) == 0o604
        assert self.names(tmp_path) == ["f.csv", "f.pgm", "want"]

    @pytest.mark.parametrize("error", [ValueError("row 3"), KeyboardInterrupt()],
                             ids=["ValueError", "KeyboardInterrupt"])
    def test_failure_mid_export_keeps_old_bytes(self, tmp_path, error):
        spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)

        def rows():
            yield from itertools.islice(field_rows(FieldExpr.JR, spec), 2)
            raise error

        out = tmp_path / "f.csv"
        out.write_bytes(self.OLD)
        with pytest.raises(type(error)):
            export_field(spec, rows(), out, tmp_path / "new.pgm", HeatmapRange(-1.0, 1.0))
        assert out.read_bytes() == self.OLD
        assert self.names(tmp_path) == ["f.csv"]

    def test_fifo_is_written_as_given(self, tmp_path):
        want_csv, _ = self.reference(tmp_path)
        fifo = tmp_path / "f.fifo"
        os.mkfifo(fifo)
        # an open reader lets the export open the FIFO without blocking
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert cli([*JR5, "--out", str(fifo)]) == 0
            assert os.read(reader, 1 << 16) == want_csv
            # a failing export does not remove a name it did not create
            assert cli([*JR5, "--out", str(fifo),
                        "--pgm", str(tmp_path / "missing" / "x.pgm")]) == 1
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert self.names(tmp_path) == ["f.fifo", "want"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_dev_stdout_on_a_regular_file_is_not_renamed_over(self, tmp_path):
        want_csv, _ = self.reference(tmp_path)
        captured = tmp_path / "stdout.txt"
        env = {**os.environ, "PYTHONPATH": str(TestModuleEntry.SRC)}
        with open(captured, "wb") as fh:
            inode = os.fstat(fh.fileno()).st_ino
            done = subprocess.run([sys.executable, "-m", "msetsim.cli", *JR5,
                                   "--out", "/dev/stdout", "--pgm", "/dev/null"],
                                  stdout=fh, env=env, timeout=120)
        assert done.returncode == 0
        assert captured.stat().st_ino == inode
        assert captured.read_bytes() == want_csv
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dev_fd_link_on_a_regular_file_is_not_renamed_over(self, tmp_path):
        # /dev/fd/1 is a name in a /proc directory: realpath would name the
        # file stdout was redirected to, but the link is opened as given
        want_csv, _ = self.reference(tmp_path)
        captured = tmp_path / "stdout.txt"
        env = {**os.environ, "PYTHONPATH": str(TestModuleEntry.SRC)}
        with open(captured, "wb") as fh:
            inode = os.fstat(fh.fileno()).st_ino
            done = subprocess.run([sys.executable, "-m", "msetsim.cli", *JR5,
                                   "--out", "/dev/fd/1"],
                                  stdout=fh, env=env, timeout=120)
        assert done.returncode == 0
        assert captured.stat().st_ino == inode
        assert captured.read_bytes() == want_csv

    def test_failing_export_keeps_a_symlinked_files_bytes(self, tmp_path, capsys):
        (tmp_path / "pre.csv").write_bytes(self.OLD)
        (tmp_path / "link.csv").symlink_to("pre.csv")
        missing = tmp_path / "missing" / "x.pgm"
        assert cli([*JR5, "--out", str(tmp_path / "link.csv"), "--pgm", str(missing)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert (tmp_path / "pre.csv").read_bytes() == self.OLD
        assert os.readlink(tmp_path / "link.csv") == "pre.csv"
        assert self.names(tmp_path) == ["link.csv", "pre.csv"]

    def test_symlinked_outputs_are_replaced_through_their_links(self, tmp_path):
        # link.csv -> pre.csv, and a chain of relative links across two
        # directories: out/img.pgm -> ../data/hop.pgm -> real.pgm
        want_csv, want_pgm = self.reference(tmp_path)
        (tmp_path / "pre.csv").write_bytes(self.OLD)
        (tmp_path / "pre.csv").chmod(0o640)
        (tmp_path / "link.csv").symlink_to("pre.csv")
        data, out = tmp_path / "data", tmp_path / "out"
        data.mkdir()
        out.mkdir()
        (data / "real.pgm").write_bytes(self.OLD)
        (data / "hop.pgm").symlink_to("real.pgm")
        (out / "img.pgm").symlink_to(os.path.join("..", "data", "hop.pgm"))
        assert cli([*JR5, "--out", str(tmp_path / "link.csv"),
                    "--pgm", str(out / "img.pgm")]) == 0
        assert os.readlink(tmp_path / "link.csv") == "pre.csv"
        assert os.readlink(out / "img.pgm") == os.path.join("..", "data", "hop.pgm")
        assert os.readlink(data / "hop.pgm") == "real.pgm"
        assert (tmp_path / "pre.csv").read_bytes() == want_csv
        assert (data / "real.pgm").read_bytes() == want_pgm
        assert stat.S_IMODE((tmp_path / "pre.csv").stat().st_mode) == 0o640
        assert self.names(tmp_path) == ["data", "link.csv", "out", "pre.csv", "want"]
        assert self.names(data) == ["hop.pgm", "real.pgm"]
        assert self.names(out) == ["img.pgm"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("swap", [False, True], ids=["stdout_first", "stdout_second"])
    def test_dev_stdout_on_the_other_output_is_refused_before_opening(self, tmp_path, swap):
        # stdout is appended to f, so /dev/stdout names f: opening either
        # output before the check would truncate f
        f = tmp_path / "f"
        f.write_bytes(self.OLD)
        out, pgm = (str(f), "/dev/stdout") if swap else ("/dev/stdout", str(f))
        env = {**os.environ, "PYTHONPATH": str(TestModuleEntry.SRC)}
        with open(f, "ab") as fh:
            done = subprocess.run([sys.executable, "-m", "msetsim.cli", *JR5,
                                   "--out", out, "--pgm", pgm],
                                  stdout=fh, stderr=subprocess.PIPE, text=True, env=env,
                                  timeout=120)
        assert done.returncode == 1
        assert done.stderr == f"error: the field CSV and its heatmap are one file: {pgm}\n"
        assert f.read_bytes() == self.OLD
        assert self.names(tmp_path) == ["f"]


# every command that writes a file, as its arguments but --out, given the
# directory holding its inputs
WRITING_COMMANDS = {
    "field": lambda src: JR5,
    "slide": lambda src: ["slide", "--template", str(src / "t.csv"),
                          "--signal", str(src / "d.csv"), "--index", "jaccard"],
    "standardize": lambda src: ["standardize", "--input", str(src / "d.csv"), "--col", "a"],
    "signs": lambda src: ["signs", "--input", str(src / "d.csv"), "--cols", "a,b"],
}


@pytest.mark.parametrize("name", WRITING_COMMANDS)
class TestOutputRule:
    """Every command writes its output under one rule: an existing regular
    file is replaced whole, keeping its mode, and only by a run that
    succeeds; a symlink stays a symlink; ``/dev/stdout`` is opened as
    given."""

    OLD = b"old bytes\n"

    @staticmethod
    def command(tmp_path, capsys, name):
        """The command's arguments but --out, its output bytes and what it
        prints, with an empty ``out`` directory for the test's outputs."""
        src = tmp_path / "in"
        src.mkdir()
        (src / "t.csv").write_text("v\n1\n-2\n0.5\n")
        write_two_cols(src / "d.csv", ZERO_XS, ZERO_YS)
        args = WRITING_COMMANDS[name](src)
        want = tmp_path / "want.csv"
        assert cli([*args, "--out", str(want)]) == 0
        (tmp_path / "out").mkdir()
        return args, want.read_bytes(), capsys.readouterr().out

    @staticmethod
    def names(path):
        return sorted(p.name for p in path.iterdir())

    def test_existing_output_is_replaced_whole(self, tmp_path, capsys, name):
        args, want, _ = self.command(tmp_path, capsys, name)
        out = tmp_path / "out" / "f.csv"
        out.write_bytes(self.OLD * 100)
        out.chmod(0o640)
        inode = out.stat().st_ino
        assert cli([*args, "--out", str(out)]) == 0
        assert out.read_bytes() == want
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.stat().st_ino != inode
        assert self.names(out.parent) == ["f.csv"]

    @pytest.mark.parametrize("error", [ValueError("cell 8"), KeyboardInterrupt()],
                             ids=["ValueError", "KeyboardInterrupt"])
    def test_failure_mid_write_keeps_old_bytes(self, tmp_path, capsys, monkeypatch, name,
                                               error):
        args, _, _ = self.command(tmp_path, capsys, name)
        out = tmp_path / "out" / "f.csv"
        out.write_bytes(self.OLD)
        # the library writers format through io.fmt: its eighth call comes
        # after the header and the first lines
        calls = itertools.count()
        fmt = msetsim.io.fmt

        def failing(v):
            if next(calls) == 7:
                raise error
            return fmt(v)

        monkeypatch.setattr(msetsim.io, "fmt", failing)
        if isinstance(error, ValueError):
            assert cli([*args, "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: cell 8\n"
        else:
            with pytest.raises(KeyboardInterrupt):
                cli([*args, "--out", str(out)])
        assert next(calls) == 8
        assert out.read_bytes() == self.OLD
        assert self.names(out.parent) == ["f.csv"]

    def test_symlink_stays_a_symlink(self, tmp_path, capsys, name):
        args, want, _ = self.command(tmp_path, capsys, name)
        out = tmp_path / "out"
        (out / "pre.csv").write_bytes(self.OLD)
        (out / "link.csv").symlink_to("pre.csv")
        assert cli([*args, "--out", str(out / "link.csv")]) == 0
        assert os.readlink(out / "link.csv") == "pre.csv"
        assert (out / "pre.csv").read_bytes() == want
        assert self.names(out) == ["link.csv", "pre.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_dev_stdout_is_opened_as_given(self, tmp_path, capsys, name):
        args, want, printed = self.command(tmp_path, capsys, name)
        captured = tmp_path / "out" / "stdout.txt"
        env = {**os.environ, "PYTHONPATH": str(TestModuleEntry.SRC)}
        # appended to, so what the command prints lands after its output
        with open(captured, "ab") as fh:
            inode = os.fstat(fh.fileno()).st_ino
            done = subprocess.run([sys.executable, "-m", "msetsim.cli", *args,
                                   "--out", "/dev/stdout"],
                                  stdout=fh, env=env, timeout=120)
        assert done.returncode == 0
        assert captured.stat().st_ino == inode
        assert captured.read_bytes() == want + printed.encode()
        assert self.names(captured.parent) == ["stdout.txt"]

@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux /proc and errno texts")
class TestLinksOpenedAsGiven:
    """Two symlinks that ``io._regular_target`` does not resolve to a
    regular file, so the output rule opens them as given."""

    OLD = b"old bytes\n"

    def test_link_into_proc_is_written_through(self, tmp_path):
        # the chain's second hop lies under /proc/: the file behind the fd
        # is written in place, never staged and renamed over
        f = tmp_path / "f.txt"
        f.write_bytes(self.OLD * 10)
        inode = f.stat().st_ino
        fd = os.open(f, os.O_RDONLY)
        try:
            link = tmp_path / "link.csv"
            link.symlink_to(f"/proc/self/fd/{fd}")
            msetsim.io.write_csv(link, ["a", "b"], [(1.0, -0.0), (0.5, 2.0)])
        finally:
            os.close(fd)
        assert os.readlink(link) == f"/proc/self/fd/{fd}"
        assert f.stat().st_ino == inode
        assert f.read_bytes() == b"a,b\n1,-0\n0.5,2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt", "link.csv"]

    def test_link_through_a_regular_file_fails_as_open_does(self, tmp_path, capsys):
        # lstat of f.txt/child raises "Not a directory" while the chain is
        # followed; the link is then opened as given, and open() says why
        src = tmp_path / "d.csv"
        write_two_cols(src, ZERO_XS, ZERO_YS)
        (tmp_path / "f.txt").write_bytes(self.OLD)
        link = tmp_path / "link.csv"
        link.symlink_to("f.txt/child")
        with pytest.raises(NotADirectoryError) as direct:
            open(link, "w")
        assert cli(["standardize", "--input", str(src), "--col", "a", "--out", str(link)]) == 1
        assert capsys.readouterr().err == f"error: {direct.value}\n"
        assert (tmp_path / "f.txt").read_bytes() == self.OLD
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "f.txt", "link.csv"]


class TestColumnSelectors:
    @pytest.mark.parametrize("cols", ["a", "a,b,a", "0", "0,1,1"])
    def test_not_two_columns_is_usage_error(self, tmp_path, capsys, cols):
        p = tmp_path / "d.csv"
        write_two_cols(p, [1, 2], [3, 4])
        assert cli(["compute", "--input", str(p), "--cols", cols]) == 2
        err = capsys.readouterr().err
        assert f"argument --cols: need exactly two columns, e.g. x,y: {cols!r}" in err

    @pytest.mark.parametrize("cols", ["x, ", " ,b", ","])
    def test_empty_selector_is_usage_error(self, tmp_path, capsys, cols):
        p = tmp_path / "d.csv"
        write_two_cols(p, [1, 2], [3, 4])
        assert cli(["compute", "--input", str(p), "--cols", cols]) == 2
        assert "argument --cols: empty column selector" in capsys.readouterr().err


class TestModuleEntry:
    """``python -m msetsim.cli`` exits with main()'s return code."""

    SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

    def run(self, tmp_path, *args):
        env = {**os.environ, "PYTHONPATH": str(self.SRC)}
        return subprocess.run([sys.executable, "-m", "msetsim.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    def test_field_run_exits_zero(self, tmp_path):
        done = self.run(tmp_path, "field", "--expr", "a3", "--nx", "5", "--ny", "5",
                        "--out", "a3.csv")
        assert done.returncode == 0, done.stderr
        lines = (tmp_path / "a3.csv").read_text().splitlines()
        assert lines[0] == "x,y,value" and len(lines) == 26

    def test_usage_error_exits_two(self, tmp_path):
        done = self.run(tmp_path, "field", "--expr", "a3", "--xmin", "inf", "--out", "x.csv")
        assert done.returncode == 2
        assert "argument --xmin: must be finite: inf" in done.stderr

    def test_missing_input_exits_one(self, tmp_path):
        done = self.run(tmp_path, "compute", "--input", "missing.csv", "--cols", "0,1")
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
