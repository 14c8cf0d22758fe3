import math

import pytest

from msetsim.cli import cli, main
from msetsim.msetops import Signal
from msetsim.signs import conjoint_signs
from msetsim.stats import double_pearson, pearson, standardize


def parse_kv(captured: str) -> dict:
    out = {}
    for line in captured.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = float(value)
    return out


def write_two_cols(path, xs, ys, header="a,b"):
    lines = [header] + [f"{x},{y}" for x, y in zip(xs, ys)]
    path.write_text("\n".join(lines) + "\n")


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


class TestStandardize:
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
            expected = conjoint_signs(x, y)
            assert (s_hp, s_hm, s_xy) == (expected.s_hp, expected.s_hm, expected.s_xy)
            assert s_xy == s_hp - s_hm


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

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert cli(["compute", "--input", str(tmp_path / "nope.csv"),
                    "--cols", "a,b"]) == 1
        assert "error:" in capsys.readouterr().err

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
