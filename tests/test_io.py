import csv
import io
import itertools
import math
import os
import random
import re
import sys
import tempfile
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msetsim.io
from msetsim.fields import FieldExpr, GridSpec, ScalarField, field
from msetsim.io import HeatmapRange, export_field, fmt, read_csv, write_field_csv, write_pgm


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trips(v):
    assert float(fmt(v)) == v


class TestReadCsv:
    def test_named_columns(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x,y\n1,4\n2,5\n3,6\n")
        f, g = read_csv(p, ["x", "y"])
        assert f.values == (1.0, 2.0, 3.0)
        assert g.values == (4.0, 5.0, 6.0)
        assert f.dx == 1.0

    def test_indexed_columns_with_header(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x,y\n1,4\n2,5\n")
        f, g = read_csv(p, [0, 1])
        assert f.values == (1.0, 2.0)
        assert g.values == (4.0, 5.0)

    def test_indexed_columns_headerless(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,4\n2,5\n")
        f, g = read_csv(p, [0, 1])
        assert f.values == (1.0, 2.0)

    def test_explicit_header_flag(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("10,20\n1,2\n")
        (f,) = read_csv(p, [0], has_header=True)
        assert f.values == (1.0,)

    def test_spacing_carried(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("v\n1\n2\n")
        (f,) = read_csv(p, ["v"], dx=0.00628)
        assert f.dx == 0.00628

    def test_single_column(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("3.5\n-1.25\n")
        (f,) = read_csv(p, [0])
        assert f.values == (3.5, -1.25)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_csv(tmp_path / "nope.csv", [0])

    # text and bools too, though float() takes "0.5" and True
    @pytest.mark.parametrize("dx", [0.0, -1.0, math.inf, math.nan, "0.5", True])
    def test_bad_spacing_raises_before_opening_the_file(self, tmp_path, monkeypatch, dx):
        # the spacing is checked before any read; checked after, a good file
        # is read twice (in bulk, then row by row) before the error
        p = tmp_path / "data.csv"
        p.write_text("1,4\n2,5\n")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(msetsim.io, "open", counting_open, raising=False)
        with pytest.raises(ValueError, match="sample spacing must be a positive finite real"):
            read_csv(p, [0, 1], dx=dx)
        assert opened == []
        # so the spacing is reported ahead of a missing file
        with pytest.raises(ValueError, match="sample spacing"):
            read_csv(tmp_path / "nope.csv", [0], dx=dx)
        assert opened == []
        # guards the wrapper: a good dx opens the file once
        assert [s.values for s in read_csv(p, [0, 1])] == [(1.0, 2.0), (4.0, 5.0)]
        assert opened == [p]

    def test_unknown_name(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="not found"):
            read_csv(p, ["z"])

    def test_ambiguous_name(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x,x\n1,2\n")
        with pytest.raises(ValueError, match="ambiguous"):
            read_csv(p, ["x"])

    def test_name_without_header(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(p, ["x"], has_header=False)

    def test_blank_cell_names_row(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x,y\n1,2\n,3\n4,5\n")
        with pytest.raises(ValueError, match="row 3"):
            read_csv(p, ["x", "y"])

    def test_unparseable_cell_names_row(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x\n1\n2\nbanana\n")
        with pytest.raises(ValueError, match="row 4"):
            read_csv(p, ["x"])

    def test_ragged_row_named(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x,y\n1,2\n7\n")
        with pytest.raises(ValueError, match="row 3"):
            read_csv(p, ["x", "y"])

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x\nnan\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_csv(p, ["x"])

    def test_header_only_is_empty(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(p, ["x", "y"])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(p, [0])

    def test_negative_index(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2\n")
        with pytest.raises(ValueError, match=">= 0"):
            read_csv(p, [-1])

    def test_no_selectors(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1\n")
        with pytest.raises(ValueError, match="selector"):
            read_csv(p, [])

    @pytest.mark.parametrize("blanks", ["\n", "\n\n\n"])
    def test_leading_blank_lines_are_skipped(self, tmp_path, blanks):
        # fully empty rows are skipped before the header is detected, and
        # rows still count every record, the blank ones included
        skipped = len(blanks)
        p = tmp_path / "data.csv"
        p.write_text(blanks + "x,y\n1,2\n3,4\n")
        for selectors in (["x", "y"], [0, 1]):
            f, g = read_csv(p, selectors)
            assert (f.values, g.values) == ((1.0, 3.0), (2.0, 4.0))
        p.write_text(blanks + "10,20\n1,2\n")
        (f,) = read_csv(p, [0], has_header=True)
        assert f.values == (1.0,)
        (f,) = read_csv(p, [0])
        assert f.values == (10.0, 1.0)
        p.write_text(blanks + "x,y\n1,2\n3,oops\n")
        for selectors, label in ((["x", "y"], "'y'"), ([0, 1], "1")):
            want = f"{p}: row {skipped + 3}, column {label}: cannot parse 'oops' as a number"
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                read_csv(p, selectors)
        p.write_text(blanks + "1,4\nq,5\n")
        want = f"{p}: row {skipped + 2}, column 0: cannot parse 'q' as a number"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            read_csv(p, [0, 1])

    def test_blank_rows_are_skipped_but_counted(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x,y\n1,2\n\n\n3,4\n\n")
        f, g = read_csv(p, ["x", "y"])
        assert (f.values, g.values) == ((1.0, 3.0), (2.0, 4.0))
        p.write_text("x,y\n1,2\n\n\n3,4\n5,oops\n")
        with pytest.raises(ValueError, match=r"row 6, column 'y': cannot parse 'oops'"):
            read_csv(p, ["x", "y"])
        p.write_text("1,2\n\n3\n")
        with pytest.raises(ValueError, match=r"row 3 has 1 cell\(s\), column 1 needs index 1"):
            read_csv(p, [0, 1])

    @pytest.mark.parametrize("has_header", [None, True, False])
    @pytest.mark.parametrize("selectors", [[0], ["x"], [1, 0]])
    def test_only_blank_lines_is_no_data(self, tmp_path, selectors, has_header):
        # empty rows are skipped, and nothing is left: there is no header
        # to name a column in, and no data row
        p = tmp_path / "data.csv"
        p.write_text("\n\n\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: file is empty$"):
            read_csv(p, selectors, has_header)

    @pytest.mark.parametrize("text, line", [
        ('"' + "x" * 200_000 + '"\n1,2\n', 1),
        ('a,b\n1,2\n3,"' + "x" * 200_000 + '"\n', 3),
    ], ids=["header_row", "data_row"])
    def test_csv_module_error_names_line(self, tmp_path, text, line):
        # a quoted field over the csv module's default limit (131072 chars),
        # once in the header-detection row and once in a data row
        p = tmp_path / "data.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: line {line}: field larger than field limit"):
            read_csv(p, [0, 1])

    def test_first_row_shorter_than_selected_index_is_a_header(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1\n2,3\n4,5\n")
        f, g = read_csv(p, [0, 1])
        assert (f.values, g.values) == ((2.0, 4.0), (3.0, 5.0))
        (h,) = read_csv(p, [1])
        assert h.values == (3.0, 5.0)
        with pytest.raises(ValueError, match=r"row 1 has 1 cell\(s\), column 1 needs index 1"):
            read_csv(p, [0, 1], has_header=False)


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A UTF-8 byte order mark is not part of the first cell: a headerless
    file keeps its first data row and a header keeps its first name, on
    the bulk read and on the row-by-row reference loop alike."""

    @pytest.mark.parametrize("reader", ["_columns_in_bulk", "_columns_by_row"])
    @pytest.mark.parametrize("text, selectors", [
        (b"1.5,2\n3,4\n5,6\n", [0, 1]),
        (b"x,y\n1.5,2\n3,4\n5,6\n", ["x", "y"]),
        (b"x,y\n1.5,2\n3,4\n5,6\n", [0, 1]),
    ])
    def test_first_row_and_first_name_kept(self, tmp_path, reader, text, selectors):
        p = tmp_path / "bom.csv"
        p.write_bytes(BOM + text)
        columns = getattr(msetsim.io, reader)(p, selectors, None)
        assert columns == [[1.5, 3.0, 5.0], [2.0, 4.0, 6.0]]

    def test_read_csv(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(BOM + b"1.5,2\n3,4\n5,6\n")
        f, g = read_csv(p, [0, 1])
        assert (f.values, g.values) == ((1.5, 3.0, 5.0), (2.0, 4.0, 6.0))

    @pytest.mark.parametrize("text, selectors, has_header, message", [
        (b"1,2\n3,oops\n", [0, 1], False, "row 2, column 1: cannot parse 'oops' as a number"),
        (b"1,2\n3,4\n5,oops\n", [0, 1], None, "row 3, column 1: cannot parse 'oops' as a number"),
        (b"x,y\n1,2\n3\n", ["x", "y"], None, "row 3 has 1 cell(s), column 'y' needs index 1"),
    ])
    def test_fault_row_numbers_unchanged(self, tmp_path, text, selectors, has_header, message):
        for name, data in (("plain.csv", text), ("bom.csv", BOM + text)):
            p = tmp_path / name
            p.write_bytes(data)
            with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {message}')}$"):
                read_csv(p, selectors, has_header=has_header)


# Reader equivalence: read_csv against a reference reader that converts
# each cell with one float(cell.strip()), compared bit for bit.  The files
# run to several thousand records, so faults and blank rows land in later
# chunks of the bulk read and on its 1024-record chunk boundaries.

# every str.isspace() character the csv module reads as part of a cell,
# except U+001C..U+001F: float() rejects those, though str.strip() removes
# them, so a cell padded with one is read by the row-by-row fallback
SEPARATORS = "\x1c\x1d\x1e\x1f"
PADDING = "".join(c for c in map(chr, range(sys.maxunicode + 1))
                  if c.isspace() and c not in "\r\n" + SEPARATORS)


def reference_columns(path, indices, has_header):
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))[1 if has_header else 0:]
    return [[float(r[i].strip()) for r in records if r] for i in indices]


def value_bits(values) -> bytes:
    return array("d", values).tobytes()


def number_cell(rng, quoted=0.2) -> str:
    """The text of one numeric cell: a plain repr, or an awkward form,
    quoted with probability ``quoted``."""
    cell = rng.choice((repr(rng.gauss(0.0, 1.0)), "-0", "0", "1_000", "-2_5.0_1", "5e-324",
                       "-1e-310", "2.2250738585072014e-308", "1.7976931348623157e308",
                       "1E5", ".5", "5.", "+7", "١٢", repr(rng.uniform(-1e6, 1e6))))
    pad = "".join(rng.choice(PADDING) for _ in range(rng.randint(0, 2)))
    cell = pad + cell + "".join(rng.choice(PADDING) for _ in range(rng.randint(0, 2)))
    return f'"{cell}"' if rng.random() < quoted else cell


def write_rows(path, rows, header=None, blanks=None):
    """Write ``rows`` (lists of cell texts); ``blanks`` maps a 0-based data
    record position to the number of blank lines written before it."""
    blanks = blanks or {}
    lines = [header] if header else []
    for pos, row in enumerate(rows):
        lines += [""] * blanks.get(pos, 0)
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# blank lines around the chunk boundaries (records are counted before the
# blank ones are dropped), and a run of blank lines longer than one chunk
BLANKS = {1020: 1, 1021: 2, 1500: 3, 2100: 1100}


def numeric_rows(seed, n=3000, width=3, quoted=0.2):
    rng = random.Random(seed)
    return [[number_cell(rng, quoted) for _ in range(width)] for _ in range(n)]


class TestReadCsvEquivalence:
    @pytest.mark.parametrize("selectors, indices, has_header", [
        ([0, 1], [0, 1], True),
        ([0, 1], [0, 1], False),
        ([2], [2], False),
        ([0, 0], [0, 0], True),
        ([2, 0, 1], [2, 0, 1], False),
        (["y"], [1], True),
        (["z", "x"], [2, 0], True),
        (["y", "y"], [1, 1], True),
    ])
    def test_values_match_reference_bit_for_bit(self, tmp_path, selectors, indices,
                                                has_header):
        p = tmp_path / "data.csv"
        write_rows(p, numeric_rows(8101), "x,y,z" if has_header else None, BLANKS)
        text = p.read_text(encoding="utf-8")
        assert all(c in text for c in " \t\u3000\u2028\xa0\x0b") and '"' in text
        # has_header is left to detection from the first record
        signals = read_csv(p, selectors, dx=0.25)
        want = reference_columns(p, indices, has_header)
        assert len(want[0]) == 3000
        assert [value_bits(s.values) for s in signals] == [value_bits(c) for c in want]
        assert {s.dx for s in signals} == {0.25}

    @pytest.mark.parametrize("pad", SEPARATORS)
    def test_cells_float_rejects_but_strip_accepts(self, tmp_path, pad):
        # float("\x1c1.5") raises, float("\x1c1.5".strip()) is 1.5, so a
        # file with such a cell in a later chunk must still be read
        with pytest.raises(ValueError):
            float(pad + "1.5")
        rows = [[repr(k * 0.5), repr(-k * 0.25)] for k in range(3000)]
        rows[2600][1] = pad + rows[2600][1] + pad
        p = tmp_path / "data.csv"
        write_rows(p, rows, "x,y")
        f, g = read_csv(p, ["x", "y"])
        assert g.values[2600] == -650.0
        assert [value_bits(f.values), value_bits(g.values)] == \
            [value_bits(c) for c in reference_columns(p, [0, 1], True)]

    @pytest.mark.parametrize("data_row, cell, message", [
        (2500, "nan", "row {row}, column 'y': non-finite value 'nan'"),
        (2500, " -inf ", "row {row}, column 'y': non-finite value '-inf'"),
        (1024, "1e999", "row {row}, column 'y': non-finite value '1e999'"),
        (2047, "banana", "row {row}, column 'y': cannot parse 'banana' as a number"),
        (1500, "", "row {row}, column 'y': cannot parse '' as a number"),
        (1100, '"1,2"', "row {row}, column 'y': cannot parse '1,2' as a number"),
    ])
    def test_bad_cell_in_later_chunk_names_row_and_column(self, tmp_path, data_row,
                                                           cell, message):
        # rows count from 1 at the header and include blank lines; the
        # bad cell sits in column y
        rows = [[repr(k * 0.5), repr(k * 1.5)] for k in range(3000)]
        rows[data_row][1] = cell
        p = tmp_path / "data.csv"
        write_rows(p, rows, "x,y", blanks={10: 2})
        want = f"{p}: " + message.format(row=data_row + 4)
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            read_csv(p, ["x", "y"])

    def test_short_row_in_later_chunk_names_row_and_column(self, tmp_path):
        rows = [[repr(k * 0.5), repr(k * 1.5), "0"] for k in range(3000)]
        rows[2222] = ["7", "8"]
        p = tmp_path / "data.csv"
        write_rows(p, rows, blanks={5: 1})
        want = f"{p}: row 2224 has 2 cell(s), column 2 needs index 2"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            read_csv(p, [0, 2])
        (f,) = read_csv(p, [1])
        assert value_bits(f.values) == value_bits(reference_columns(p, [1], False)[0])

    @pytest.mark.parametrize("first_fault", ["cell", "csv"])
    def test_first_fault_in_a_chunk_is_reported(self, tmp_path, first_fault):
        # a bad cell and a record the csv module rejects in the same chunk:
        # whichever comes first in the file is reported
        rows = [[repr(k * 0.5), repr(k * 1.5)] for k in range(3000)]
        bad, huge = (1100, 1105) if first_fault == "cell" else (1105, 1100)
        rows[bad][0] = "oops"
        rows[huge][1] = '"' + "x" * 200_000 + '"'
        p = tmp_path / "data.csv"
        write_rows(p, rows, "x,y")
        want = (f"row {bad + 2}, column 0: cannot parse 'oops' as a number"
                if first_fault == "cell" else
                f"line {huge + 2}: field larger than field limit")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {want}')}"):
            read_csv(p, [0, 1])


# Plain blocks: after its first record, read_csv reads msetsim.io._HINT
# characters at a time, completes each block to a line end, and splits it
# with str.split when the block, its CRLF ends made LF, holds no quote, CR,
# NUL or blank line, no line over the csv field limit, and the same comma
# count on every line, enough for every selector; any other block goes as
# read to the csv module alone.  The files below are mostly quote-free, so
# they reach that path, and each fault sits in a later block.

def line_chunks(path) -> list[list[str]]:
    """The blocks the bulk reader reads after the first line, each split
    into lines as the file object splits them."""
    with open(path, newline="", encoding="utf-8") as fh:
        fh.readline()
        blocks = []
        for block in iter(lambda: fh.read(msetsim.io._HINT), ""):
            if block[-1] != "\n":
                block += fh.readline()
            blocks.append(io.StringIO(block, newline="").readlines())
        return blocks


def chunk_of_line(path, line_no) -> int:
    """The index of the block holding 1-based physical line ``line_no``."""
    seen = 1
    for k, chunk in enumerate(line_chunks(path)):
        seen += len(chunk)
        if line_no <= seen:
            return k
    raise AssertionError(f"{path} has no line {line_no}")


def plain_rows(seed, n=8000, width=3):
    return numeric_rows(seed, n, width, quoted=0.0)


@pytest.fixture
def hand_offs(monkeypatch):
    """The records the csv module yields for each block read_csv hands to
    it, one list per block that is not plain; a headerless file's first
    record, passed as an islice, is not one.  The row-by-row fallback must
    not run."""
    blocks = []
    extend = msetsim.io._extend_from_records

    def spy(columns, indices, records):
        if not isinstance(records, itertools.islice):
            records = list(records)
            blocks.append(records)
            records = iter(records)
        extend(columns, indices, records)

    def no_fallback(*args):
        raise AssertionError("the row-by-row fallback ran")

    monkeypatch.setattr(msetsim.io, "_extend_from_records", spy)
    monkeypatch.setattr(msetsim.io, "_columns_by_row", no_fallback)
    return blocks


def assert_reads_as_reference(path, selectors, indices, has_header):
    signals = read_csv(path, selectors)
    want = reference_columns(path, indices, has_header)
    assert [value_bits(s.values) for s in signals] == [value_bits(c) for c in want]
    return signals


class TestPlainChunks:
    @pytest.mark.parametrize("selectors, indices, has_header, width", [
        ([0, 1], [0, 1], True, 3),
        ([0, 1], [0, 1], False, 3),
        ([2, 0, 1], [2, 0, 1], False, 3),
        (["z", "x", "z"], [2, 0, 2], True, 3),
        ([1, 1], [1, 1], False, 2),
        ([0], [0], False, 1),
        (["x"], [0], True, 1),
    ])
    def test_quote_free_files_match_reference(self, tmp_path, hand_offs, selectors,
                                              indices, has_header, width):
        # a run of blank lines longer than two chunks: one chunk is only
        # blank lines, and blank lines end the chunk before it and start the
        # chunk after it.  Exactly the chunks that hold (or start with) a
        # blank line go to the csv module, which drops the blank records
        blanks = {7: 1, 1999: 2, 2500: 140_000, 2501: 1}
        p = tmp_path / "data.csv"
        write_rows(p, plain_rows(8102, width=width), "x,y,z"[:2 * width - 1] if has_header
                   else None, blanks)
        text = p.read_text(encoding="utf-8")
        assert '"' not in text and all(c in text for c in " \t\u3000\u2028\xa0\x0b")
        chunks = line_chunks(p)
        assert len(chunks) >= 4
        assert any(c[0] == "\n" != c[-1] for c in chunks)
        assert any(c[-1] == "\n" != c[0] for c in chunks)
        assert any(set(c) == {"\n"} for c in chunks)
        signals = assert_reads_as_reference(p, selectors, indices, has_header)
        assert len(signals[0].values) == 8000
        assert hand_offs == [list(csv.reader(c)) for c in chunks if "\n" in c]

    def test_crlf_and_blank_lines_in_one_block(self, tmp_path, hand_offs):
        # a CRLF file with a blank line in two of its blocks: those two go
        # as read, CRLF ends and all, to the csv module, and every other
        # block is split plainly once its ends are made LF
        p = tmp_path / "data.csv"
        write_rows(p, plain_rows(8111), "x,y,z", {1999: 2, 5000: 1})
        p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
        chunks = line_chunks(p)
        blank = [c for c in chunks if "\r\n" in c]
        assert len(blank) == 2 < len(chunks)
        assert all(line.endswith("\r\n") for c in chunks for line in c)
        assert_reads_as_reference(p, ["y", "z"], [1, 2], True)
        assert hand_offs == [list(csv.reader(c)) for c in blank]

    def test_one_quoted_cell_hands_off_its_block_alone(self, tmp_path, hand_offs):
        # a quoted cell in data row 10: the csv module yields the records of
        # the first block only, and every later block is split plainly
        rows = plain_rows(8110)
        rows[9][1] = '"' + rows[9][1] + '"'
        p = tmp_path / "data.csv"
        write_rows(p, rows, "x,y,z")
        chunks = line_chunks(p)
        assert len(chunks) >= 4 and chunk_of_line(p, 11) == 0
        assert_reads_as_reference(p, ["x", "y"], [0, 1], True)
        assert [len(records) for records in hand_offs] == [len(chunks[0])]

    def test_whole_chunks_of_another_width_match_reference(self, tmp_path, hand_offs):
        # every row from 3000 on has four cells: those chunks are plain with
        # a wider stride, and the chunk where the width changes is not
        rows = plain_rows(8103) + [r + ["9"] for r in plain_rows(8104, 3000)]
        p = tmp_path / "data.csv"
        write_rows(p, rows, "x,y,z")
        assert_reads_as_reference(p, ["z", "x"], [2, 0], True)
        assert len(hand_offs) == 1

    @pytest.mark.parametrize("fault, selectors", [
        ("quoted", [2, 0]),
        ("quoted_commas", [1]),
        ("wider_row", [1, 0]),
        ("nul", [1, 0]),
    ])
    def test_later_chunk_handed_to_the_csv_module(self, tmp_path, request, fault, selectors):
        rows = plain_rows(8105)
        if fault == "quoted_commas":
            # every line from row 3000 on has the same comma count, and a
            # split at each comma would take csv column 1 from column 0
            for row in rows[3000:]:
                row[0] = '"1,2,3"'
        else:
            rows[3500][2] = {"quoted": '"' + rows[3500][2] + '"', "wider_row": "1,2,3",
                             "nul": "a\x00b"}[fault]
        p = tmp_path / "data.csv"
        write_rows(p, rows, "x,y,z")
        assert chunk_of_line(p, 3002) > 0
        if fault == "nul" and sys.version_info < (3, 11):
            # the csv module rejects a NUL before Python 3.11
            with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: line 3502: .*NUL"):
                read_csv(p, selectors)
            return
        hand_offs = request.getfixturevalue("hand_offs")
        assert_reads_as_reference(p, selectors, selectors, True)
        # each block that is not plain is handed over on its own: the one
        # holding row 3500, or every block from row 3000 on
        quoted_blocks = len(line_chunks(p)) - chunk_of_line(p, 3002)
        assert len(hand_offs) == (quoted_blocks if fault == "quoted_commas" else 1)

    def test_quoted_newlines_across_a_chunk_boundary(self, tmp_path, monkeypatch):
        # float and str.strip both drop the 70000 newlines, more than one
        # chunk holds, so the record opens in one chunk and closes in
        # another: strict mode raises at the end of the first, and the
        # row-by-row loop reads the file
        rows = plain_rows(8106)
        rows[2000][1] = '"1.5' + "\n" * 70_000 + '"'
        p = tmp_path / "data.csv"
        write_rows(p, rows, "x,y,z")
        assert chunk_of_line(p, 2002) < chunk_of_line(p, 2002 + 70_000)
        fallbacks = []
        by_row = msetsim.io._columns_by_row

        def spy(*args):
            fallbacks.append(args)
            return by_row(*args)

        monkeypatch.setattr(msetsim.io, "_columns_by_row", spy)
        (f, g) = assert_reads_as_reference(p, ["x", "y"], [0, 1], True)
        assert g.values[2000] == 1.5 and len(g.values) == 8000
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_cr_line_ends_in_a_later_chunk(self, tmp_path, hand_offs, newline):
        rows = [",".join(r) for r in plain_rows(8107)]
        p = tmp_path / "data.csv"
        p.write_text("x,y,z\n" + "\n".join(rows[:3000]) + "\n"
                     + newline.join(rows[3000:]) + newline, encoding="utf-8", newline="")
        assert chunk_of_line(p, 3002) > 0
        assert_reads_as_reference(p, ["y", "z"], [1, 2], True)
        # CRLF blocks are split plainly; each block holding a lone CR goes
        # to the csv module
        cr_blocks = len(line_chunks(p)) - chunk_of_line(p, 3002)
        assert len(hand_offs) == (0 if newline == "\r\n" else cr_blocks)

    def test_short_row_in_a_plain_file_names_its_row(self, tmp_path):
        rows = plain_rows(8108)
        rows[3500] = ["7"]
        p = tmp_path / "data.csv"
        write_rows(p, rows, "x,y,z", blanks={3000: 1})
        assert chunk_of_line(p, 3503) > 0
        want = f"{p}: row 3503 has 1 cell(s), column 'y' needs index 1"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            read_csv(p, ["x", "y"])

    @pytest.mark.parametrize("limit", [None, 200])
    def test_line_over_the_field_limit_is_a_csv_error(self, tmp_path, limit):
        # the cell holds a finite number, which float would parse, but the
        # csv module rejects the field; at a lowered limit the line is
        # shorter than the chunk, so it is the line length that is checked
        old = csv.field_size_limit()
        length = (limit or old) + 10
        rows = plain_rows(8109)
        rows[3500][1] = "0" * (length - 3) + "2.5"
        p = tmp_path / "data.csv"
        write_rows(p, rows, "x,y,z")
        assert float(rows[3500][1]) == 2.5 and chunk_of_line(p, 3502) > 0
        want = f"{p}: line 3502: field larger than field limit ({limit or old})"
        try:
            if limit is not None:
                csv.field_size_limit(limit)
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                read_csv(p, ["x", "y"])
        finally:
            csv.field_size_limit(old)


# Block edges: with msetsim.io._HINT at 8 to 64 characters, a block ends
# mid-line, on a "\n", between a "\r" and its "\n", inside a run of blank
# lines or a quoted cell, and read_csv must still read what the row-by-row
# reference loop reads, bit for bit, or raise its error.
PLAIN_CELLS = ("0", "1.5", "-2.25", "-0", "1e5", "5e-324", "7.", " 3 ", "\t4", "\u30005")
ODD_CELLS = ("", "x", "nan", "1e999", '"6"', '"7,8"', '" 9 "', '"1\n2"', '"', "1\x00",
             "\x1c1", "\ufeff1")
LINE_ENDS = ("\n",) * 6 + ("\r\n", "\r")


def reference_read(path, selectors, has_header):
    """The bits of each column the row-by-row loop reads, or the text of
    the ValueError read_csv raises on it."""
    try:
        columns = msetsim.io._columns_by_row(path, selectors, has_header)
    except ValueError as exc:
        return str(exc)
    if not columns[0]:
        return f"{path}: no data rows"
    return [value_bits(c) for c in columns]


@st.composite
def csv_files(draw):
    """The bytes of a small CSV file, mostly plain lines of one width."""
    width = draw(st.integers(1, 3))
    plain = st.lists(st.sampled_from(PLAIN_CELLS), min_size=width, max_size=width)
    ragged = st.lists(st.sampled_from(PLAIN_CELLS), min_size=1, max_size=4)
    odd = st.lists(st.sampled_from(PLAIN_CELLS + ODD_CELLS), min_size=1, max_size=4)
    line = st.one_of(plain, plain, plain, st.just([]), ragged, odd).map(",".join)
    lines = draw(st.lists(line, max_size=40))
    if draw(st.booleans()):
        lines.insert(0, ",".join("abcd"[:width]))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines),
                         max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    text = "".join(map(str.__add__, lines, ends))
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")


class TestBlockEdges:
    @settings(deadline=None, max_examples=300)
    # pinned: lines of unequal width whose cells add up to whole rows of the
    # first line's width; and lines whose "\n" cells fill every
    # (width + 1)-th place but outnumber the rows that many cells make
    @example(b"0,0\n1,2\n3\n4,5,6\n", 64, [0], False)
    @example(b"a,b,c\n0\n0,0,0\n", 8, [0], None)
    # a quoted cell still open at the first block's end; a CRLF file whose
    # first read stops between "\r" and "\n"; and blank lines only
    @example(b'a,b\n1,"2222222\n3",4\n', 8, [1], None)
    @example(b"a,b\r\n1000,22\r\n3,4\r\n", 8, [0, 1], None)
    @example(b"\n\n\n", 8, ["a"], None)
    @given(data=csv_files(), hint=st.integers(8, 64),
           selectors=st.sampled_from([[0], [1], [0, 1], [2, 0], [1, 1], ["a"], ["c", "a"]]),
           has_header=st.sampled_from([None, True, False]))
    def test_read_csv_matches_the_row_reader(self, data, hint, selectors, has_header):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            p = os.path.join(tmp, "data.csv")
            with open(p, "wb") as fh:
                fh.write(data)
            want = reference_read(p, selectors, has_header)
            mp.setattr(msetsim.io, "_HINT", hint)
            try:
                got = [value_bits(s.values) for s in read_csv(p, selectors, has_header)]
            except ValueError as exc:
                got = str(exc)
            assert got == want


class TestFieldCsv:
    def test_layout_and_roundtrip(self, tmp_path):
        spec = GridSpec(0.0, 1.0, 0.0, 2.0, 2, 3)
        fld = field(FieldExpr.A3, spec)
        out = tmp_path / "field.csv"
        write_field_csv(fld, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 6
        assert lines[1].split(",")[:2] == ["0", "0"]
        (values,) = read_csv(out, ["value"])
        assert values.values == fld.values

    def test_roundtrip_preserves_awkward_floats(self, tmp_path):
        spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
        fld = field(FieldExpr.JR, spec)
        out = tmp_path / "jr.csv"
        write_field_csv(fld, out)
        back = read_csv(out, ["value"])[0].values
        assert back == fld.values


    @pytest.mark.parametrize("expr, spec, d", [
        (FieldExpr.A3, GridSpec(nx=5, ny=5), None),
        (FieldExpr.JR, GridSpec(nx=41, ny=41), None),
        (FieldExpr.JR_POW, GridSpec(-1.0, 3.0, -2.0, 0.5, 9, 6), 3),
        (FieldExpr.A1, GridSpec(-1e-310, 2e-310, -5e-324, 1.5e-323, 7, 5), None),
        (FieldExpr.A4, GridSpec(-1e300, 1e300, -1e300, 1e300, 5, 5), None),
        (FieldExpr.KRON, GridSpec(-1.0, -0.0, -0.0, 1.0, 3, 2), None),
    ])
    def test_every_line_matches_reference_writer(self, tmp_path, expr, spec, d):
        def ref(v):
            return format(v, ".17g")

        fld = field(expr, spec, d=d)
        want = ["x,y,value\n"]
        k = 0
        for y in spec.ys():
            for x in spec.xs():
                want.append(f"{ref(x)},{ref(y)},{ref(fld.values[k])}\n")
                k += 1
        out = tmp_path / "f.csv"
        write_field_csv(fld, out)
        with open(out, newline="", encoding="utf-8") as fh:
            assert fh.readlines() == want

    def test_signed_zeros_print_as_minus_zero(self, tmp_path):
        out = tmp_path / "a3.csv"
        write_field_csv(field(FieldExpr.A3, GridSpec(nx=5, ny=5)), out)
        lines = out.read_text().splitlines()
        assert [ln for ln in lines if ln.endswith(",-0")] == [
            "0,-2,-0", "0,-1,-0", "-2,0,-0", "-1,0,-0"]


# values whose "%.17g" and format(v, ".17g") forms must agree byte for byte:
# signed zeros, subnormals, the normal and finite extremes, non-finite
# values, and 17-digit forms with an exponent or on its threshold
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1.5e-323, 1e-310, -2.2250738585072009e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    math.inf, -math.inf, math.nan, 1e16, -1e16, 1e17, 1.2345e-5, 1e-5, 1e-4,
    0.1, 1 / 3, -2.0, 123456789012345678.0, 1e22,
]


class TestFormatEquivalence:
    @pytest.mark.parametrize("v", EDGE_VALUES, ids=repr)
    def test_percent_matches_format(self, v):
        assert ("%.17g" % v).encode() == format(v, ".17g").encode() == fmt(v).encode()

    @pytest.mark.parametrize("as_values", [tuple, list])
    def test_field_csv_matches_per_cell_writer(self, tmp_path, as_values):
        spec = GridSpec(-1e-310, 3.0, -2.0, 1e300, 6, 4)
        fld = ScalarField(spec, as_values(EDGE_VALUES))
        want = ["x,y,value\n"]
        cells = iter(EDGE_VALUES)
        for y in spec.ys():
            for x in spec.xs():
                want.append(",".join(format(v, ".17g") for v in (x, y, next(cells))) + "\n")
        out = tmp_path / "f.csv"
        write_field_csv(fld, out)
        with open(out, newline="", encoding="utf-8") as fh:
            assert fh.readlines() == want


def reference_pgm(fld, lo, hi) -> bytes:
    """Per-cell rendering: top image row first, each pixel rounded on its own."""
    nx, ny = fld.spec.nx, fld.spec.ny
    out = bytearray(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
    for j in reversed(range(ny)):
        for i in range(nx):
            t = min(max((fld.at(i, j) - lo) / (hi - lo), 0.0), 1.0)
            out.append(math.floor(255.0 * t + 0.5))
    return bytes(out)


class TestPgm:
    def make_kron(self, n=101):
        return field(FieldExpr.KRON, GridSpec(nx=n, ny=n))

    def test_header_and_crest_bytes(self, tmp_path):
        fld = self.make_kron()
        out = tmp_path / "kron.pgm"
        write_pgm(fld, HeatmapRange(-1.0, 1.0), out)
        blob = out.read_bytes()
        header = f"P5\n101 101\n255\n".encode()
        assert blob.startswith(header)
        payload = blob[len(header):]
        assert len(payload) == 101 * 101
        # top-left pixel is (x_min, y_max) = (-2, 2): anti-crest, byte 0
        assert payload[0] == 0
        # top-right pixel is (2, 2): identity crest, byte 255
        assert payload[100] == 255
        # off-crest zero value maps to 127.5 -> rounds away from zero to 128
        assert payload[1] == 128

    def test_bottom_row_is_y_min(self, tmp_path):
        fld = self.make_kron()
        out = tmp_path / "kron.pgm"
        write_pgm(fld, HeatmapRange(-1.0, 1.0), out)
        payload = out.read_bytes()[len(b"P5\n101 101\n255\n"):]
        # bottom-left is (-2, -2): identity crest; bottom-right (2, -2): anti-crest
        assert payload[-101] == 255
        assert payload[-1] == 0

    def test_clamping(self, tmp_path):
        fld = field(FieldExpr.A3, GridSpec(nx=5, ny=5))  # values in [-4, 4]
        out = tmp_path / "a3.pgm"
        write_pgm(fld, HeatmapRange(-1.0, 1.0), out)
        payload = out.read_bytes()[len(b"P5\n5 5\n255\n"):]
        assert min(payload) == 0
        assert max(payload) == 255

    def test_monotone_along_first_quadrant_row(self, tmp_path):
        # along a fixed-y row moving right from the diagonal the surface
        # decays like y/x, so grayscale must be nonincreasing
        fld = field(FieldExpr.JR, GridSpec(nx=41, ny=41))
        out = tmp_path / "jr.pgm"
        write_pgm(fld, HeatmapRange(-1.0, 1.0), out)
        header = b"P5\n41 41\n255\n"
        payload = out.read_bytes()[len(header):]
        j = 30  # field row index; image row is 40 - j
        image_row = 40 - j
        row = payload[image_row * 41:(image_row + 1) * 41]
        segment = row[j:]  # from the diagonal rightwards
        assert all(a >= b for a, b in zip(segment, segment[1:]))

    @pytest.mark.parametrize("expr, spec", [
        (FieldExpr.JR, GridSpec(nx=41, ny=41)),
        (FieldExpr.A3, GridSpec(nx=5, ny=5)),
        (FieldExpr.JR_POW, GridSpec(-1.0, 3.0, -2.0, 0.5, 9, 6)),
        (FieldExpr.KRON, GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 2)),
        (FieldExpr.A4, GridSpec(-2e154, 2e154, -2e154, 2e154, 5, 5)),  # inf rim
    ])
    def test_bytes_match_reference_rendering(self, tmp_path, expr, spec):
        fld = field(expr, spec, d=3)
        finite = [v for v in fld.values if math.isfinite(v)]
        for lo, hi in ((-1.0, 1.0), (min(finite), max(finite))):
            out = tmp_path / "f.pgm"
            write_pgm(fld, HeatmapRange(lo, hi), out)
            assert out.read_bytes() == reference_pgm(fld, lo, hi), (lo, hi)

    def test_mirrored_rows_compute_half_of_their_pixels(self, tmp_path, monkeypatch):
        # every row of a2 on a range symmetric about x = 0 mirrors, so each
        # computes its centre and right half, (h + 1) * ny pixels in all,
        # where one pixel per cell would be nx * ny
        nx, ny = 9, 5
        fld = field(FieldExpr.A2, GridSpec(-2.0, 2.0, -1.0, 3.0, nx, ny))
        want = reference_pgm(fld, 0.0, 3.0)
        computed = []
        floor = math.floor

        def counted(v):
            computed.append(v)
            return floor(v)

        monkeypatch.setattr(math, "floor", counted)  # before the renderer is built
        out = tmp_path / "a2.pgm"
        write_pgm(fld, HeatmapRange(0.0, 3.0), out)
        assert len(computed) == (nx // 2 + 1) * ny
        assert out.read_bytes() == want

    @pytest.mark.parametrize("row", [
        [-0.0, 1.0, 2.0, 1.0, 0.0],         # mirrors: -0.0 == 0.0
        [0.0, 1.0, 2.0, 1.0, -0.0],
        [9.0, -9.0, 0.5, -9.0, 9.0],        # mirrors, outside the range: clamped
        [math.inf, 0.5, 0.5, 0.5, math.inf],  # floor refuses inf: clamped
        [-math.inf, 2.0, 2.0, 2.0, -math.inf],
        [0.25, 0.5, 0.75, 1.0, 1.25],       # does not mirror, one pixel past 255
        [1e-300, -1e-300, 0.0, -1e-300, 1e-300],
    ], ids=repr)
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.0, 1.0), (-1.0, -0.0), (0.25, 1.0)])
    def test_mirrored_and_unclamped_rows_render_the_clamped_formula(self, tmp_path, row, lo, hi):
        for width in (5, 4):  # an even row drops the centre
            cells = row[:2] + row[-width + 2:]
            fld = ScalarField(GridSpec(-1.0, 1.0, -1.0, 1.0, width, 2), cells + cells[::-1])
            out = tmp_path / "f.pgm"
            write_pgm(fld, HeatmapRange(lo, hi), out)
            assert out.read_bytes() == reference_pgm(fld, lo, hi), width

    def test_a_nan_in_a_mirrored_row_still_raises(self, tmp_path):
        # the halves compare equal because both hold the same NaN object,
        # which the rendered right half holds too
        row = [0.5, math.nan, 0.25, math.nan, 0.5]
        fld = ScalarField(GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 2), row + row)
        out = tmp_path / "f.pgm"
        with pytest.raises(ValueError, match="^cannot convert float NaN to integer$"):
            write_pgm(fld, HeatmapRange(0.0, 1.0), out)
        assert not out.exists()

    def test_range_validation(self):
        with pytest.raises(ValueError):
            HeatmapRange(1.0, 1.0)
        with pytest.raises(ValueError):
            HeatmapRange(2.0, -2.0)
        with pytest.raises(ValueError):
            HeatmapRange(math.nan, 1.0)

    @pytest.mark.parametrize("lo, hi, shown", [
        ("0", "1", "'0'"), (0.0, b"1", "b'1'"), (True, 2.0, "True"), (-1.0, True, "True")],
        ids=repr)
    def test_text_and_bool_levels_are_refused(self, lo, hi, shown):
        # math.isfinite raises TypeError on text, and a bool passes it
        with pytest.raises(ValueError, match=f"levels must be real numbers, got {shown}$"):
            HeatmapRange(lo, hi)

    @pytest.mark.parametrize("lo, hi", [(-1.7e308, 1.7e308), (-1e308, 1e308),
                                        (-1e300, 1.7976931348623157e308)])
    def test_range_whose_width_overflows_is_refused(self, lo, hi):
        # by the documented formula v = 0 would be pixel 128, but (v - lo)/(hi - lo)
        # divides by inf, so every pixel came out 0 (or NaN raised)
        with pytest.raises(ValueError) as got:
            HeatmapRange(lo, hi)
        assert str(got.value) == f"need a finite width hi - lo, got {lo!r}, {hi!r}"
        # a width that rounds to the largest float is finite
        assert HeatmapRange(-5e-324, 1.7976931348623157e308).hi == 1.7976931348623157e308

    @pytest.mark.parametrize("rng", [None, (0, 1), (-1.0, 1.0)], ids=repr)
    def test_heatmap_needs_a_range_before_any_output_is_opened(self, tmp_path, rng):
        # an rng without .lo and .hi raised AttributeError once both outputs
        # were open
        fld = field(FieldExpr.A3, GridSpec(nx=3, ny=3))
        old, new_csv, new_pgm = tmp_path / "old.csv", tmp_path / "new.csv", tmp_path / "new.pgm"
        old.write_bytes(b"old bytes\n")
        message = f"^a heatmap needs a HeatmapRange, got {re.escape(repr(rng))}$"
        with pytest.raises(ValueError, match=message):
            write_pgm(fld, rng, new_pgm)
        with pytest.raises(ValueError, match=message):
            msetsim.io.export_field(fld.spec, msetsim.io._rows(fld), new_csv, old, rng)
        with pytest.raises(ValueError, match=message):
            msetsim.io.export_field(fld.spec, msetsim.io._rows(fld), old, new_pgm, rng)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv"]
        assert old.read_bytes() == b"old bytes\n"


def reference_csv(fld) -> bytes:
    """Per-cell writer: every number formatted on its own by format(v, ".17g")."""
    lines = ["x,y,value\n"]
    cells = iter(fld.values)
    for y in fld.spec.ys():
        for x in fld.spec.xs():
            lines.append(",".join(format(v, ".17g") for v in (x, y, next(cells))) + "\n")
    return "".join(lines).encode("utf-8")


@pytest.fixture
def memo_calls(monkeypatch):
    """(memo size after the call, whether the row came from the memo) for
    each row the field CSV writer offers to its memo."""
    calls = []
    from_memo = msetsim.io._from_memo

    def spy(memo, row, cap):
        got = from_memo(memo, row, cap)
        calls.append((len(memo), got is not None))
        return got

    monkeypatch.setattr(msetsim.io, "_from_memo", spy)
    return calls


def assert_writes_reference(tmp_path, fld, ranges=()):
    out = tmp_path / "f.csv"
    write_field_csv(fld, out)
    assert out.read_bytes() == reference_csv(fld)
    for lo, hi in ranges:
        pgm = tmp_path / "f.pgm"
        write_pgm(fld, HeatmapRange(lo, hi), pgm)
        assert pgm.read_bytes() == reference_pgm(fld, lo, hi), (lo, hi)


class TestDistinctValueMemo:
    """The field CSV writer formats each distinct value once while the
    rows offered to the memo hold no more than a min/max surface can: 0,
    +-|x| for each distinct |x| and +-|y| for each row; every expected byte
    here, CSV and PGM, is the per-cell writer's."""

    def test_negative_zero_beside_memoised_values(self, tmp_path, memo_calls):
        # +0.0 and 1.5 are memoised in row 0; row 1 holds -0.0 beside them
        # and must print "-0"; row 2 holds +0.0 again and must print "0"
        spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 4)
        fld = ScalarField(spec, [0.0, 1.5, 1.5,
                                 1.5, -0.0, 0.0,
                                 0.0, 1.5, 0.0,
                                 -0.0, -0.0, -0.0])
        assert_writes_reference(tmp_path, fld, [(-1.0, 2.0)])
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert [ln.rsplit(",", 1)[1] for ln in lines[1:]] == [
            "0", "1.5", "1.5", "1.5", "-0", "0", "0", "1.5", "0", "-0", "-0", "-0"]
        # the CSV offers rows 0 and 2 to its memo
        assert [hit for _, hit in memo_calls] == [True] * 2

    def test_negative_zero_row_test_skips_only_speed(self, tmp_path, memo_calls):
        # negatives above -2**-1007 share -0.0's sign-and-exponent byte, so
        # their rows skip the CSV memo; the bytes are the per-cell writer's
        # either way
        spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 4, 3)
        fld = ScalarField(spec, [-5e-324, 0.0, 2.0, -1e-310,
                                 0.0, 2.0, 0.0, 2.0,
                                 -7e-305, 2.0, 1e-300, 0.0])
        assert_writes_reference(tmp_path, fld, [(-1.0, 1.0)])
        # the CSV offers row 1 only
        assert [hit for _, hit in memo_calls] == [True]

    def test_nan_inf_and_subnormals_in_memoised_rows(self, tmp_path, memo_calls):
        # no value here has -0.0's sign-and-exponent byte, so every CSV row
        # is offered to the memo (negative subnormals have it: see above)
        row = [math.inf, -math.inf, 5e-324, 1e-310, 2.2250738585072009e-308,
               -1e-300, 0.1, 1e22]
        # a distinct NaN object in every row, and one shared by two cells
        shared = float("nan")
        values = []
        for j in range(6):
            values += row + [float("nan"), shared, shared, -shared]
        fld = ScalarField(GridSpec(-1.0, 1.0, -1.0, 1.0, 12, 6), values)
        out = tmp_path / "f.csv"
        write_field_csv(fld, out)
        assert out.read_bytes() == reference_csv(fld)
        assert [hit for _, hit in memo_calls] == [True] * 6

    def test_cap_crossed_mid_file(self, tmp_path, memo_calls):
        # 20 x 6 over [-1, 1]: 10 distinct |x|, so after k rows the cap is
        # 2 * 10 + 1 + 2 * k.  Rows 0-1 hold three values, rows 2 and 3
        # twenty new ones each, rows 4-5 the three again.  Row 3 would take
        # the CSV's memo to 43 > 29 values, so it and rows 4-5, which would
        # fit, are formatted directly.
        spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 20, 6)
        few = [0.0, 0.25, -0.75] * 6 + [0.0, 0.25]
        many = [i / 7 for i in range(1, 41)]
        fld = ScalarField(spec, few + few + many + few + few)
        assert_writes_reference(tmp_path, fld, [(-1.0, 1.0), (-0.75, 40 / 7)])
        assert [hit for _, hit in memo_calls] == [True, True, True, False]
        assert max(size for size, _ in memo_calls) == 23

    def test_values_at_the_cap_stay_in_the_memo(self, tmp_path, memo_calls):
        # 5 x 5 over [-1, 1]: 3 distinct |x|, so the cap after k rows is
        # 7 + 2 * k; rows 2, 3 and 4 bring the memo to exactly 13, 15, 17
        v = [i / 3 for i in range(17)]
        rows = [v[0:5], v[5:10], v[10:13] + v[0:2], v[13:15] + v[2:5], v[15:17] + v[5:8]]
        fld = ScalarField(GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5), [x for r in rows for x in r])
        assert_writes_reference(tmp_path, fld)
        assert memo_calls == [(5, True), (10, True), (13, True), (15, True), (17, True)]

    @pytest.mark.parametrize("expr, spec", [
        (FieldExpr.KRON, GridSpec(nx=401, ny=401)),
        (FieldExpr.A3, GridSpec(-1.3, 2.9, -0.7, 3.1, 401, 401)),
    ])
    def test_large_grids_match_reference(self, tmp_path, memo_calls, expr, spec):
        fld = field(expr, spec)
        assert_writes_reference(tmp_path, fld, [(-1.0, 1.0), (min(fld.values), max(fld.values))])
        cap = 2 * (401 + 401) + 1
        assert max(size for size, _ in memo_calls) <= cap

    @pytest.mark.parametrize("spec", [
        GridSpec(-1.3, 2.9, -0.7, 3.1, 61, 41),
        GridSpec(-2.0, 2.0, -2.0, 2.0, 61, 61),
        GridSpec(-0.0, 1.0, -1.0, 0.0, 6, 9),
        GridSpec(-2e154, 2e154, -2e154, 2e154, 5, 5),  # inf rim for a4
    ])
    @pytest.mark.parametrize("expr", [
        FieldExpr.A1, FieldExpr.A2, FieldExpr.A4, FieldExpr.A5, FieldExpr.KRON])
    def test_min_max_surfaces_stay_in_the_memo(self, tmp_path, memo_calls, expr, spec):
        fld = field(expr, spec)
        assert_writes_reference(tmp_path, fld, [(-1.0, 1.0)])
        assert memo_calls and all(hit for _, hit in memo_calls)
        assert max(size for size, _ in memo_calls) == len(set(fld.values))

    def test_mostly_distinct_grid_stops_at_the_cap(self, tmp_path, memo_calls):
        # 201 distinct |x|: the cap is 405 on the first row, 407 on the
        # second, and each row of jr holds about 400 new values
        fld = field(FieldExpr.JR, GridSpec(nx=401, ny=401))
        assert_writes_reference(tmp_path, fld, [(-1.0, 1.0)])
        assert [hit for _, hit in memo_calls] == [True, False]
        assert max(size for size, _ in memo_calls) <= 405

    def test_pgm_nan_raises_the_direct_error_and_writes_nothing(self, tmp_path):
        values = [0.5] * 12
        values[7] = math.nan
        fld = ScalarField(GridSpec(-1.0, 1.0, -1.0, 1.0, 4, 3), values)
        with pytest.raises(ValueError) as direct:
            int(255.0 * math.nan + 0.5)
        out = tmp_path / "f.pgm"
        with pytest.raises(ValueError) as got:
            write_pgm(fld, HeatmapRange(0.0, 1.0), out)
        assert str(got.value) == str(direct.value) == "cannot convert float NaN to integer"
        assert not out.exists()

    def test_int_bounds_write_the_float_grid_bytes(self, tmp_path):
        as_ints = GridSpec(-1, 3, 0, 2, 7, 4)
        as_floats = GridSpec(-1.0, 3.0, 0.0, 2.0, 7, 4)
        assert as_ints == as_floats
        a, b = tmp_path / "ints.csv", tmp_path / "floats.csv"
        write_field_csv(field(FieldExpr.A3, as_ints), a)
        write_field_csv(field(FieldExpr.A3, as_floats), b)
        assert a.read_bytes() == b.read_bytes()
        assert "-1,0,-0" in a.read_text().splitlines()


@pytest.mark.parametrize("axis, spec", [
    ("x", GridSpec(-1e308, 1e308, -1.0, 1.0, 4, 2)),
    ("y", GridSpec(-1.0, 1.0, -1e308, 1e308, 2, 4)),
])
@pytest.mark.parametrize("writer", ["write_field_csv", "write_pgm", "export_field"])
def test_writers_refuse_a_lattice_with_non_finite_points(tmp_path, axis, spec, writer):
    # the endpoint blend of +-1e308 over 4 points overflows to -inf and inf;
    # the writers read the lattice through GridSpec, which refuses it, so
    # write_field_csv no longer writes those coordinates
    fld = ScalarField(spec, [0.0] * 8)
    rng = HeatmapRange(-1.0, 1.0)
    write = {
        "write_field_csv": lambda out, _: write_field_csv(fld, out),
        "write_pgm": lambda out, _: write_pgm(fld, rng, out),
        "export_field": lambda out, pgm: export_field(spec, [[0.0] * spec.nx] * spec.ny,
                                                      out, pgm, rng),
    }[writer]
    kept, new = tmp_path / "kept", tmp_path / "new"
    kept.write_bytes(b"old bytes\n")
    for out, pgm in ((new, kept), (kept, new)):
        with pytest.raises(ValueError, match=f"^the {axis} lattice from -1e\\+308 to 1e\\+308 "):
            write(out, pgm)
        assert os.listdir(tmp_path) == ["kept"]
        assert kept.read_bytes() == b"old bytes\n"


@pytest.fixture
def formatted(monkeypatch):
    """The number of values in each call of ``io._texts``: a memo's new
    values, or the magnitudes of the right half and centre of a row whose
    halves mirror in magnitude."""
    sizes = []
    texts = msetsim.io._texts

    def spy(values):
        sizes.append(len(values))
        return texts(values)

    monkeypatch.setattr(msetsim.io, "_texts", spy)
    return sizes


@pytest.fixture
def formatted_values(monkeypatch):
    """The values of each call of ``io._texts``, as their reprs, so that a
    NaN equals a NaN and -0.0 differs from 0.0."""
    calls = []
    texts = msetsim.io._texts

    def spy(values):
        calls.append(tuple(map(repr, values)))
        return texts(values)

    monkeypatch.setattr(msetsim.io, "_texts", spy)
    return calls


SURFACES = [(e, None) for e in FieldExpr if e is not FieldExpr.JR_POW] + [
    (FieldExpr.JR_POW, d) for d in (1, 2, 3, 4)]


class TestMirroredRows:
    """A CSV row the memo does not serve, whose halves mirror in magnitude
    (every row of ``jr``, ``jrpow`` and ``a3`` on a range symmetric about
    zero), is written from the formatted magnitudes of one half and the
    centre, through a template of the row's signs; every expected byte
    here is the per-cell writer's (:func:`reference_csv`)."""

    @pytest.mark.parametrize("spec", [
        *(GridSpec(-2.0, 2.0, -2.0, 2.0, nx, 7) for nx in (2, 3, 4, 5)),
        GridSpec(-2.0, 2.0, -2.0, 2.0, 401, 9),
        # symmetric but for one ulp: no row is mirrored
        GridSpec(-2.0, math.nextafter(2.0, 3.0), -2.0, 2.0, 41, 9),
        GridSpec(-1e200, 1e200, -1e200, 1e200, 5, 5),  # a4 overflows to inf
        GridSpec(-1e200, 1e200, -1e200, 1e200, 41, 6),
        GridSpec(-1e-310, 1e-310, -1e-310, 1e-310, 41, 6),
        GridSpec(-1e-310, 1e-310, -1e-310, 1e-310, 4, 5),
    ], ids=repr)
    @pytest.mark.parametrize("expr, d", SURFACES, ids=str)
    def test_every_surface_matches_per_cell_rendering(self, tmp_path, expr, d, spec):
        assert_writes_reference(tmp_path, field(expr, spec, d))

    def test_jr_formats_half_of_each_row(self, tmp_path, formatted):
        # the guard that the mirrored path is taken: row 0 goes to the memo
        # (401 new values, under its cap of 405), which row 1 would pass, so
        # from row 1 on each row formats its right half and centre, but for
        # the mirrors 201..281 of the 81 rows 119..199 nearest the centre,
        # which take those rows' texts
        assert_writes_reference(tmp_path, field(FieldExpr.JR, GridSpec(nx=401, ny=401)))
        assert formatted == [401] + [201] * (400 - 81)

    def test_asymmetric_lattice_formats_rows_directly(self, tmp_path, formatted):
        spec = GridSpec(-2.0, math.nextafter(2.0, 3.0), -2.0, 2.0, 401, 5)
        assert_writes_reference(tmp_path, field(FieldExpr.JR, spec))
        # the memo serves the first rows and then every row is formatted
        # directly: no call formats a half row
        assert formatted[0] == 401 and 201 not in formatted

    def test_a3_rows_holding_signed_zeros(self, tmp_path, formatted):
        # y < 0: the left half is positive and the centre is -0.0; y = 0:
        # -0.0 left of the centre and +0.0 from it; rows holding -0.0 never
        # go to the memo.  y = 1 goes to the memo, and y = 2 would pass it;
        # it takes the texts kept by its mirror y = -2
        fld = field(FieldExpr.A3, GridSpec(-2.0, 2.0, -2.0, 2.0, 401, 5))
        assert_writes_reference(tmp_path, fld)
        assert formatted == [201, 201, 201, 401]
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[1:4] == ["-2,-2,4", "-1.99,-2,3.98", "-1.98,-2,3.96"]
        assert lines[201] == "0,-2,-0" and lines[401] == "2,-2,-4"
        zero_row = lines[1 + 2 * 401:1 + 3 * 401]
        assert zero_row[:200] == [f"{fmt(x)},0,-0" for x in fld.spec.xs()[:200]]
        assert zero_row[200:] == [f"{fmt(x)},0,0" for x in fld.spec.xs()[200:]]

    NAN = float("nan")
    # after three rows of fresh values the memo is gone, so each of these
    # rows is written from its mirrored magnitudes or formatted directly:
    # (row, values formatted from it before that, None for none).  A NaN
    # equals no magnitude, so a NaN in a half sends the row straight to
    # the direct template; a NaN at the centre is formatted with the right
    # half, and then the row is formatted whole: a NaN prints no sign, so
    # "-" + "nan" would be wrong
    ROWS = [
        ([NAN, 1.0, 0.5, -1.0, -NAN], None),    # odd, NaN in both halves
        ([-NAN, -1.0, 0.5, 1.0, NAN], None),    # the same, mirrored
        ([NAN, 2.0, 5.0, 2.0, NAN], None),      # even, NaN's bits in both halves
        ([-NAN, 2.0, NAN, 2.0, -NAN], None),
        ([1.0, -2.0, -NAN, 2.0, -1.0], 3),      # odd, the only NaN at the centre
        ([1.0, -2.0, 0.5, 2.0, -1.0], 3),       # odd, mixed signs in both halves
        ([-0.0, 3.0, 1.0, 3.0, -0.0], 3),       # even, -0.0 in both halves
        ([-0.0, -3.0, 0.0, 3.0, 0.0], 3),       # odd, the right half clear
        ([0.0, 3.0, -0.0, -3.0, -0.0], 3),      # odd, the left half clear
        ([-math.inf, -5e-324, 7.0, 5e-324, math.inf], 3),
        ([math.inf, 1e-310, -2.0, -1e-310, -math.inf], 3),
        ([1.0, 2.0, 3.0, 2.0000000000000004, 1.0], None),  # one ulp off
        ([-0.0, -0.0, -0.0, -0.0, -0.0], 3),
    ]

    @pytest.mark.parametrize("row, sizes", ROWS, ids=repr)
    def test_hand_built_rows(self, tmp_path, formatted, row, sizes):
        fresh = [i / 7 for i in range(1, 16)]
        fld = ScalarField(GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5), fresh + row + row)
        assert_writes_reference(tmp_path, fld)
        # rows 0 and 1 fill the memo; row 2 would pass its cap
        assert formatted == [5, 5] + ([sizes] * 2 if sizes else [])
        # no NaN prints a sign
        text = (tmp_path / "f.csv").read_text()
        assert "-nan" not in text and text.count("nan") == 2 * str(row).count("nan")

    def test_template_follows_each_rows_signs(self, tmp_path, formatted):
        # consecutive mirrored rows with different sign bits: the template of
        # signs is rebuilt for the second row and again for the third
        fresh = [i / 7 for i in range(1, 11)]
        row = [1.0, -2.0, 0.5, 2.0, -1.0]
        flipped = [-v for v in row]
        fld = ScalarField(GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5), fresh + row + flipped + row)
        assert_writes_reference(tmp_path, fld)
        # rows 0 and 1 fill the memo; row 2 would pass its cap
        assert formatted == [5, 5, 3, 3, 3]

    @pytest.mark.parametrize("nx", [2, 3, 4, 5])
    def test_small_rows_of_each_shape(self, tmp_path, formatted, nx):
        # even, odd with either half clear, and not mirrored, on each width;
        # rows hold -0.0, so none goes to the memo.  Row 2 has the
        # magnitudes of its mirror, row 1, and takes its texts
        spec = GridSpec(-1.0, 1.0, -1.0, 1.0, nx, 4)
        h = nx // 2
        neg = [-0.0, -2.5][:h]
        pos = [-v for v in neg]
        centre = [1.5] * (nx % 2)
        values = (neg + centre + neg[::-1] + neg + centre + pos[::-1]
                  + pos + centre + neg[::-1] + [-0.0] + [3.0] * (nx - 1))
        assert_writes_reference(tmp_path, ScalarField(spec, values))
        assert formatted == [nx - h] * 2

    # rows 0-2 of the fields below: the memo takes rows 0 and 1, row 2
    # would pass its cap, and none of them mirrors, so none keeps texts
    FRESH = [[i / 7 for i in range(k, k + 5)] for k in (1, 6, 11)]

    @staticmethod
    def half(row):
        """The reprs of what a mirrored row formats: its centre and right
        half, in magnitude."""
        return tuple(repr(abs(v)) for v in row[2:])

    # (row 3, row 4, the rows formatted from them): on the 5x8 grid of
    # y = -1..1, row 4 is the y mirror of row 3, which lies below the
    # centre and keeps its texts for it
    PAIRS = [
        ([1.0, -2.0, 0.5, 2.0, -1.0], [-1.0, 2.0, -0.5, -2.0, 1.0], [0]),  # other signs
        ([1.0, -2.0, 0.5, 2.0, -1.0], [1.0, 2.0, 0.5, 2.0, 1.0], [0]),
        ([-0.0, 3.0, 0.0, 3.0, -0.0], [0.0, -3.0, -0.0, -3.0, 0.0], [0]),  # -0.0 against 0.0
        ([0.0, 3.0, -0.0, -3.0, -0.0], [-0.0, -3.0, 0.0, 3.0, 0.0], [0]),
        # one magnitude one ulp off, at the centre or in both halves
        ([1.0, 2.0, 3.0, 2.0, 1.0], [1.0, 2.0, math.nextafter(3.0, 4.0), 2.0, 1.0], [0, 1]),
        ([1.0, 2.0, 3.0, 2.0, 1.0],
         [1.0, -2.0000000000000004, 3.0, 2.0000000000000004, 1.0], [0, 1]),
        # a NaN at the centre: the row holding it is formatted whole and
        # keeps nothing, and a row it mirrors formats its own texts
        ([1.0, -2.0, NAN, 2.0, -1.0], [-1.0, 2.0, NAN, -2.0, 1.0], [0, 1]),
        ([1.0, -2.0, 0.5, 2.0, -1.0], [-1.0, 2.0, NAN, -2.0, 1.0], [0, 1]),
        ([1.0, -2.0, NAN, 2.0, -1.0], [-1.0, 2.0, 0.5, -2.0, 1.0], [0, 1]),
        ([-math.inf, -5e-324, 7.0, 5e-324, math.inf],
         [math.inf, 5e-324, -7.0, -5e-324, -math.inf], [0]),
    ]

    @pytest.mark.parametrize("below, above, rows", PAIRS, ids=repr)
    def test_y_mirror_takes_kept_texts(self, tmp_path, formatted_values, below, above, rows):
        spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 8)
        assert spec.ys()[4] == -spec.ys()[3]
        fld = ScalarField(spec, [v for row in (*self.FRESH, below, above, *self.FRESH)
                                 for v in row])
        assert_writes_reference(tmp_path, fld)
        assert [len(call) for call in formatted_values[:2]] == [5, 5]  # the memo's
        assert formatted_values[2:] == [self.half((below, above)[i]) for i in rows]

    def test_asymmetric_y_lattice_keeps_no_texts(self, tmp_path, formatted_values):
        # the same magnitudes, but y = 1.5 tops the lattice, so row 4's y
        # is not the negation of row 3's: row 3 keeps nothing
        row = [1.0, -2.0, 0.5, 2.0, -1.0]
        spec = GridSpec(-1.0, 1.0, -1.0, 1.5, 5, 8)
        assert spec.ys()[4] != -spec.ys()[3]
        fld = ScalarField(spec, [v for r in (*self.FRESH, row, row[::-1], *self.FRESH)
                                 for v in r])
        assert_writes_reference(tmp_path, fld)
        assert formatted_values[2:] == [self.half(row)] * 2

    @pytest.mark.parametrize("budget, kept", [(2 * 96, 2), (2 * 96 - 1, 1), (0, 0)])
    def test_only_rows_nearest_the_centre_keep_texts(self, tmp_path, monkeypatch,
                                                     formatted_values, budget, kept):
        # rows 3-5 lie below the centre row 6, and rows 9, 8 and 7 are their
        # mirrors; a 5-wide row is charged 32 bytes for each of its 3
        # values, so the budget covers the ``kept`` rows nearest the centre
        monkeypatch.setattr(msetsim.io, "_KEPT", budget)
        below = [[1.0, -k, 0.5, k, -1.0] for k in (2.0, 3.0, 4.0)]
        centre = [5.0, 6.0, 7.0, -6.0, -5.0]
        rows = [*self.FRESH, *below, centre, *[[-v for v in r] for r in below[::-1]],
                *self.FRESH]
        fld = ScalarField(GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 13), [v for r in rows for v in r])
        assert_writes_reference(tmp_path, fld)
        formats = [*below, centre, *below[::-1][kept:]]
        assert formatted_values[2:] == [self.half(r) for r in formats]

    def test_jr_keeps_as_many_rows_as_the_budget_covers(self, tmp_path, formatted):
        # a 401-wide row is charged 32 * 201 bytes, so 512 KiB cover 81
        # rows: rows 2..82 below the centre row 83 keep their texts, and
        # rows 84..164 take them.  Row 0 goes to the memo, and rows 1 and
        # 83 and the mirrors 165 and 166 of rows 1 and 0 format their own
        assert msetsim.io._KEPT // (32 * 201) == 81
        assert_writes_reference(tmp_path, field(FieldExpr.JR, GridSpec(nx=401, ny=167)))
        assert formatted == [401] + [201] * (167 - 1 - 81)
