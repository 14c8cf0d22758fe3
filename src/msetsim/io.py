"""CSV signal ingestion and field export: numeric CSV in, field CSV and
binary PGM heatmaps out.

Every number is printed with 17 significant digits, the shortest length
guaranteed to parse back to the same binary64 value.

Every file is opened for writing by :func:`_outputs`, one rule for all
outputs: an existing file is replaced only by a whole write.  A field's
CSV lines and PGM pixels are written by one loop, :func:`export_field`,
which :func:`write_field_csv` and :func:`write_pgm` call on a field's
rows; it writes both files in one pass over rows as they are evaluated,
holding one row, the nx*ny-byte image, the CSV writer's memo and the
half-row texts it keeps (at most ``_KEPT`` bytes), never the field.

A CSV row the writer's memo does not serve, and whose right half mirrors
its left half in magnitude (as every row of ``jr``, ``jrpow`` and ``a3``
does on a range symmetric about zero), formats the magnitudes of one half
and the centre, and writes both halves from those texts through a
template that prints a literal ``-`` before each value whose sign bit is
set.  A NaN's text has no sign, so a row holding a NaN is formatted whole.
Those texts depend on the half's magnitudes alone, so the first such rows
keep them under their magnitudes packed as doubles, and a later row whose
half packs to the same bytes writes from them: on such a range row
ny-1-j has the magnitudes of row j.
"""

import contextlib
import csv
import itertools
import math
import operator
import os
import stat
import struct
import tempfile
from dataclasses import dataclass
from io import StringIO
from typing import Iterable, Sequence, Union

from .fields import GridSpec, ScalarField
from .msetops import Signal, _real, _sequence, _shown, _spacing, _whole

# a column is picked either by 0-based index or by header name
ColumnSelector = Union[int, str]


def fmt(v: float) -> str:
    """Format a float with 17 significant digits (round-trips exactly)."""
    return format(v, ".17g")


def _parses_as_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _column(s) -> ColumnSelector:
    """``s`` if it is a header name, else ``s`` as a column index, which
    must be an int of at least 0 and not a bool: the one selector rule, for
    :func:`read_csv` and the CLI's column flags."""
    return s if isinstance(s, str) else _whole(s, "column index must be an integer >= 0", 0)


def _resolve(name: str, header: list[str], path) -> int:
    """The index of the column ``name`` in the stripped ``header``."""
    if name not in header:
        raise ValueError(f"{path}: column {name!r} not found in header {header}")
    if header.count(name) > 1:
        raise ValueError(f"{path}: column name {name!r} is ambiguous")
    return header.index(name)


# characters read per block offered to the plain split, before the block is
# completed to a line end; 64 Ki is no faster, and a 10^5-row read then
# peaks above the csv-record loop
_HINT = 1 << 15

# bytes of half-row texts the field CSV writer may keep, charged 32 a kept
# value (8 packed, and at most 23 characters of text and a newline): the
# first 81 mirrored rows of a 401-wide grid, and every mirrored row below
# the centre of a grid up to 256²
_KEPT = 1 << 19


def _data_records(reader, path, selectors: list[ColumnSelector], has_header: bool | None):
    """Consume the first record of ``reader`` that is not empty and decide
    whether it is the header; return the data records, the row number of
    the first of them, and the column index of each selector.  Rows count
    every record, empty ones included; a file with no record that is not
    empty is empty."""
    first, start = next(reader, None), 1
    while first == []:
        first, start = next(reader, None), start + 1
    if first is None:
        raise ValueError(f"{path}: file is empty")
    want_names = any(isinstance(s, str) for s in selectors)
    if has_header is None:
        has_header = want_names or not all(
            i < len(first) and _parses_as_number(first[i].strip()) for i in selectors)
    elif want_names and not has_header:
        raise ValueError(f"{path}: column names need a header row")
    header = [h.strip() for h in first] if has_header else None
    # an index selector is a checked int, and a name has a header row here
    indices = [_resolve(s, header, path) if isinstance(s, str) else s for s in selectors]
    if has_header:
        return reader, start + 1, indices
    return itertools.chain([first], reader), start, indices


def _extend_from_records(columns, indices, records) -> None:
    """Append the selected cells of csv ``records`` to ``columns``, blank
    ones dropped."""
    cells = map(operator.itemgetter(*indices), filter(None, records))
    for column, part in zip(columns, zip(*cells) if len(columns) > 1 else [cells]):
        column.extend(map(float, part))


def _columns_in_bulk(path, selectors, has_header) -> list[list[float]]:
    """The selected columns, converted a block at a time with no Python code
    per line or cell: each block, its CRLF ends made LF, by ``str.split``
    when it is plain, and as read by the csv module when it is not (see
    :func:`read_csv`); any fault raises whatever exception met it."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        records, _, indices = _data_records(reader, path, selectors, has_header)
        columns: list[list[float]] = [[] for _ in indices]
        if records is not reader:  # the first record is data
            _extend_from_records(columns, indices, itertools.islice(records, 1))
        last, limit = max(indices), csv.field_size_limit()
        for raw in iter(lambda: fh.read(_HINT), ""):
            if raw[-1] != "\n":  # the read stopped inside a line
                raw += fh.readline()
            text = raw if raw[-1] == "\n" else raw + "\n"  # the file's last line
            # only a block holding a "\r" has CRLF ends to make LF; a "\r"
            # left after that is a lone CR
            lone_cr = "\r" in text and "\r" in (text := text.replace("\r\n", "\n"))
            width = text.count(",", 0, text.index("\n")) + 1
            # plain: the csv module would split every line at every comma
            # and raise on none, and every record holds every selected index;
            # a text within the field limit has no line beyond it
            if not ('"' in text or lone_cr or "\x00" in text or last >= width
                    or len(text) > limit and max(map(len, text.split("\n"))) > limit):
                # each line's "\n" becomes a cell of its own, so every line
                # holds width cells exactly when the "\n" cells fall at every
                # (width + 1)-th place, the last followed by one empty cell;
                # a blank line breaks that for every width but 1, where it is
                # an empty cell
                n, cells = text.count("\n"), text.replace("\n", ",\n,").split(",")
                if (len(cells) == n * (width + 1) + 1
                        and cells[width::width + 1].count("\n") == n
                        and (width > 1 or cells.count("") == 1)):
                    for column, idx in zip(columns, indices):
                        column.extend(map(float, cells[idx:-1:width + 1]))
                    continue
            # any other block, a blank line in it included, goes as read to
            # the csv module on its own; strict mode raises on a quoted cell
            # still open at the block's end
            records = csv.reader(StringIO(raw, newline=""), strict=True)
            _extend_from_records(columns, indices, records)
    return columns


def _columns_by_row(path, selectors, has_header) -> list[list[float]]:
    """The selected columns, read one record and one cell at a time; the
    first fault in file order raises a ValueError naming its row and
    column, or the reader's line for a record the csv module rejects."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            records, start, indices = _data_records(reader, path, selectors, has_header)
            labels = [repr(s) for s in selectors]
            columns: list[list[float]] = [[] for _ in selectors]
            for row_no, record in enumerate(records, start=start):
                if not record:
                    continue
                for slot, (idx, label) in enumerate(zip(indices, labels)):
                    if idx >= len(record):
                        raise ValueError(
                            f"{path}: row {row_no} has {len(record)} cell(s), "
                            f"column {label} needs index {idx}")
                    cell = record[idx].strip()
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ValueError(
                            f"{path}: row {row_no}, column {label}: "
                            f"cannot parse {cell!r} as a number") from None
                    if not math.isfinite(value):
                        raise ValueError(
                            f"{path}: row {row_no}, column {label}: non-finite value {cell!r}")
                    columns[slot].append(value)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return columns


def read_csv(path, selectors: Sequence[ColumnSelector],
             has_header: bool | None = None, dx: float = 1.0) -> list[Signal]:
    """Read one Signal per selected column, all sharing the spacing ``dx``.

    The file is read as UTF-8; a leading byte order mark is dropped, so it
    is part of neither the first cell nor the first header name.
    Selectors are 0-based column indices or header names; names require a
    header row.  With has_header=None the header is detected: any name
    selector implies a header, and for pure index selectors the first row
    counts as data exactly when all its selected cells parse as numbers.
    Fully empty rows are skipped, before the first row as anywhere else, and
    are counted in row numbers, so a file of empty rows only is empty;
    short (ragged) rows, blank cells, and unparseable or non-finite cells
    raise with the offending row number; a record the csv module rejects
    raises with the reader's line number.

    The parameters are checked before the file is opened, so a bad one is
    reported ahead of a missing file or a bad cell: ``selectors`` must be
    an ordered collection that is not text (so ``"xy"`` is refused, not
    read as the names ``x`` and ``y``), each selector a name or an int of
    at least 0 (not a bool), ``has_header`` None or a bool, and ``dx`` a
    positive finite real.

    The rows up to the first that is not empty are parsed by the csv module,
    and the rest of the file is read in blocks: 32,768 characters, completed
    to the end of the last line, and each block is read by one rule.  When
    it holds a ``\\r``, its ``\\r\\n`` line ends are first made ``\\n``.
    The block is then *plain* when it holds no ``"``, ``\\r``, NUL or blank
    line, no line longer than ``csv.field_size_limit()``, and the same
    number of commas on every line, enough for every selected index: the csv
    module would then split each line at each comma, so the block is split
    by one ``str.split``, each line's ``\\n`` a cell of its own, and each
    column taken with a stride.  Any other block, one with a blank line
    included, goes as read to the csv module on its own, in strict mode, its
    blank records dropped and each selected cell picked by one
    ``operator.itemgetter``; the next block is tried for the plain split
    again.  A block starts at a record's start, and strict mode only adds
    errors, so its records are those of the whole file; strict mode raises
    on a quoted cell still open at the block's end.  Either way no Python
    code runs per line or cell, and memory does not grow with the file
    beyond the columns kept and one block.  ``float`` ignores the
    surrounding whitespace that ``str.strip`` removes, so the values are
    those of ``float(cell.strip())``, and :class:`Signal` is the only
    finiteness check.  Any fault on that path (a short row, a cell ``float``
    rejects, a non-finite value, an empty column, a csv error) reruns the
    whole file through the row-by-row reference loop, which raises the first
    fault in file order with its row and column.  That loop can also
    succeed: ``float`` rejects a cell padded with the ASCII separators
    U+001C..U+001F, which ``str.strip`` removes, so such a file is read by
    the fallback.
    """
    selectors = [*map(_column, _sequence(selectors, "column selectors must be a sequence"))]
    if not selectors:
        raise ValueError("at least one column selector is required")
    if has_header is not None and type(has_header) is not bool:
        raise ValueError(f"has_header must be None, True or False, got {_shown(has_header)}")
    dx = _spacing(dx)
    try:
        return [Signal(col, dx) for col in _columns_in_bulk(path, selectors, has_header)]
    except (IndexError, ValueError, csv.Error):
        columns = _columns_by_row(path, selectors, has_header)
    if not columns[0]:
        raise ValueError(f"{path}: no data rows")
    return [Signal(col, dx) for col in columns]


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    """Write a header line of column names, then one line per row with each
    number formatted by :func:`fmt`, under the output rule of
    :func:`_outputs`."""
    with _outputs((path, "w")) as (fh,):
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(fmt, row)) + "\n")


def _memo_cap(xs: tuple[float, ...]) -> int:
    """The memo's cap before its first row; each row offered to it raises
    the cap by 2.  A row of a min/max surface holds only 0, +-|x| for the
    grid's x and +-|y| for its own y, so k such rows hold at most this
    plus 2*k distinct values, and a whole field at most 2*(nx + ny) + 1."""
    return 2 * len(set(map(abs, xs))) + 1


def _from_memo(memo: dict, row: tuple, cap: int) -> tuple | None:
    """The :func:`fmt` text of each value of ``row``, from ``memo``.  The
    row's new values are first formatted together by one :func:`_texts`
    call and added; when that would take ``memo`` past ``cap`` entries,
    return None and add nothing."""
    try:
        return tuple(map(memo.__getitem__, row))
    except KeyError:
        new = tuple(set(row).difference(memo))
        if len(memo) + len(new) > cap:
            return None
        memo.update(zip(new, _texts(new).split("\n")))
        return tuple(map(memo.__getitem__, row))


def _texts(new: tuple) -> str:
    """The :func:`fmt` text of each value, one a line, all formatted by one
    ``%``."""
    return "\n".join(["%.17g"] * len(new)) % new


# byte b's top bit, 0 or 1: in byte 7 of a little-endian double, the sign
_SIGN_BIT = bytes(b >> 7 for b in range(256))


def _csv_row_writer(fh, xs: tuple[float, ...]):
    """Write the "x,y,value" header to ``fh`` and return ``write(y, row)``,
    which writes one row's lines.

    Lines come from per-file ``%`` templates split at the y slot
    (``\\x00``; no :func:`fmt` output contains it or ``%``).  While a
    memo holds no more distinct values than a min/max surface can have
    (2*(nx + ny) + 1 at most; see :func:`_memo_cap`), each value is
    formatted once and a row is written by a ``%s`` template from the memo.
    A float key cannot tell -0.0 from 0.0, so a row holding -0.0 never
    goes to the memo; the test, on each value's sign-and-exponent byte,
    also keeps rows holding a negative above -2**-1007 from it.

    Every other row whose magnitudes mirror (with h = nx // 2, the value at
    nx-1-i has the magnitude of the value at i for i < h, as in every row
    of ``jr``, ``jrpow`` and ``a3`` on a range symmetric about zero)
    formats the magnitudes of its right half and centre, and its left half
    takes the same texts, reversed.  They fill a template whose cells print
    a literal ``-`` first wherever the value's sign bit is set, rebuilt only
    when a row's sign bits differ from the last's.  ``fmt(v) == "-" +
    fmt(-v)`` holds for every v with its sign bit set (-0.0, -inf and
    subnormals included) but NaN, whose text has no sign; a NaN never
    equals a magnitude, so only a NaN at the centre is formatted.  A row
    holding one, and every row whose magnitudes do not mirror, is formatted
    by the ``%.17g`` template, one ``%`` a row.

    Those texts are a function of the half's magnitudes alone, so they are
    kept under those magnitudes packed as doubles: the same bytes are the
    same floats, which print the same texts.  A mirrored row takes its
    half's texts from there when they are kept, and formats them
    otherwise; the first rows without a NaN to format theirs keep them, as
    many as ``_KEPT`` bytes cover at 32 a value, and nothing is dropped,
    so memory stays O(nx + ny) beside that budget.  Every surface is the
    sign product times a function of |x| and |y|, so on a range symmetric
    about zero the rows above the centre take the texts of their y mirrors
    below it.
    """
    nx = len(xs)
    h = nx // 2  # at least 1: a grid has nx >= 2
    heads = [f"{fmt(x)},\x00," for x in xs]

    def template(cell: Sequence[str]) -> list[str]:
        """The lines, value i printed by ``cell[i]``, split at the y slot."""
        return "".join(map(operator.add, heads, cell)).split("\x00")

    direct = template(["%.17g\n"] * nx)
    memoised = template(["%s\n"] * nx)
    # little-endian doubles: byte 7 of each holds the sign (its top bit) and
    # the top of the exponent, 0x80 for -0.0 and for negatives above -2**-1007
    pack = struct.Struct(f"<{nx}d").pack
    pack_half = struct.Struct(f"<{nx - h}d").pack
    bits, signed = bytes(nx), memoised  # no sign bit set: every cell "%s"
    memo: dict | None = {}
    cap = _memo_cap(xs)
    kept: dict[bytes, str] = {}  # packed magnitudes of a half -> their texts
    room = _KEPT // (32 * (nx - h))

    def write(y: float, row: Sequence[float]) -> None:
        nonlocal memo, cap, bits, signed
        tops = pack(*row)[7::8]
        if memo is not None and 0x80 not in tops:
            cap += 2
            texts = _from_memo(memo, row, cap)
            if texts is not None:
                fh.write(fmt(y).join(memoised) % texts)
                return
            memo = None
        mags = tuple(map(abs, row))
        if mags[:h] == mags[:nx - h - 1:-1]:
            key = pack_half(*mags[h:])
            text = kept.get(key) or _texts(mags[h:])
            if "nan" not in text:
                if len(kept) < room:
                    kept[key] = text
                if (now := tops.translate(_SIGN_BIT)) != bits:
                    bits, signed = now, template([("%s\n", "-%s\n")[b] for b in now])
                done = text.split("\n")
                fh.write(fmt(y).join(signed) % tuple(done[:-h - 1:-1] + done))
                return
        fh.write(fmt(y).join(direct) % tuple(row))  # ``%`` needs a tuple

    fh.write("x,y,value\n")
    return write


def _rows(fld: ScalarField):
    """The field's rows, y from y_min upward, as slices of its values."""
    nx, values = fld.spec.nx, fld.values
    return (values[i:i + nx] for i in range(0, len(values), nx))


def write_field_csv(fld: ScalarField, path) -> None:
    """Write "x,y,value" lines, one per cell, in row-major order (y from
    y_min upward, x from x_min upward within each row), every number as
    :func:`fmt` prints it (signed zeros as ``-0``): :func:`export_field`
    without a heatmap.
    """
    export_field(fld.spec, _rows(fld), path)


@dataclass(frozen=True)
class HeatmapRange:
    """Grayscale mapping range: lo renders black, hi renders white.  Both
    levels must be real numbers, not text or bools, and are stored as
    floats; they and the width ``hi - lo`` must be finite, so that every
    pixel is a finite fraction of the width."""

    lo: float
    hi: float

    def __post_init__(self):
        for name in ("lo", "hi"):
            level = _real(getattr(self, name), "heatmap levels must be real numbers")
            object.__setattr__(self, name, level)
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"need finite lo < hi, got {self.lo!r}, {self.hi!r}")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"need a finite width hi - lo, got {self.lo!r}, {self.hi!r}")


def _pgm_row_renderer(rng: HeatmapRange):
    """Return ``render(row)``, the bytes of one row's pixels.

    pixel = round(255 * clamp((v - lo)/(hi - lo), 0, 1)), with halves
    rounded away from zero (so the midpoint value maps to 128), as
    ``math.floor(255.0 * t + 0.5)``; a NaN raises ValueError.

    A row is first rendered with no clamp: inside [lo, hi] the two rules
    compute the same expression, and just outside it ``floor`` gives 0 or
    255, as the clamp does.  Only a row holding a pixel outside 0..255,
    which ``bytes`` refuses, or a NaN or inf, which ``floor`` refuses, is
    rendered again through the clamp, which raises on a NaN.

    With h = nx // 2, a row whose left h values equal its right h values
    in reverse, as every row of ``a2``, ``a4``, ``a5`` and an even
    ``jrpow`` does on a range symmetric about zero, renders its centre and
    right half and takes its left half from them, reversed.  ``==`` takes
    -0.0 for 0.0, which renders the same pixel, and a NaN never equals
    itself, so such a row is rendered whole (or, compared as the same
    object, has it in its right half too) and still raises.
    """
    lo = rng.lo
    span = rng.hi - lo
    floor = math.floor

    def pixels(row: Sequence[float]) -> bytes:
        try:
            return bytes([floor(255.0 * ((v - lo) / span) + 0.5) for v in row])
        except (ValueError, OverflowError):
            return bytes([0 if t < 0.0 else 255 if t > 1.0 else floor(255.0 * t + 0.5)
                          for v in row for t in [(v - lo) / span]])

    def render(row: Sequence[float]) -> bytes:
        h = len(row) // 2
        # the ends first: a row that does not mirror seldom has equal
        # ends, and is then told by one comparison, with no slices
        if row[0] == row[-1] and row[:h] == row[:len(row) - h - 1:-1]:
            right = pixels(row[h:])
            return right[:-h - 1:-1] + right
        return pixels(row)

    return render


def write_pgm(fld: ScalarField, rng: HeatmapRange, path) -> None:
    """Render the field as a binary 8-bit PGM (P5), the top image row the
    y_max row: :func:`export_field` without a CSV.  A NaN raises
    ValueError and leaves no new file.
    """
    export_field(fld.spec, _rows(fld), None, path, rng)


def _lstat(path):
    """``os.lstat(path)``, or None for a name that does not exist."""
    try:
        return os.lstat(path)
    except FileNotFoundError:
        return None


def _located(path) -> str:
    """``path`` with its directory resolved and its last name kept, so a
    symlink is named where it lies but not followed."""
    head, tail = os.path.split(path)
    return os.path.join(os.path.realpath(head), tail)


def _regular_target(path, st):
    """The regular file an output named ``path`` (``st`` its lstat) writes
    to, and its stat: ``path`` itself when it is one, or the end of its
    chain of symlinks, followed hop by hop with ``os.readlink``, when that
    is a regular file and neither a link of the chain nor its end lies under
    ``/proc/``.  Otherwise None.  ``/dev/stdout`` leads through
    ``/proc/self/fd/1`` to whatever stdout is, and renaming over a file
    stdout was redirected to would lose the process's other output.
    """
    if stat.S_ISLNK(st.st_mode):
        try:
            path = _located(path)
            for _ in range(40):  # Linux's own limit on links in one lookup
                if path.startswith("/proc/"):
                    return None
                st = _lstat(path)
                if st is None or not stat.S_ISLNK(st.st_mode):
                    break
                path = _located(os.path.join(os.path.dirname(path), os.readlink(path)))
        except OSError:  # a chain that open() fails on, with its own message
            return None
    return (path, st) if st is not None and stat.S_ISREG(st.st_mode) else None


@contextlib.contextmanager
def _outputs(*outputs):
    """Open each output, given as ``(path, mode)`` with a mode that writes
    a whole file (``"w"`` or ``"wb"``; text is UTF-8 with ``"\\n"`` line
    ends), and yield the list of their file objects, None for a None path.
    This is the only code in msetsim that opens a file for writing.

    Every name is looked up before any is opened.  A name that leads to a
    regular file (see :func:`_regular_target`) is written under a temporary
    name in that file's directory, with the file's permission bits, and
    renamed over it once the ``with`` body has finished and every output is
    closed: the file gets a new inode, a symlink stays a symlink, and a
    failure keeps the old bytes.  Any other name is opened as given: a new
    one, or a device, a FIFO, or a symlink to one of them or into
    ``/proc/`` such as ``/dev/stdout``, which is never renamed over or
    removed.  Two names of one regular file raise ValueError, before any
    output is opened when both exist, and otherwise once all are open.  On
    any exception, the outputs this call created and its temporary files
    are removed.
    """
    names = [path for path, _ in outputs if path is not None]
    _require_distinct(names)
    found = [None if path is None else _lstat(path) for path, _ in outputs]
    created: list = []
    staged: list[tuple[str, object]] = []
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for (path, mode), st in zip(outputs, found):
                if path is None:
                    handles.append(None)
                    continue
                kwargs = {} if "b" in mode else {"newline": "", "encoding": "utf-8"}
                if st is None:
                    created.append(path)
                elif (target := _regular_target(path, st)) is not None:
                    target, st = target
                    path, tmp = tempfile.mkstemp(prefix=".msetsim-", suffix=".tmp",
                                                 dir=os.path.dirname(target) or ".")
                    staged.append((tmp, target))
                    os.fchmod(path, stat.S_IMODE(st.st_mode))
                handles.append(stack.enter_context(open(path, mode, **kwargs)))
            _require_distinct(names)
            yield handles
        for tmp, target in staged:
            os.replace(tmp, target)
    except BaseException:
        for p in filter(os.path.lexists, created + [tmp for tmp, _ in staged]):
            os.remove(p)
        raise


def _require_distinct(names) -> None:
    """Raise ValueError when two of ``names`` lead to one regular file.
    Only :func:`export_field` opens two outputs, so the message names its
    CSV and heatmap."""
    for first, later in itertools.combinations(names, 2):
        try:
            st = os.stat(first)
            same = stat.S_ISREG(st.st_mode) and os.path.samestat(st, os.stat(later))
        except (OSError, ValueError):  # a name that does not exist, as os.path.isfile
            continue
        if same:
            raise ValueError(f"the field CSV and its heatmap are one file: {later}")


def export_field(spec: GridSpec, rows: Iterable[Sequence[float]], path,
                 pgm_path=None, rng: HeatmapRange | None = None) -> None:
    """Write the field CSV to ``path`` (none when it is None) and, when
    ``pgm_path`` is given, its heatmap scaled by ``rng``, in one pass over
    ``rows``: the field's rows in row-major order, as
    :func:`msetsim.fields.field_rows` yields them.

    Each row is written to the CSV by :func:`_csv_row_writer` and
    rendered to its nx pixels by :func:`_pgm_row_renderer` as it comes,
    and the image is written after the CSV, so memory is one row, the
    nx*ny-byte image, the CSV writer's memo and the half-row texts it
    keeps, at most ``_KEPT`` bytes.  Both files are opened before the
    first row, under the output rule of :func:`_outputs`: a failed export
    leaves an existing output's old bytes and no new file.  A heatmap with
    an ``rng`` that is not a :class:`HeatmapRange`, and a lattice that
    :meth:`~msetsim.fields.GridSpec.xs` or ``ys`` refuses, raise ValueError
    before either is opened.
    """
    if pgm_path is not None and not isinstance(rng, HeatmapRange):
        raise ValueError(f"a heatmap needs a HeatmapRange, got {_shown(rng)}")
    xs, ys = spec.xs(), spec.ys()
    with _outputs((path, "w"), (pgm_path, "wb")) as (fh, pgm):
        write = None if fh is None else _csv_row_writer(fh, xs)
        render = None if pgm is None else _pgm_row_renderer(rng)
        shades = []
        for y, row in zip(ys, rows):
            if write:
                write(y, row)
            if render:
                shades.append(render(row))
        if render:
            if fh:
                fh.flush()  # all of the CSV before the heatmap, as on a shared stream
            header = f"P5\n{spec.nx} {spec.ny}\n255\n".encode("ascii")
            pgm.writelines([header, *reversed(shades)])  # y_max row on top
