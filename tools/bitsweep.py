"""Digest the result bits of msetsim's score functions over a seeded sweep.

Run from a msetsim checkout:

    python tools/bitsweep.py SEED

It imports the package from the ``src`` directory beside this file, so a
checkout of any commit digests its own code.  It prints one line per
family, ``family sha256``, over the results of every call of the family's
functions on the sweep's inputs: each float result as its eight
little-endian IEEE 754 bytes (every NaN as one key, since the sign and
payload of a NaN that an overflow makes are the platform's choice), and
each ``ValueError`` as its message.  The families are:

- ``pairs``: the pair indices (``inner``, ``norm``, ``euclidean``,
  ``cosine``, ``jaccard``, ``jaccard_alt``, ``interiority``,
  ``coincidence`` and ``jaccard_power`` at d = 1, 2, 3) and every field of
  ``report``;
- ``aggregate``: ``aggregate`` for all ten kinds, and
  ``split_intersection`` at alpha 0, 0.3, 0.5, 1 and a drawn alpha;
- ``stats``: ``pearson``, ``double_pearson`` at the same alphas, and
  ``standardize`` of both operands;
- ``slide``: the profile of ``slide`` under all five indices, its scores,
  best lag and flagged lags;
- ``read_csv``: the values ``read_csv`` reads from generated files, and
  its error texts, the file named ``data.csv`` in them.

The inputs are drawn from ``random.Random(SEED)``: operands of 1 to 40
samples and a few of up to 300, at the spacings 1, 0.1 and 1e-300, whose
samples are signed zeros, subnormals, values of every binade, values near
+-1e308, values whose variances come close to overflowing, and values
whose squares or variances fall below the normal range; a second operand
is often the first with its signs flipped, for ties and exact +-1 ratios.
The ``slide`` family draws from ``random.Random(f"{SEED}:slide")``, so
the other three do not depend on it: signals of 1 to 40 samples at the
same spacings, with odd and even lag counts, stretches of zeros, samples
near +-1e308 and subnormals, and templates that are often a slice of the
signal, all zero, or of one sample or the signal's whole length.  The
``read_csv`` family draws from ``random.Random(f"{SEED}:read_csv")``:
files of 1 to 4 columns and up to 25 rows, and a few of up to 1,500 rows
that span several read blocks, with or without a header row, a byte order
mark or a last line end, with LF or CRLF ends, blank lines, quoted and
padded cells, cells at the edges of the float range (signed zeros,
subnormals, +-1e308), and in some files one fault: a short row or a cell
that is not a finite number; each is read by index or name selectors,
with the header detected or given, at the same spacings.

A digest moves only when some result's bits or some error text move, so a
change that must keep every result states that the digests are equal
before and after it, and a change of contract names the families it
moves.  ``tests/test_bitsweep.py`` pins the digests of one seed.
"""

import hashlib
import math
import os
import random
import struct
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from msetsim import indices, stats  # noqa: E402
from msetsim.io import read_csv  # noqa: E402
from msetsim.msetops import MsetOpKind, Signal, aggregate  # noqa: E402
from msetsim.sliding import SlideIndex, slide  # noqa: E402

SPACINGS = (1.0, 0.1, 1e-300)
CASES_PER_SPACING = 2000
SLIDES_PER_SPACING = 300
FILES_PER_SPACING = 200
MAX = sys.float_info.max
SMALL_EDGE = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0, 0.5, -3.0)
HUGE_EDGE = (1e308, -1e308, 1.7e308, -MAX)
ALPHAS = (0.0, 0.3, 0.5, 1.0)
EDGE_TEXTS = ("0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "4.9406564584124654e-324",
              "2.2250738585072014e-308", "-1e-310", "1e308", "-1e308",
              "1.7976931348623157e308", "-1.7976931348623157E+308", "1_000", ".5", "-7.")
FAULTS = ("x", "", " ", "inf", "-inf", "nan", "1e400", "0x10", "--1", "1,5")


def _sample(rng: random.Random, regime: str) -> float:
    """A sample of one of four regimes.  ``plain``: an edge value, a
    subnormal, a small value, or one of any binade whose square is finite.
    ``huge``: a plain sample, or one near +-1e308 or of a binade whose
    square overflows.  ``tiny``: a signed zero, a subnormal, or a value
    whose square falls below the normal range, so variances and sums of
    squares are subnormal.  ``wide``: a plain sample, or one whose square
    lies between 2**978 and 2**1022, so variances come close to
    overflowing."""
    r = rng.random()
    sign = rng.choice((1.0, -1.0))
    if regime == "tiny":
        if r < 0.2:
            return rng.choice(SMALL_EDGE[:4])
        return sign * math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-560, -520))
    if regime == "wide" and r < 0.5:
        return sign * math.ldexp(rng.uniform(0.5, 1.0), rng.randint(490, 511))
    if regime == "huge" and r < 0.25:
        if r < 0.1:
            return rng.choice(HUGE_EDGE)
        if r < 0.2:
            return sign * rng.uniform(1e307, MAX)
        return sign * min(math.ldexp(rng.uniform(0.5, 1.0), rng.randint(512, 1024)), MAX)
    r = rng.random()
    if r < 0.2:
        return rng.choice(SMALL_EDGE)
    if r < 0.3:
        return sign * rng.randint(1, 2**52 - 1) * 5e-324
    if r < 0.7:
        return sign * rng.uniform(0.0, 10.0)
    return sign * math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1074, 500))


def _operands(rng: random.Random) -> tuple[list, list]:
    n = rng.randint(1, 300) if rng.random() < 0.03 else rng.randint(1, 40)
    regimes = rng.choice((("plain", "plain"), ("huge", "plain"), ("huge", "huge"),
                          ("tiny", "tiny"), ("tiny", "plain"), ("plain", "huge"),
                          ("wide", "wide"), ("wide", "plain")))
    fv = [_sample(rng, regimes[0]) for _ in range(n)]
    if rng.random() < 0.3:
        gv = [rng.choice((1.0, -1.0)) * v for v in fv]
    else:
        gv = [_sample(rng, regimes[1]) for _ in range(n)]
    return fv, gv


def _slide_operands(rng: random.Random) -> tuple[list, list]:
    """A signal and a template no longer than it."""
    n = rng.randint(1, 40)
    regime = rng.choice(("plain", "huge", "tiny", "wide"))
    sv = [_sample(rng, regime) for _ in range(n)]
    if rng.random() < 0.3:  # a stretch of signed zeros
        lo = rng.randrange(n)
        for i in range(lo, rng.randint(lo + 1, n)):
            sv[i] = rng.choice((0.0, -0.0))
    m = rng.choice((1, n, max(1, n - 1), rng.randint(1, n), rng.randint(1, min(n, 8))))
    r = rng.random()
    if r < 0.3:
        lo = rng.randint(0, n - m)
        tv = [rng.choice((1.0, -1.0, 0.5)) * v for v in sv[lo:lo + m]]
    elif r < 0.4:
        tv = [rng.choice((0.0, -0.0)) for _ in range(m)]
    else:
        tv = [_sample(rng, rng.choice(("plain", regime))) for _ in range(m)]
    return sv, tv


def _cell(rng: random.Random, odd: float) -> str:
    """A cell's text: an edge value, a sample as ``repr`` or ``%.17g`` prints
    it, an int or a short exponent form; with chance ``odd`` padded with
    whitespace (or rarely a U+001F, which ``float`` refuses and
    ``str.strip`` removes), and with chance ``odd`` quoted."""
    r = rng.random()
    if r < 0.25:
        text = rng.choice(EDGE_TEXTS)
    elif r < 0.5:
        text = repr(_sample(rng, "plain"))
    elif r < 0.75:
        text = "%.17g" % _sample(rng, rng.choice(("plain", "huge", "tiny")))
    elif r < 0.9:
        text = str(rng.randint(-10**6, 10**6))
    else:
        text = f"{rng.uniform(-1.0, 1.0):.3e}"
    r = rng.random()
    if r < odd:
        text = rng.choice((" ", "\t", "  ")) + text + rng.choice(("", " ", "\t"))
    elif r < odd * 1.05:
        text = "\x1f" + text
    return f'"{text}"' if rng.random() < odd else text


def _csv_file(rng: random.Random) -> tuple[str, list, object]:
    """The text of a CSV file, the selectors to read it by, and has_header."""
    width = rng.randint(1, 4)
    n = rng.randint(1, 1500) if rng.random() < 0.03 else rng.randint(0, 25)
    names = rng.sample(("a", "b", "c", "x y", " d "), width)
    if rng.random() < 0.1:  # a name twice
        names[-1] = names[0]
    odd = rng.choice((0.0, 0.0, 0.1))
    records = [[_cell(rng, odd) for _ in range(width)] for _ in range(n)]
    if records and rng.random() < 0.3:  # one fault: a bad cell or a short row
        record = rng.choice(records)
        if rng.random() < 0.5:
            record[rng.randrange(width)] = rng.choice(FAULTS)
        else:
            del record[rng.randrange(width):]
    lines = [",".join(r) for r in records]
    header = rng.random() < 0.5
    if header:
        lines.insert(0, ",".join(names))
    for _ in range(rng.choice((0, 0, 0, 1, 3))):
        lines.insert(rng.randint(0, len(lines)), "")
    end = rng.choice(("\n", "\r\n"))
    text = end.join(lines) + (end if rng.random() < 0.8 else "")
    if rng.random() < 0.15:
        text = "\ufeff" + text
    # a name, mostly of a file with a header, or an index, at times past
    # the last column
    named = 0.4 if header else 0.03
    selectors = [rng.choice(names).strip() if rng.random() < named
                 else rng.randint(0, width if rng.random() < 0.1 else width - 1)
                 for _ in range(rng.randint(1, 3))]
    return text, selectors, rng.choice((None, None, header, not header))


def _read(path: str, selectors: list, has_header, dx: float) -> tuple:
    """The values ``read_csv`` reads, every column's in turn; its
    ValueError names the file ``data.csv``, wherever it lies."""
    try:
        return tuple(v for s in read_csv(path, selectors, has_header, dx) for v in s.values)
    except ValueError as err:
        raise ValueError(str(err).replace(path, "data.csv")) from None


def _put(digest, call) -> None:
    """Add the outcome of ``call()`` to ``digest``: a float or a tuple of
    floats by their bits, a ValueError by its message."""
    try:
        result = call()
    except ValueError as err:
        digest.update(b"E" + str(err).encode() + b"\0")
        return
    for v in result if isinstance(result, tuple) else (result,):
        digest.update(b"nan" if math.isnan(v) else struct.pack("<d", v))


def digests(seed: int) -> dict[str, str]:
    """The sha256 of each family over the sweep drawn from ``seed``."""
    rng = random.Random(seed)
    pairs, aggs, stat = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for dx in SPACINGS:
        for _ in range(CASES_PER_SPACING):
            fv, gv = _operands(rng)
            f, g = Signal(fv, dx), Signal(gv, dx)
            alphas = ALPHAS + (rng.random(),)
            for fn in (indices.inner, indices.euclidean, indices.cosine, indices.jaccard,
                       indices.jaccard_alt, indices.interiority, indices.coincidence):
                _put(pairs, lambda: fn(f, g))
            _put(pairs, lambda: indices.norm(f))
            for d in (1, 2, 3):
                _put(pairs, lambda: indices.jaccard_power(f, g, d))
            _put(pairs, lambda: tuple(vars(indices.report(f, g)).values()))
            for kind in MsetOpKind:
                _put(aggs, lambda: aggregate(kind, f, g))
            for a in alphas:
                _put(aggs, lambda: indices.split_intersection(f, g, a))
            _put(stat, lambda: stats.pearson(f, g))
            for a in alphas:
                _put(stat, lambda: tuple(stats.double_pearson(f, g, a)))
            for v in (f, g):
                _put(stat, lambda: stats.standardize(v).values)
    slides, rng = hashlib.sha256(), random.Random(f"{seed}:slide")
    for dx in SPACINGS:
        for _ in range(SLIDES_PER_SPACING):
            sv, tv = _slide_operands(rng)
            for index in SlideIndex:
                profile = slide(Signal(tv, dx), Signal(sv, dx), index)
                _put(slides, lambda: profile.scores)
                slides.update(f"{profile.best_lag}{profile.degenerate_lags}".encode())
    reads, rng = hashlib.sha256(), random.Random(f"{seed}:read_csv")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        for dx in SPACINGS:
            for _ in range(FILES_PER_SPACING):
                text, selectors, has_header = _csv_file(rng)
                with open(path, "w", newline="", encoding="utf-8") as fh:
                    fh.write(text)
                _put(reads, lambda: _read(path, selectors, has_header, dx))
    return {"pairs": pairs.hexdigest(), "aggregate": aggs.hexdigest(),
            "stats": stat.hexdigest(), "slide": slides.hexdigest(),
            "read_csv": reads.hexdigest()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].isdigit():
        print("usage: python tools/bitsweep.py SEED", file=sys.stderr)
        return 2
    for family, digest in digests(int(args[0])).items():
        print(family, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
