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
  ``standardize`` of both operands.

The inputs are drawn from ``random.Random(SEED)``: operands of 1 to 40
samples and a few of up to 300, at the spacings 1, 0.1 and 1e-300, whose
samples are signed zeros, subnormals, values of every binade, values near
+-1e308, values whose variances come close to overflowing, and values
whose squares or variances fall below the normal range; a second operand is often the first with its signs flipped, for
ties and exact +-1 ratios.  A digest moves only when some result's bits or
some error text move, so a change that must keep every result states that
the digests are equal before and after it, and a change of contract names
the families it moves.  ``tests/test_bitsweep.py`` pins the digests of one
seed.
"""

import hashlib
import math
import random
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from msetsim import indices, stats  # noqa: E402
from msetsim.msetops import MsetOpKind, Signal, aggregate  # noqa: E402

SPACINGS = (1.0, 0.1, 1e-300)
CASES_PER_SPACING = 2000
MAX = sys.float_info.max
SMALL_EDGE = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0, 0.5, -3.0)
HUGE_EDGE = (1e308, -1e308, 1.7e308, -MAX)
ALPHAS = (0.0, 0.3, 0.5, 1.0)


def _sample(rng: random.Random, regime: str) -> float:
    """A sample of one of three regimes.  ``plain``: an edge value, a
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
    return {"pairs": pairs.hexdigest(), "aggregate": aggs.hexdigest(),
            "stats": stat.hexdigest()}


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
