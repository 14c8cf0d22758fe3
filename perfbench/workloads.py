"""The benchmark's three workloads.

Each workload turns a seed into a fixed pool of requests, runs one request
through msetsim's public API, and checks the output against the naive
oracles in ``tests/oracles.py`` and against laws the paper states.  The
pool's shape (sizes, index mix, grid sizes, thread counts) is the same for
every seed, so run time does not depend on the seed; the seed draws every
sample value, planted lag, scale factor, alpha, power and grid range.
"""

import dataclasses
import hashlib
import math
import os
import random
from array import array
from dataclasses import dataclass

REL_TOL = 1e-12
CSV_FORMAT = ".17g"  # the field CSV's documented number format: 17 significant digits


@dataclass(frozen=True)
class Request:
    key: int        # pool slot: requests with one key take the same input
    samples: int    # sample pairs the request scores
    params: dict


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _bits(values) -> bytes:
    """The IEEE 754 bytes of a float sequence, so that -0.0 and 0.0 differ."""
    return array("d", values).tobytes()


class MatchScan:
    """Template matching with ``slide``: exact copy and ``c * template``
    planted at known lags, plus a zero stretch that makes whole windows
    degenerate for pearson and cosine."""

    name = "match_scan"
    # (template length, signal length, {index: requests}); the two min/max
    # indices the paper introduces take most of the time, short templates
    # most of the requests
    SLOTS = (
        (16, 1024, {"jaccard": 10, "coincidence": 8, "pearson": 9, "cosine": 10, "inner": 10}),
        (32, 1024, {"jaccard": 5, "coincidence": 4, "pearson": 5, "cosine": 5, "inner": 5}),
        (64, 1024, {"jaccard": 2, "coincidence": 2, "pearson": 3, "cosine": 3, "inner": 3}),
        (128, 768, {"jaccard": 1, "coincidence": 1, "pearson": 2, "cosine": 2, "inner": 2}),
        (256, 800, {"jaccard": 1, "coincidence": 1, "pearson": 2, "cosine": 2, "inner": 2}),
    )
    ZERO_PAD = 8  # the zero stretch is this much longer than the template

    def __init__(self, oracles):
        self.o = oracles

    def pool(self, seed: int, workdir: str) -> list[Request]:
        rng = random.Random(f"{self.name}:{seed}")
        reqs = []
        for m, n, mix in self.SLOTS:
            for index in (name for name, count in mix.items() for _ in range(count)):
                tv = [rng.uniform(0.25, 5.0) * rng.choice((-1.0, 1.0)) for _ in range(m)]
                sv = [rng.uniform(-10.0, 10.0) for _ in range(n)]
                c = rng.uniform(1.5, 3.0)
                blocks = [("copy", m), ("scaled", m), ("zero", m + self.ZERO_PAD)]
                rng.shuffle(blocks)
                free = n - sum(size for _, size in blocks)
                cuts = sorted(rng.randint(0, free) for _ in blocks)
                at = {}
                pos = 0
                for (kind, size), cut, prev in zip(blocks, cuts, [0] + cuts[:-1]):
                    pos += cut - prev
                    at[kind] = pos
                    pos += size
                sv[at["copy"]:at["copy"] + m] = tv
                sv[at["scaled"]:at["scaled"] + m] = [c * v for v in tv]
                sv[at["zero"]:at["zero"] + m + self.ZERO_PAD] = [0.0] * (m + self.ZERO_PAD)
                reqs.append(Request(len(reqs), (n - m + 1) * m, {
                    "index": index, "template": tuple(tv), "signal": tuple(sv), "c": c,
                    "copy_lag": at["copy"], "scaled_lag": at["scaled"],
                    "zero_lag": at["zero"]}))
        return reqs

    def warm(self, lib, calls, workdir: str) -> None:
        rng = random.Random(0)
        t = lib.Signal(tuple(rng.uniform(-1, 1) for _ in range(8)))
        s = lib.Signal(tuple(rng.uniform(-1, 1) for _ in range(64)))
        for index in lib.SlideIndex:
            calls["slide"](t, s, index)

    def prepare(self, lib, req: Request):
        p = req.params
        return (lib.Signal(p["template"]), lib.Signal(p["signal"]),
                lib.SlideIndex(p["index"]))

    def run(self, calls, args):
        return calls["slide"](*args)

    def digest(self, req, profile):
        return hashlib.sha256(repr(profile).encode()).digest()

    def corrupt(self, req, profile):
        return dataclasses.replace(
            profile, scores=(profile.scores[0] + 1.0,) + profile.scores[1:])

    def check(self, req, profile) -> list[str]:
        p = req.params
        index = p["index"]
        lags, scores, best_lag, best_score, flagged = self.o.oslide(
            list(p["template"]), list(p["signal"]), index)
        errs = []
        if (profile.lags, profile.scores, profile.best_lag, profile.best_score,
                profile.degenerate_lags) != (tuple(lags), tuple(scores), best_lag,
                                             best_score, tuple(flagged)):
            errs.append(f"{index}: profile differs from the oracle")
        got = profile.scores
        lc, ls, lz, c = p["copy_lag"], p["scaled_lag"], p["zero_lag"], p["c"]
        if index in ("jaccard", "coincidence"):
            if got[lc] != 1.0 or profile.best_lag != lc:
                errs.append(f"{index}: planted copy at {lc} not found "
                            f"(best lag {profile.best_lag}, score {got[lc]!r})")
            if not _close(got[ls], 1.0 / c):
                errs.append(f"{index}: score {got[ls]!r} at the c*template lag, want 1/c")
        elif index in ("cosine", "pearson"):
            for lag in (lc, ls):
                if not _close(got[lag], 1.0):
                    errs.append(f"{index}: score {got[lag]!r} at planted lag {lag}, want 1")
            inside = set(range(lz, lz + self.ZERO_PAD + 1))
            if not inside <= set(profile.degenerate_lags):
                errs.append(f"{index}: windows inside the zero stretch not flagged")
        elif not _close(got[ls], c * got[lc]):
            errs.append("inner: score at the c*template lag is not c times the copy's")
        return errs


class PairBatch:
    """Pair scoring from CSV: ``read_csv`` then ``report``,
    ``double_pearson``, ``split_intersection`` and ``jaccard_power``."""

    name = "pair_batch"
    # (signal length, requests): lengths log-spread from 64 to 1e5, the
    # count falling about as 1/sqrt(length) so that short pairs make most of
    # the requests and long pairs most of the samples
    LENGTHS = ((64, 40), (145, 26), (327, 17), (739, 12), (1670, 8), (3774, 5),
               (8528, 3), (19270, 1), (43540, 1), (100_000, 1))
    KINDS = ("linear", "branch_mix", "independent")

    def __init__(self, oracles):
        self.o = oracles

    def pool(self, seed: int, workdir: str) -> list[Request]:
        rng = random.Random(f"{self.name}:{seed}")
        reqs = []
        lengths = [n for n, count in self.LENGTHS for _ in range(count)]
        for slot, n in enumerate(lengths):
            kind = self.KINDS[slot % len(self.KINDS)]
            # the check draws the cloud again from its own seed rather than
            # keep every sample in memory for the whole run
            cloud = f"{self.name}:{seed}:{slot}"
            xs, ys = self._cloud(random.Random(cloud), kind, n)
            path = os.path.join(workdir, f"pair{slot}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("x,y\n")
                fh.writelines(f"{x!r},{y!r}\n" for x, y in zip(xs, ys))
            cols = ("x", "y") if slot % 2 else (0, 1)
            reqs.append(Request(slot, n, {
                "path": path, "cols": cols, "kind": kind, "cloud": cloud, "n": n,
                "alpha": rng.random(), "d": rng.randint(1, 6)}))
        return reqs

    @staticmethod
    def _cloud(rng, kind, n):
        if kind == "branch_mix":
            # half the samples on y = x, half on y = -x, in random order
            branch = [1.0, -1.0] * (n // 2) + [1.0] * (n % 2)
            rng.shuffle(branch)
            xs = [rng.uniform(1.0, 2.0) * rng.choice((-1.0, 1.0)) for _ in range(n)]
            ys = [b * x * (1.0 + 0.01 * rng.gauss(0.0, 1.0)) for b, x in zip(branch, xs)]
            return xs, ys
        if kind == "linear":
            a = rng.uniform(-2.0, 2.0)
            b = rng.uniform(-1.0, 1.0)
            xs = [rng.gauss(0.0, 1.0) for _ in range(n)]
            ys = [a * x + b + 0.5 * rng.gauss(0.0, 1.0) for x in xs]
        else:
            xs = [rng.uniform(-3.0, 3.0) for _ in range(n)]
            ys = [rng.uniform(-3.0, 3.0) for _ in range(n)]
        for i in rng.sample(range(n), n // 100):  # exact zeros sit on the sign gates
            xs[i] = 0.0
        return xs, ys

    def warm(self, lib, calls, workdir: str) -> None:
        path = os.path.join(workdir, "warm.csv")
        rng = random.Random(0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y\n")
            for _ in range(64):
                fh.write(f"{rng.uniform(-1, 1)!r},{rng.uniform(-1, 1)!r}\n")
        self.run(calls, (path, (0, 1), 0.5, 3))

    def prepare(self, lib, req: Request):
        p = req.params
        return p["path"], p["cols"], p["alpha"], p["d"]

    def run(self, calls, args):
        path, cols, alpha, d = args
        f, g = calls["read_csv"](path, cols)
        return (f.values, g.values, calls["report"](f, g),
                calls["double_pearson"](f, g, alpha),
                calls["split_intersection"](f, g, alpha),
                calls["jaccard_power"](f, g, d))

    def digest(self, req, result):
        h = hashlib.sha256(_bits(result[0]))
        h.update(_bits(result[1]))
        h.update(repr(result[2:]).encode())
        return h.digest()

    def corrupt(self, req, result):
        rep = result[2]
        return result[:2] + (dataclasses.replace(rep, jaccard=rep.jaccard + 1.0),) + result[3:]

    def check(self, req, result) -> list[str]:
        o = self.o
        p = req.params
        xs, ys = self._cloud(random.Random(p["cloud"]), p["kind"], p["n"])
        fv, gv, rep, dp, si, jp = result
        errs = []
        if _bits(fv) != _bits(xs) or _bits(gv) != _bits(ys):
            errs.append("read_csv values differ from the values written")
        want = {
            "jaccard": o.ojaccard(xs, ys), "interiority": o.ointeriority(xs, ys),
            "coincidence": o.ocoincidence(xs, ys), "cosine": o.ocosine(xs, ys),
            "inner": o.oinner(xs, ys), "norm_f": o.onorm(xs), "norm_g": o.onorm(ys),
            "euclidean": o.oeuclidean(xs, ys)}
        for field, value in want.items():
            if getattr(rep, field) != value:
                errs.append(f"report.{field} {getattr(rep, field)!r} != oracle {value!r}")
        n = len(xs)
        zx = self._standardized(xs)
        zy = self._standardized(ys)
        plus, minus = o.osplit_inner(zx, zy)
        a = p["alpha"]
        p_plus, p_minus = plus / (n - 1), minus / (n - 1)
        want_dp = (p_plus, p_minus, 2.0 * a * p_plus + 2.0 * (1.0 - a) * p_minus)
        if tuple(dp) != want_dp:
            errs.append(f"double_pearson {tuple(dp)!r} != oracle {want_dp!r}")
        if not _close(dp.p_plus + dp.p_minus, o.opearson(xs, ys), 1e-9):
            errs.append("double Pearson parts do not recombine to Pearson at alpha 0.5")
        if p["kind"] == "branch_mix" and not dp.p_minus < -0.3:
            errs.append(f"branch-mix cloud has p_minus {dp.p_minus!r}, want strongly negative")
        if si != o.osplit_intersection(xs, ys, a):
            errs.append("split_intersection differs from the oracle")
        if jp != o.ojaccard_power(xs, ys, p["d"]):
            errs.append("jaccard_power differs from the oracle")
        return errs

    def _standardized(self, v):
        m = self.o.omean(v)
        s = math.sqrt(self.o.ovariance(v))
        return [(x - m) / s for x in v]


class SurfaceExport:
    """Surface export through ``msetsim.cli.main(["field", ...])`` with a
    CSV and a PGM output; every grid runs once with one worker thread and
    once with two, and the two runs must write identical bytes."""

    name = "surface_export"
    VARIANTS = (("a1", None), ("a2", None), ("a3", None), ("a5", None),
                ("jr", None), ("jrpow", "odd"), ("jrpow", "even"), ("kron", None))
    # per pass: every variant at 61^2 (three ranges), 81^2 (two ranges) and
    # 101^2, plus a few larger grids up to the CLI's default 401^2
    SMALL = (61, 61, 61, 81, 81, 101)
    LARGE = (("a1", 141), ("kron", 141), ("jr", 401))
    BOUNDED = ("jr", "jrpow", "kron")

    def __init__(self, oracles):
        self.o = oracles

    def pool(self, seed: int, workdir: str) -> list[Request]:
        rng = random.Random(f"{self.name}:{seed}")
        grids = [(v, n) for v in self.VARIANTS for n in self.SMALL]
        grids += [(v, n) for name, n in self.LARGE for v in self.VARIANTS if v[0] == name]
        reqs = []
        for key, ((expr, parity), n) in enumerate(grids):
            power = {None: 1, "odd": rng.choice((1, 3, 5, 7)),
                     "even": rng.choice((2, 4, 6))}[parity]
            r = rng.uniform(0.5, 4.0)
            out = os.path.join(workdir, "field.csv")
            pgm = os.path.join(workdir, "field.pgm")
            for threads in (1, 2):
                argv = ["field", "--expr", expr, "--D", str(power),
                        "--xmin", repr(-r), "--xmax", repr(r),
                        "--ymin", repr(-r), "--ymax", repr(r),
                        "--nx", str(n), "--ny", str(n), "--threads", str(threads),
                        "--out", out, "--pgm", pgm]
                reqs.append(Request(key, n * n, {
                    "argv": argv, "expr": expr, "d": power, "r": r, "n": n,
                    "out": out, "pgm": pgm}))
        return reqs

    def warm(self, lib, calls, workdir: str) -> None:
        out = os.path.join(workdir, "warm")
        for threads in ("1", "2"):
            if calls["cli_main"](["field", "--expr", "jr", "--nx", "21", "--ny", "21",
                                  "--threads", threads, "--out", out + ".csv",
                                  "--pgm", out + ".pgm"]) != 0:
                raise RuntimeError("warm-up field export failed")

    def prepare(self, lib, req: Request):
        return req.params["argv"]

    def run(self, calls, argv):
        return calls["cli_main"](argv)

    def digest(self, req, code):
        digests = [code]
        for path in (req.params["out"], req.params["pgm"]):
            with open(path, "rb") as fh:
                digests.append(hashlib.file_digest(fh, "sha256").digest())
        return tuple(digests)

    def corrupt(self, req, code):
        with open(req.params["pgm"], "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 1]))
        return code

    def check(self, req, code) -> list[str]:
        if code != 0:
            return [f"cli exited with {code}"]
        p = req.params
        n = p["n"]
        axis = self._lattice(-p["r"], p["r"], n)
        text = [format(v, CSV_FORMAT) for v in axis]
        cell = self._oracle_cell(p["expr"], p["d"])
        values = array("d")
        # row by row, so that the check holds no more than the field itself
        with open(p["out"], encoding="utf-8", newline="") as fh:
            if fh.readline() != "x,y,value\n":
                return ["field CSV header is not 'x,y,value'"]
            for y, ty in zip(axis, text):
                for x, tx in zip(axis, text):
                    v = cell(x, y)
                    values.append(v)
                    want = f"{tx},{ty},{format(v, CSV_FORMAT)}\n"
                    got = fh.readline()
                    if got != want:
                        return [f"field CSV row {len(values)} is {got!r}, want {want!r}"]
            if fh.read(1):
                return ["field CSV has rows beyond the grid"]
        errs = []
        if p["expr"] in self.BOUNDED:
            lo, hi = -1.0, 1.0
        else:
            lo, hi = min(values), max(values)
        payload = bytearray()
        for j in range(n - 1, -1, -1):
            for v in values[j * n:(j + 1) * n]:
                t = min(1.0, max(0.0, (v - lo) / (hi - lo)))
                payload.append(int(255.0 * t + 0.5))
        with open(p["pgm"], "rb") as fh:
            if fh.read() != f"P5\n{n} {n}\n255\n".encode("ascii") + bytes(payload):
                errs.append("PGM bytes differ from the oracle rendering")
        return errs

    @staticmethod
    def _lattice(lo, hi, n):
        last = n - 1
        return [lo] + [(lo * (last - i) + hi * i) / last for i in range(1, last)] + [hi]

    def _oracle_cell(self, expr, d):
        k = self.o.okernel

        def jr(x, y):
            den = k("acup", x, y)
            return 0.0 if den == 0.0 else k("scap", x, y) / den

        def jrpow(x, y):
            j = jr(x, y)
            p = abs(j) ** d
            return -p if j < 0 and d % 2 else p

        def kron(x, y):
            if x == y:
                return 1.0 if x != 0 else 0.0
            return -1.0 if x == -y else 0.0

        return {
            "a1": lambda x, y: k("scap", x, y), "a2": lambda x, y: k("acup", x, y),
            "a3": lambda x, y: x * y, "a5": lambda x, y: k("acap", x, y),
            "jr": jr, "jrpow": jrpow, "kron": kron}[expr]


WORKLOADS = {w.name: w for w in (MatchScan, PairBatch, SurfaceExport)}
