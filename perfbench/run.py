"""msetsim benchmark: one closed-loop client in one process per workload.

Run from the repository root:

    python3 perfbench/run.py --workload match_scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` times requests with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs one pass over the request pool, each request
once untraced and once traced, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.  ``--workload all`` runs each workload in a
process of its own and prints every workload's metrics.
"""

import argparse
import gc
import importlib
import importlib.util
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORACLES = ROOT / "tests" / "oracles.py"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the reported metrics
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# Request and set-up times are scaled to a fixed CPU speed: each is divided
# by the mean time of a reference loop run just before and just after it,
# and multiplied by REF_S, that loop's time on an unloaded core (2.0 GHz
# Xeon).  Other processes sharing the core slow both alike, so the scaled
# time keeps the program's cost and drops most of theirs.
REF_ROUNDS = 6
REF_S = 0.0005
MIN_PASSES = 3
WALL_CAP_S = 120.0  # stop early rather than overrun a 180 s limit


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="request time to measure, in whole passes over the pool")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="with --trace 1, also write every span to this file")
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: corrupt the first result before it is checked")
    return ap.parse_args(argv)


def fresh_import():
    """Import msetsim from scratch, as a new user process would."""
    for name in [m for m in sys.modules if m == "msetsim" or m.startswith("msetsim.")]:
        del sys.modules[name]
    lib = importlib.import_module("msetsim")
    importlib.import_module("msetsim.cli")
    return lib


def load_oracles():
    """The naive reference implementations the test suite checks against."""
    spec = importlib.util.spec_from_file_location("msetsim_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def plain_calls(lib):
    return {
        "slide": lib.slide, "read_csv": lib.read_csv, "report": lib.report,
        "split_intersection": lib.split_intersection,
        "jaccard_power": lib.jaccard_power, "double_pearson": lib.double_pearson,
        "cli_main": sys.modules["msetsim.cli"].main,
    }


class Checker:
    """Checks results outside the timed interval and counts the failures.

    The first checked result of a pool slot is compared with the oracles,
    and its digest becomes the slot's verified digest.  Every other result
    of the slot fails unless its digest equals the verified one.  A result
    added with ``check=False`` keeps only its digest until its slot is
    verified."""

    def __init__(self, wl, corrupt: bool):
        self.wl = wl
        self.corrupt = corrupt
        self.verified = {}
        self.waiting = defaultdict(list)
        self.failed = 0
        self.errors = []

    def fail(self, req, why: str) -> None:
        self.failed += 1
        self.errors.append(f"request slot {req.key}: {why}")

    def add(self, req, result, check: bool = True) -> None:
        if self.corrupt:
            result = self.wl.corrupt(req, result)
            self.corrupt = False
        digest = self.wl.digest(req, result)
        if req.key not in self.verified:
            if not check:
                self.waiting[req.key].append(digest)
                return
            errs = self.wl.check(req, result)
            if errs:
                self.fail(req, errs[0])
                return
            self.verified[req.key] = digest
        for seen in [digest] + self.waiting.pop(req.key, []):
            if seen != self.verified[req.key]:
                self.fail(req, "output differs from the slot's verified output")

    def settle(self) -> None:
        """Results whose slot was never verified count as failed."""
        for key, digests in self.waiting.items():
            self.failed += len(digests)
            self.errors.append(f"request slot {key}: {len(digests)} result(s) never verified")
        self.waiting.clear()


_REF_VALUES = tuple(i * 0.37 - 50.0 for i in range(300))


def _ref_cell(x, y):
    return min(abs(x), abs(y)) if x * y > 0 else -max(x, y)


def reference_seconds() -> float:
    """Time a fixed pure-Python loop, the yardstick of the CPU's speed."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(REF_ROUNDS):
        for a, b in zip(_REF_VALUES, _REF_VALUES[1:]):
            acc += _ref_cell(a, b)
    return time.perf_counter() - t0


def timed(fn, *args):
    """Run fn between two reference loops.  Returns (result or exception,
    wall seconds, seconds scaled to the CPU speed at which the reference
    loop takes REF_S)."""
    r0 = reference_seconds()
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a failed request is counted, not fatal
        out = exc
    dt = time.perf_counter() - t0
    return out, dt, dt * 2.0 * REF_S / (r0 + reference_seconds())


def execute(wl, checker, req, args, calls, run=None, check=True):
    """Run one request and hand its result to the checker; returns (wall
    seconds, scaled seconds)."""
    result, dt, scaled = timed(run or wl.run, calls, args)
    if isinstance(result, Exception):
        checker.fail(req, f"raised {type(result).__name__}: {result}")
    else:
        checker.add(req, result, check)
    return dt, scaled


def set_up(wl, seed: int, work: Path):
    """Import msetsim, generate the request pool and warm up."""
    lib = fresh_import()
    pool = wl.pool(seed, str(work))
    wl.warm(lib, plain_calls(lib), str(work))
    return lib, pool


def run_workload(args, workdir: Path) -> tuple[dict, int, Checker]:
    wl = WORKLOADS[args.workload](load_oracles())
    setups = []
    for rep in range(SETUP_REPEATS):
        work = workdir / f"setup{rep}"
        work.mkdir()
        out, _, scaled = timed(set_up, wl, args.seed, work)
        if isinstance(out, Exception):
            raise out
        lib, pool = out
        setups.append(scaled)
        if rep:
            shutil.rmtree(workdir / f"setup{rep - 1}")
    prepared = [wl.prepare(lib, req) for req in pool]
    checker = Checker(wl, args.corrupt)
    order_rng = random.Random(f"order:{args.seed}")
    # the pool is the benchmark's data, not the program's: keep it out of
    # the collector's scans during timed requests
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics, attempted = traced_pass(args, wl, lib, pool, prepared, checker, order_rng)
        checker.settle()
        return metrics, attempted, checker

    calls = plain_calls(lib)
    scaled_s = [[] for _ in pool]
    spent = 0.0
    passes = 0
    attempted = 0
    wall0 = time.monotonic()
    while (passes < MIN_PASSES or spent < args.seconds) \
            and time.monotonic() - wall0 < WALL_CAP_S:
        order = list(range(len(pool)))
        order_rng.shuffle(order)
        for i in order:
            # the first pass only records digests, so that the peak memory
            # read after it is the program's and the pool's, not the checks'
            dt, scaled = execute(wl, checker, pool[i], prepared[i], calls, check=passes > 0)
            scaled_s[i].append(scaled)
            spent += dt
            attempted += 1
        if passes == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes += 1
    checker.settle()
    failed = checker.failed
    # one latency per pool slot, the median of its repeats: the repeats lie
    # passes apart, so a burst of load from other processes on the machine
    # reaches few of them
    slots = [(statistics.median(t), req.samples) for t, req in zip(scaled_s, pool) if t]
    lat_ms = [1000.0 * t for t, _ in slots]
    metrics = {
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "samples_per_s": sum(n for _, n in slots) / sum(t for t, _ in slots),
        "success_frac": 1.0 - failed / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = len(lat_ms) - math.ceil(0.9 * len(lat_ms))
    print(f"{args.workload}: {attempted} requests in {passes} passes; "
          f"{len(lat_ms)} latency samples (one per pool slot), {beyond} beyond p90; "
          f"failed_frac {failed / attempted:.6g}; setup_s the median of {len(setups)} set-ups")
    return metrics, attempted, checker


def traced_pass(args, wl, lib, pool, prepared, checker, order_rng):
    """One pass over the pool; every request runs untraced and traced, in
    alternating order, so the pair gives the tracing overhead."""
    tracer = spans.Tracer()
    plain = plain_calls(lib)
    traced = spans.call_site(tracer, lib)

    def run_traced(calls, req_args):
        installed = spans.Installed(tracer)
        try:
            return tracer.call("request", wl.run, calls, req_args)
        finally:
            installed.remove()

    order = list(range(len(pool)))
    order_rng.shuffle(order)
    spent = {False: 0.0, True: 0.0}
    for k, i in enumerate(order):
        tracer.request = k
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            _, scaled = execute(wl, checker, pool[i], prepared[i],
                                traced if on else plain, run_traced if on else None)
            spent[on] += scaled
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = spent[True] / spent[False] - 1.0
    if args.spans_out:
        tracer.write(args.spans_out)
    print(f"{args.workload}: traced {len(pool)} requests, {len(tracer.start)} spans")
    return metrics, 2 * len(pool)


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}})


def run_all(args) -> int:
    """Each workload in a fresh process, so setup and memory are its own."""
    units = {}
    metrics = {}
    attempted = failed = 0
    correct = True
    for name in sorted(WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        correct &= res["correct"] and proc.returncode == 0
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, m in res["metrics"].items():
            metrics[f"{name}.{metric}"] = m["value"]
            units[f"{name}.{metric}"] = m["unit"]
    print(result_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for need in (ROOT / "src" / "msetsim" / "__init__.py", ORACLES, SPEC):
        if not need.is_file():
            print(f"error: {need} not found; run from a msetsim checkout", file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        metrics, attempted, checker = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    for err in checker.errors[:10]:
        print(f"check failed: {err}", file=sys.stderr)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are not both "
              f"measured and named in {SPEC.name}", file=sys.stderr)
        return 2
    failed = checker.failed
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {units[name]}")
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
