"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py [--seed 7] [--other-seed 8]

For every workload it checks that
  * ``spans.IDLE_ON`` covers exactly the per-layer metrics named in
    BENCHMARK.json,
  * two traced runs with one seed give exactly the same work counts, and
    the span file a traced run writes holds every span it recorded,
  * every layer predicted idle on the workload reads 0 and every count
    predicted busy is above 0,
  * a run whose first result is deliberately corrupted fails its checks
    and exits non-zero,
  * a run on a second seed passes every check.
Exits 0 only when all of these hold.
"""

import argparse
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT_UNITS = ("count", "bytes")


def bench(*argv):
    """Run the benchmark; returns (exit code, result object, stdout lines)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--other-seed", type=int, default=8)
    args = ap.parse_args(argv)
    problems = []
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(per_layer) != set(spans.IDLE_ON):
        problems.append("spans.IDLE_ON and BENCHMARK.json name different per-layer metrics: "
                        f"{sorted(set(per_layer) ^ set(spans.IDLE_ON))}")
    scratch = HERE.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    spans_file = Path(tempfile.mkdtemp(dir=scratch)) / "spans.tsv"
    for wl in sorted(WORKLOADS):
        traced = ("--workload", wl, "--seed", str(args.seed), "--seconds", "1", "--trace", "1")
        code_a, a, lines = bench(*traced, "--spans-out", str(spans_file))
        code_b, b, _ = bench(*traced)
        if code_a or code_b or a is None or b is None:
            problems.append(f"{wl}: traced run failed (exit codes {code_a}, {code_b})")
            continue
        recorded = int(re.search(r"(\d+) spans", "\n".join(lines)).group(1))
        with open(spans_file, encoding="utf-8") as fh:
            written = sum(1 for _ in fh) - 1
        if written != recorded:
            problems.append(f"{wl}: {written} spans written, {recorded} recorded")
        for name, unit in per_layer.items():
            idle_on = spans.IDLE_ON.get(name, ())
            va = a["metrics"][name]["value"]
            vb = b["metrics"][name]["value"]
            if unit in COUNT_UNITS and va != vb:
                problems.append(f"{wl}: {name} differs between runs: {va} vs {vb}")
            if wl in idle_on and va != 0:
                problems.append(f"{wl}: {name} is {va}, predicted 0")
            if wl not in idle_on and unit in COUNT_UNITS and va <= 0:
                problems.append(f"{wl}: {name} is {va}, predicted above 0")

        code, res, _ = bench("--workload", wl, "--seed", str(args.seed), "--seconds", "1",
                             "--corrupt")
        if code == 0 or res is None or res["failed"] < 1 or res["correct"]:
            problems.append(f"{wl}: a corrupted result was not caught "
                            f"(exit code {code}, result {res and res['failed']} failed)")

        code, res, _ = bench("--workload", wl, "--seed", str(args.other_seed),
                             "--seconds", "1")
        if code or res is None or res["failed"] or not res["correct"]:
            problems.append(f"{wl}: seed {args.other_seed} did not pass (exit code {code})")
        print(f"{wl}: {'ok' if not problems else 'problems so far: ' + str(len(problems))}",
              flush=True)
    shutil.rmtree(spans_file.parent)
    try:
        scratch.rmdir()
    except OSError:
        pass  # a benchmark run still uses it
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
