"""Compare two commits on one benchmark workload with alternating runs.

Run from a msetsim clone:

    python tools/ab.py PARENT CHANGE --workload pair_batch --pairs 10 --seed 4242

PARENT and CHANGE are any commits git can name.  Each is checked out as a
``git worktree`` under a new temporary directory (``TMPDIR`` chooses where),
so neither holds a ``__pycache__``.  The script then runs
``perfbench/run.py --trace 0`` on the two checkouts in turn, one process at
a time and with ``PYTHONDONTWRITEBYTECODE=1``; each pair starts with the
other commit than the pair before it, so a drift of the host's speed falls
on both alike.  The worktrees are removed at the end.

For every end-to-end metric of the parent's ``BENCHMARK.json`` it prints
the parent and change medians with their quartiles, the change/parent
ratio of the medians, the pairs the change won, whether the medians differ
by more than the parent's quartile spread, and whether the change is worse
than the parent by more than the metric's bound (a fraction of the parent's
median).  When the parent's spread is itself wider than the bound, the
metric is *unresolved*, unless every run of the change is better than
every run of the parent.  A change *claims a gain* on a metric when at
least 10 pairs were run, it is better in at least nine tenths of them, and
it is better in the median by more than the parent's spread.  Fewer than 5 pairs are refused: 3 pairs cannot tell a drift of
the host from a change.  The seed is printed, so that a claim can show it
was not used while developing.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MIN_PAIRS = 5
CLAIM_PAIRS = 10  # the fewest pairs a gain may be claimed on


def summary(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The comparison of one metric over pairs of runs, ``parent[k]`` and
    ``change[k]`` being pair k; ``better`` is "lower" or "higher".

    ``spread`` is the parent's interquartile distance (inclusive
    quartiles); ``worse_frac`` is how much worse the change's median is
    than the parent's, as a fraction of the parent's (negative when it is
    better)."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equal lists of at least 2 runs")
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    spread = p_q3 - p_q1
    gain = sign * (p_med - c_med)  # > 0 when the change is better
    worse_frac = -gain / abs(p_med) if p_med else (0.0 if gain >= 0 else math.inf)
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "ratio": c_med / p_med if p_med else math.nan,
        "won": won,
        "spread": spread,
        "beyond_spread": abs(p_med - c_med) > spread,
        "past_bound": worse_frac > bound,
        "unresolved": spread > bound * abs(p_med) and not every_run_better,
        "worse_frac": worse_frac,
        "claims_gain": (len(parent) >= CLAIM_PAIRS and gain > spread
                        and won >= math.ceil(0.9 * len(parent))),
    }


def verdict(s: dict) -> str:
    """One line's closing words for a :func:`summary`."""
    if not s["beyond_spread"]:
        where = "within the parent's spread"
    elif s["worse_frac"] < 0:
        where = "better beyond the parent's spread"
    else:
        where = "worse beyond the parent's spread"
    if s["unresolved"]:
        bound = "unresolved: the parent's spread is wider than its bound"
    else:
        bound = "PAST ITS BOUND" if s["past_bound"] else "within its bound"
    claim = "; claims a gain" if s["claims_gain"] else ""
    return f"{where}, {bound}{claim}"


def _git(repo: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(checkout: Path, args) -> dict:
    """One ``perfbench/run.py --trace 0`` process in ``checkout``: its
    result line, with the exit code."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"error: no result from {checkout.name} (exit code {proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    result["exit"] = proc.returncode
    return result


def _pairs(value: str) -> int:
    n = int(value)
    if n < MIN_PAIRS:
        raise argparse.ArgumentTypeError(
            f"need at least {MIN_PAIRS} pairs to tell a change from the host's drift: {n}")
    return n


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the commit compared against")
    ap.add_argument("change", help="the commit measured")
    ap.add_argument("--workload", required=True,
                    choices=["match_scan", "pair_batch", "surface_export"])
    ap.add_argument("--pairs", type=_pairs, required=True,
                    help=f"pairs of runs, at least {MIN_PAIRS}")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measured request time of each run (default 25)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path(__file__).resolve().parent.parent
    commits = {side: _git(repo, "rev-parse", "--verify", f"{ref}^{{commit}}")
               for side, ref in (("parent", args.parent), ("change", args.change))}
    print(f"{args.workload}: seed {args.seed}, {args.pairs} pairs at --seconds {args.seconds}; "
          f"parent {commits['parent'][:12]}, change {commits['change'][:12]}")
    tmp = Path(tempfile.mkdtemp(prefix="msetsim-ab-"))
    checkouts = {side: tmp / side for side in commits}
    try:
        for side, commit in commits.items():
            _git(repo, "worktree", "add", "--detach", str(checkouts[side]), commit)
        spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result = _run(checkouts[side], args)
                runs[side].append(result)
                flag = "" if result["correct"] and result["exit"] == 0 else "  CHECKS FAILED"
                rate = result["metrics"]["samples_per_s"]["value"]
                print(f"  pair {k + 1} {side}: samples_per_s {rate:.6g}{flag}", flush=True)
    finally:
        for checkout in checkouts.values():
            if checkout.exists():
                _git(repo, "worktree", "remove", "--force", str(checkout))
        shutil.rmtree(tmp, ignore_errors=True)
    failed = sum(not r["correct"] or r["exit"] != 0 for side in runs.values() for r in side)
    print(f"{'metric':16s} {'parent median [q1, q3]':>40s} {'change median [q1, q3]':>40s}"
          f" {'ratio':>7s} {'won':>6s}")
    for m in spec["end_to_end"]:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        s = summary(values["parent"], values["change"], m["better"], m["bound"])
        cells = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (s["parent"], s["change"])]
        print(f"{name:16s} {cells[0]:>40s} {cells[1]:>40s} {s['ratio']:7.4f}"
              f" {s['won']:>2d}/{args.pairs:<3d} {verdict(s)}")
    print(f"runs with failed checks: {failed} of {2 * args.pairs}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
