"""The golden digests of ``tools/bitsweep.py``: the value bits and error
texts of the pair indices and ``report``, of ``aggregate`` and
``split_intersection``, and of ``pearson``, ``double_pearson`` and
``standardize``, over the sweep of seed 1812.

A digest may change only with a stated change of contract, recorded in
CHANGES.md with its old and new value and the families it moves.  The
``aggregate`` and ``stats`` digests are those of the code before the sign
splits were summed in direct loops, which left every digest unchanged.
The ``pairs`` digest moved once since: pair indices whose union, smaller
absolute mass or raw sum of squares overflows are scored again from
scaled samples (see ``indices._scaled``)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitsweep.py"
_spec = importlib.util.spec_from_file_location("bitsweep", TOOL)
bitsweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitsweep)

SEED = 1812
GOLDEN = {
    "pairs": "656a04d23ca4094a6756699f57e3448ef74e49c51446defd5e30c05457c7ba19",
    "aggregate": "7c639d5c9a3ab4e509211dd93dc4abbd106ad859ecf0b1f2ab805b0f0decb6b1",
    "stats": "e9f71f93b106eda3084dc203ab8c496694de240eefbc549cabfcb17679979926",
}


def test_digests_match_the_golden_ones():
    assert bitsweep.digests(SEED) == GOLDEN


def test_usage_needs_one_seed(capsys):
    assert bitsweep.main([]) == 2
    assert bitsweep.main(["x"]) == 2
    assert "usage" in capsys.readouterr().err
