"""The golden digests of ``tools/bitsweep.py``: the value bits and error
texts of the pair indices and ``report``, of ``aggregate`` and
``split_intersection``, of ``pearson``, ``double_pearson`` and
``standardize``, of ``slide``'s profiles under every index, and of the
values and error texts of ``read_csv`` on generated files, over the sweep
of seed 1812.

A digest may change only with a stated change of contract, recorded in
CHANGES.md with its old and new value and the families it moves.  The
``aggregate`` and ``stats`` digests are those of the code before the sign
splits were summed in direct loops, which left every digest unchanged.
The ``pairs`` digest moved twice since: pair indices whose union, smaller
absolute mass or raw sum of squares overflows are scored again from
scaled samples (see ``indices._scaled``), and then so is ``jaccard_alt``
where its squared union leaves the normal range.  It moved a third time
when ``jaccard_alt`` was also scored again where the raw sum of f*g is
inf, NaN, subnormal or 0.  The ``slide`` digest,
equal before and after the window preparations became generators, moved
once: a Jaccard, coincidence or cosine window whose denominator overflows
is scored by the pair loop.  The ``read_csv`` digest was added with its
own stream of inputs, which left the other four unchanged."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitsweep.py"
_spec = importlib.util.spec_from_file_location("bitsweep", TOOL)
bitsweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitsweep)

SEED = 1812
GOLDEN = {
    "pairs": "bfd99116f58a3180b9f5bb55ea85c47e821127cb5eb53c1b5056f79cc3c94925",
    "aggregate": "7c639d5c9a3ab4e509211dd93dc4abbd106ad859ecf0b1f2ab805b0f0decb6b1",
    "stats": "e9f71f93b106eda3084dc203ab8c496694de240eefbc549cabfcb17679979926",
    "slide": "d36a695ea5d3868bb9873757e585f6e4c013ab36267f907f4318d1272eb72e45",
    "read_csv": "660df27afc665ce28095b18d75cc56c23393915281564847bf4fd6b1a81c8783",
}


def test_digests_match_the_golden_ones():
    assert bitsweep.digests(SEED) == GOLDEN


def test_usage_needs_one_seed(capsys):
    assert bitsweep.main([]) == 2
    assert bitsweep.main(["x"]) == 2
    assert "usage" in capsys.readouterr().err
