"""Sliding-window application of a similarity index: valid-mode template
matching profiles over 1-D signals.

Valid mode only: every window lies fully inside the signal, no boundary
padding, so window scores are exactly the index values they claim to be.

Each index has a window scorer that walks the signal's sample tuple
directly: windows are tuple slices, not new :class:`Signal` objects, and
the template's share of the work (its norm, statistics, absolute mass and
degeneracy, and its sign and magnitude tuples) is done once per call.  A
window then costs O(M) for a template of M samples: one fused pass (two for
pearson, whose window mean comes first).  Consecutive windows share M - 1
samples, but each window's sums are taken afresh, left to right, so the
scores are bit-identical to calling the index on each window.
"""

from dataclasses import dataclass
from enum import Enum

from .indices import _coincidence_windows, _cosine_windows, _inner_windows, _jaccard_windows
from .msetops import Signal
from .stats import _pearson_windows

# No longer called here; kept as module attributes because the benchmark's
# tracer (perfbench/spans.py) wraps them by name.
from .indices import norm  # noqa: F401
from .stats import sample_stats  # noqa: F401


class SlideIndex(Enum):
    INNER = "inner"
    JACCARD = "jaccard"
    COINCIDENCE = "coincidence"
    PEARSON = "pearson"
    COSINE = "cosine"


@dataclass(frozen=True)
class MatchProfile:
    """Scores of one index over every valid window placement.

    ``lags`` runs 0 .. len(signal) - len(template) inclusive; ``best_lag``
    is the smallest lag attaining the maximum score.  ``degenerate_lags``
    lists windows where pearson or cosine was undefined and the score was
    set to 0 to keep the profile total.
    """

    lags: tuple[int, ...]
    scores: tuple[float, ...]
    best_lag: int
    best_score: float
    degenerate_lags: tuple[int, ...] = ()


# Window scorers: (template, signal) -> (score per lag, degenerate lags).
_SCORERS = {
    SlideIndex.INNER: _inner_windows,
    SlideIndex.JACCARD: _jaccard_windows,
    SlideIndex.COINCIDENCE: _coincidence_windows,
    SlideIndex.PEARSON: _pearson_windows,
    SlideIndex.COSINE: _cosine_windows,
}


def slide(template: Signal, signal: Signal, index: SlideIndex) -> MatchProfile:
    """Score the template against every valid window of the signal."""
    m = len(template.values)
    if m > len(signal.values):
        raise ValueError(
            f"template (length {m}) must not be longer than the signal "
            f"(length {len(signal.values)})")
    if template.dx != signal.dx:
        raise ValueError(f"sample spacings differ: {template.dx!r} vs {signal.dx!r}")

    scores, flagged = _SCORERS[index](template, signal)
    best_lag = 0
    best_score = scores[0]
    for k in range(1, len(scores)):
        s = scores[k]
        if s > best_score:  # strict: ties keep the smallest lag
            best_lag = k
            best_score = s
    return MatchProfile(tuple(range(len(scores))), tuple(scores), best_lag, best_score,
                        tuple(flagged))
