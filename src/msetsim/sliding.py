"""Sliding-window application of a similarity index: valid-mode template
matching profiles over 1-D signals.

Valid mode only: every window lies fully inside the signal, no boundary
padding, so window scores are exactly the index values they claim to be.

Each index has a window scorer that walks the signal's sample tuple
directly: windows are tuple slices, not new :class:`Signal` objects, and
the template's share of the work (its norm, statistics and absolute mass,
and its sign and magnitude tuples) is done once per call.  A window then
costs O(M) for a template of M samples: one fused pass (two for pearson,
whose window mean comes first).  Consecutive windows share M - 1
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
    is the smallest lag attaining the maximum of the scores that are not
    NaN, and 0 (with a NaN ``best_score``) only when every score is NaN.
    ``degenerate_lags`` lists the windows where pearson or cosine is
    undefined, scored +0.0 to keep the profile total: a lag is listed
    exactly when :func:`pearson <msetsim.stats.pearson>` or :func:`cosine
    <msetsim.indices.cosine>` would raise on (template, window), because
    the window scorer calls the same rule.  For pearson that includes a
    template or window variance that overflows to inf; for cosine, a zero
    norm.  The other indices are total and list none.
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
    # max replaces its pick only on a strict >, so ties keep the smallest lag;
    # no score is > NaN, so a NaN at lag 0 stays the pick and the argmax is
    # taken again over the scores that are not NaN
    best_lag = max(range(len(scores)), key=scores.__getitem__)
    if scores[best_lag] != scores[best_lag]:
        best_lag = max((k for k, s in enumerate(scores) if s == s),
                       key=scores.__getitem__, default=0)
    return MatchProfile(tuple(range(len(scores))), tuple(scores), best_lag, scores[best_lag],
                        tuple(flagged))
