"""Sliding-window application of a similarity index: valid-mode template
matching profiles over 1-D signals.

Valid mode only: every window lies fully inside the signal, no boundary
padding, so window scores are exactly the index values they claim to be.

One engine, :func:`slide`, scores every index.  Each index supplies only a
preparation, a generator ``(template, signal) -> scores``, which does the
template's share of the work once (its raw norm, statistics or raw
absolute mass, and the sign and magnitude tuples to slice) and then yields
the value of every window in lag order.  Windows are tuple slices, not new
:class:`Signal` objects.  Consecutive windows share M - 1 samples of a
template of M, so one pass over the template serves two: it slices the
signal once, for window k + 1, and carries window k's sample, the one
window k + 1 held a pass earlier, and the generator yields window k's
score and then window k + 1's.  A window still costs O(M), but two windows
share a slice and a loop pass (two passes for pearson, whose window means
come first).  Each window's sums are still taken afresh, left to right,
with its own accumulators, so the scores are bit-identical to calling the
index on each window.  The preparations append one zero sample to the
signal, only so that window k + 1 exists when k is the last lag; that
window is not a valid one, and the engine takes only as many scores as
there are lags, so the generator is never resumed to yield its score.
The engine alone applies the rule for an undefined window (a score of
None) and takes the argmax, the same for every index.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .indices import _coincidence_windows, _cosine_windows, _inner_windows, _jaccard_windows
from .msetops import Signal, _member
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
    ``degenerate_lags`` lists the windows where the index is undefined,
    scored +0.0 to keep the profile total.  A window is undefined exactly
    when :func:`pearson <msetsim.stats.pearson>` or :func:`cosine
    <msetsim.indices.cosine>` would raise on (template, window), because
    each window is scored through the pair function's own rule: for
    pearson, fewer than 2 samples, or a template or window variance that
    is zero or overflows to inf; for cosine, a template or window whose
    raw sum of squares is 0.  The other indices are total and list none.
    Only the inner product depends on the spacing: the scores and flags of
    the other indices are the same at every ``dx``.
    """

    lags: tuple[int, ...]
    scores: tuple[float, ...]
    best_lag: int
    best_score: float
    degenerate_lags: tuple[int, ...] = ()


# Window preparations: generators (template, signal) -> scores, which yield
# the value of each window in lag order, None where the index is undefined
# on that window; slide takes one per lag.  A preparation raises ValueError
# at its first score where the index is undefined on the template alone,
# and so on every window.  The template's share, too, runs at the first
# score, not when the generator is made, so a span around a preparation
# call (perfbench's tracer wraps these entries by name) times only the
# generator's creation.
_SCORERS = {
    SlideIndex.INNER: _inner_windows,
    SlideIndex.JACCARD: _jaccard_windows,
    SlideIndex.COINCIDENCE: _coincidence_windows,
    SlideIndex.PEARSON: _pearson_windows,
    SlideIndex.COSINE: _cosine_windows,
}


def slide(template: Signal, signal: Signal, index: SlideIndex) -> MatchProfile:
    """Score the template against every valid window of the signal.

    An undefined window is scored +0.0 and listed in ``degenerate_lags``;
    when the index is undefined on the template alone, every lag is.  An
    ``index`` that is not a SlideIndex raises ValueError.
    """
    prepare = _member(_SCORERS, index, "slide index")
    m = len(template.values)
    if m > len(signal.values):
        raise ValueError(
            f"template (length {m}) must not be longer than the signal "
            f"(length {len(signal.values)})")
    if template.dx != signal.dx:
        raise ValueError(f"sample spacings differ: {template.dx!r} vs {signal.dx!r}")

    lags = range(len(signal.values) - m + 1)
    try:
        scores = list(islice(prepare(template, signal), len(lags)))
    except ValueError:
        scores = [None] * len(lags)
    flagged = tuple(k for k in lags if scores[k] is None)
    if flagged:
        scores = [0.0 if s is None else s for s in scores]
    # max replaces its pick only on a strict >, so ties keep the smallest lag;
    # no score is > NaN, so a NaN at lag 0 stays the pick and the argmax is
    # taken again over the scores that are not NaN
    best_lag = max(lags, key=scores.__getitem__)
    if scores[best_lag] != scores[best_lag]:
        best_lag = max((k for k, s in enumerate(scores) if s == s),
                       key=scores.__getitem__, default=0)
    return MatchProfile(tuple(lags), tuple(scores), best_lag, scores[best_lag], flagged)
