"""Naive reference implementations used to cross-check the library.

Everything here is coded directly from the defining formulas on plain
Python lists, with the same left-to-right accumulation shape as the
library, so comparisons may demand exact equality.  Absolute values are
written in the sign-times-value form (s*x) rather than abs(x) to keep the
code paths distinct.

The spacing cancels in every normalised index (Jaccard, interiority,
coincidence, cosine and the Jaccard power), so those oracles take no ``dx``:
each is the ratio of the raw sums, and cosine's norms are the square roots
of the raw sums of squares.  The values that scale with the spacing (the
aggregations, the inner product, the norm, the distance and the split
intersection) take it.
"""

import math

OP_NAMES = ("cap", "cup", "scap", "scup", "scap_minus", "scap_plus",
            "scup_minus", "scup_plus", "acap", "acup")


def osign(v):
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def ogates(x, y):
    """The half gates s_hp = |sx + sy| / 2 and s_hm = |sx - sy| / 2 and the
    sign product s_xy = sx*sy of the pair (x, y), as floats."""
    sx = osign(x)
    sy = osign(y)
    return abs(sx + sy) / 2, abs(sx - sy) / 2, float(sx * sy)


def okernel(op, x, y):
    sx = osign(x)
    sy = osign(y)
    if op == "cap":
        return min(x, y)
    if op == "cup":
        return max(x, y)
    if op == "scap":
        return sx * sy * min(sx * x, sy * y)
    if op == "scup":
        return sx * sy * max(sx * x, sy * y)
    if op == "scap_minus":
        return abs(sx - sy) / 2 * min(sx * x, sy * y)
    if op == "scap_plus":
        return abs(sx + sy) / 2 * min(sx * x, sy * y)
    if op == "scup_minus":
        return abs(sx - sy) / 2 * max(sx * x, sy * y)
    if op == "scup_plus":
        return abs(sx + sy) / 2 * max(sx * x, sy * y)
    if op == "acap":
        return min(sx * x, sy * y)
    if op == "acup":
        return max(sx * x, sy * y)
    raise AssertionError(f"unknown op {op!r}")


def oaggregate(op, fv, gv, dx=1.0):
    acc = 0.0
    for a, b in zip(fv, gv):
        acc += okernel(op, a, b)
    return dx * acc


def oabs_mass(fv, dx=1.0):
    acc = 0.0
    for a in fv:
        acc += osign(a) * a
    return dx * acc


def oinner(fv, gv, dx=1.0):
    acc = 0.0
    for a, b in zip(fv, gv):
        acc += a * b
    return dx * acc


def onorm(fv, dx=1.0):
    return math.sqrt(oinner(fv, fv, dx))


def oeuclidean(fv, gv, dx=1.0):
    acc = 0.0
    for a, b in zip(fv, gv):
        acc += (a - b) * (a - b)
    return math.sqrt(dx * acc)


def ocosine(fv, gv):
    return oinner(fv, gv) / (onorm(fv) * onorm(gv))


def ojaccard(fv, gv):
    den = oaggregate("acup", fv, gv)
    if den == 0.0:
        return 0.0
    return oaggregate("scap", fv, gv) / den


def ojaccard_alt(fv, gv, dx=1.0):
    den = oaggregate("acup", fv, gv, dx)
    if den * den == 0.0:
        return 0.0
    return oinner(fv, gv, dx) / (den * den)


def ointeriority(fv, gv):
    den = min(oabs_mass(fv), oabs_mass(gv))
    if den == 0.0:
        return 1.0
    return oaggregate("acap", fv, gv) / den


def ocoincidence(fv, gv):
    return ojaccard(fv, gv) * ointeriority(fv, gv)


def ojaccard_power(fv, gv, d):
    j = ojaccard(fv, gv)
    p = abs(j) ** d
    # for odd d a zero keeps its sign, as IEEE 754 pow: (-0.0) ** 3 is -0.0
    if math.copysign(1.0, j) < 0 and d % 2 == 1:
        return -p
    return p


# The pair indices score a pair again from its samples scaled by 2**-k when
# a denominator overflows: the union for Jaccard, the smaller absolute mass
# for interiority, an operand's raw sum of squares for cosine (that operand
# alone is scaled).  Each oracle below states that law on the naive
# oracles above; so does oslide_rescored, for slide's windows.

def oscale_exponent(top, n, power):
    """k of the rescore: top < 2**e and n < 2**L for the least such e and L
    (top is at least 1 wherever a sum overflowed), k = e - (1023 - L) //
    power."""
    return int(top).bit_length() - (1023 - n.bit_length()) // power


def oscaled(power, *operands):
    top = max(osign(v) * v for vals in operands for v in vals)
    k = oscale_exponent(top, len(operands[0]), power)
    return [[v * 2.0 ** -k for v in vals] for vals in operands]


def ojaccard_rescored(fv, gv):
    if oaggregate("acup", fv, gv) == math.inf:
        fv, gv = oscaled(1, fv, gv)
    return ojaccard(fv, gv)


def ointeriority_rescored(fv, gv):
    if min(oabs_mass(fv), oabs_mass(gv)) == math.inf:
        fv, gv = oscaled(1, fv, gv)
    return ointeriority(fv, gv)


def ocoincidence_rescored(fv, gv):
    return ojaccard_rescored(fv, gv) * ointeriority_rescored(fv, gv)


def ojaccard_power_rescored(fv, gv, d):
    if oaggregate("acup", fv, gv) == math.inf:
        fv, gv = oscaled(1, fv, gv)
    return ojaccard_power(fv, gv, d)


def ocosine_rescored(fv, gv):
    if oinner(fv, fv) == math.inf:
        fv, = oscaled(2, fv)
    if oinner(gv, gv) == math.inf:
        gv, = oscaled(2, gv)
    return ocosine(fv, gv)


def osplit_intersection(fv, gv, alpha, dx=1.0):
    acc = 0.0
    for a, b in zip(fv, gv):
        acc += 2.0 * alpha * okernel("scap_plus", a, b) \
            - 2.0 * (1.0 - alpha) * okernel("scap_minus", a, b)
    return dx * acc


def omean(fv):
    acc = 0.0
    for a in fv:
        acc += a
    return acc / len(fv)


def ovariance(fv):
    m = omean(fv)
    acc = 0.0
    for a in fv:
        acc += (a - m) * (a - m)
    return acc / (len(fv) - 1)


def ocovariance(fv, gv):
    mf = omean(fv)
    mg = omean(gv)
    acc = 0.0
    for a, b in zip(fv, gv):
        acc += (a - mf) * (b - mg)
    return acc / (len(fv) - 1)


def opearson(fv, gv):
    r = ocovariance(fv, gv) / (math.sqrt(ovariance(fv)) * math.sqrt(ovariance(gv)))
    return min(1.0, max(-1.0, r))


def osplit_inner(fv, gv, dx=1.0):
    plus = 0.0
    minus = 0.0
    for a, b in zip(fv, gv):
        prod = a * b
        sa = osign(a)
        sb = osign(b)
        plus += abs(sa + sb) / 2.0 * prod
        minus += abs(sa - sb) / 2.0 * prod
    return dx * plus, dx * minus


def _window_degenerate(index, wv):
    if index == "pearson":
        # pearson raises for a zero variance and for one that overflows
        return len(wv) < 2 or not 0.0 < ovariance(wv) < math.inf
    if index == "cosine":
        # cosine raises when a raw sum of squares is 0, whatever the spacing
        return onorm(wv) == 0.0
    return False


def oslide(tv, sv, index, dx=1.0):
    """Valid-mode profile: (lags, scores, best_lag, best_score, flagged).
    Only the inner product scales with ``dx``."""
    scorers = {
        "inner": lambda a, b: oinner(a, b, dx),
        "jaccard": ojaccard,
        "coincidence": ocoincidence,
        "pearson": opearson,
        "cosine": ocosine,
    }
    score = scorers[index]
    t_bad = _window_degenerate(index, tv)
    lags = list(range(len(sv) - len(tv) + 1))
    scores = []
    flagged = []
    for k in lags:
        window = list(sv[k:k + len(tv)])
        if t_bad or _window_degenerate(index, window):
            scores.append(0.0)
            flagged.append(k)
        else:
            scores.append(score(tv, window))
    # the best lag is the smallest attaining the maximum of the scores that
    # are not NaN; lag 0, with its NaN, only when every score is NaN
    best_lag = lags[0]
    best_score = scores[0]
    for k, s in zip(lags, scores):
        if math.isnan(s):
            continue
        if math.isnan(best_score) or s > best_score:
            best_lag = k
            best_score = s
    return lags, scores, best_lag, best_score, flagged


def oslide_rescored(tv, sv, index, dx=1.0):
    """oslide, with every Jaccard, coincidence and cosine window scored by
    the rescored pair oracle: a window whose union overflows, or whose own
    or template's raw sum of squares does, scores the pair function's value
    on the scaled samples.  The lags, the flags and every other window are
    oslide's."""
    lags, scores, best_lag, best_score, flagged = oslide(tv, sv, index, dx)
    rescored = {"jaccard": ojaccard_rescored, "coincidence": ocoincidence_rescored,
                "cosine": ocosine_rescored}.get(index)
    if rescored is None:
        return lags, scores, best_lag, best_score, flagged
    scores = [s if k in flagged else rescored(tv, list(sv[k:k + len(tv)]))
              for k, s in zip(lags, scores)]
    best_lag = lags[0]
    best_score = scores[0]
    for k, s in zip(lags, scores):
        if math.isnan(s):
            continue
        if math.isnan(best_score) or s > best_score:
            best_lag = k
            best_score = s
    return lags, scores, best_lag, best_score, flagged
