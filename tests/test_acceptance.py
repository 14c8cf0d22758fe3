"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Expected values tagged as derived were computed
with the independent oracles in oracles.py (or high-precision arithmetic)
and frozen here.
"""

import math
import random
from decimal import Decimal, getcontext

from msetsim.cli import cli
from msetsim.fields import FieldExpr, GridSpec, PolarProbe, field, probe
from msetsim.indices import (
    coincidence,
    cosine,
    euclidean,
    inner,
    interiority,
    jaccard,
    jaccard_alt,
    jaccard_power,
    norm,
    split_intersection,
)
from msetsim.io import read_csv
from msetsim.msetops import MsetOpKind, Signal, aggregate, kernel
from msetsim.signs import conjoint_signs
from msetsim.sliding import SlideIndex, slide
from msetsim.stats import covariance, double_pearson, pearson, sample_stats, split_inner, standardize

import oracles


def check(num, name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} issue(s))"
    print(f"[acceptance] criterion {num:2d} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): first issues: {failures[:5]}"


def test_criterion_01_sign_identities():
    rng = random.Random(101)
    failures = []
    pairs = [(0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
    for _ in range(6000):
        x = rng.uniform(-100, 100)
        y = rng.uniform(-100, 100)
        pairs.extend([(x, 0.0), (0.0, y), (x, x), (x, -x), (-x, x), (x, y)])
    while len(pairs) < 100_000:
        pairs.append((rng.uniform(-100, 100), rng.uniform(-100, 100)))
    assert len(pairs) >= 100_000
    for x, y in pairs:
        s = conjoint_signs(x, y)
        if s.s_xy != s.s_hp - s.s_hm:
            failures.append(f"s_xy != s_hp - s_hm at {(x, y)}")
        if x != 0 and y != 0:
            if s.s_hp != 1 - s.s_hm:
                failures.append(f"s_hp != 1 - s_hm at {(x, y)}")
            if s.s_xy != s.s_p - 1 or s.s_xy != 1 - s.s_m:
                failures.append(f"s_xy != s_p - 1 or 1 - s_m at {(x, y)}")
    check(1, "sign identities on 1e5 pairs", failures)


def test_criterion_02_pointwise_factorization():
    rng = random.Random(202)
    failures = []
    scap = MsetOpKind.SCAP
    acup = MsetOpKind.ACUP
    for _ in range(1_000_000):
        x = rng.uniform(-10, 10)
        y = rng.uniform(-10, 10)
        lhs = x * y
        rhs = kernel(scap, x, y) * kernel(acup, x, y)
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
            failures.append(f"factorization off at {(x, y)}: {lhs} vs {rhs}")
    check(2, "pointwise factorization on 1e6 pairs", failures)


def test_criterion_03_aggregated_identity_counterexample():
    failures = []
    f, g = Signal((2, 1)), Signal((1, 2))
    cases = [
        ("inner", inner(f, g), 4.0),
        ("scap*acup", aggregate(MsetOpKind.SCAP, f, g) * aggregate(MsetOpKind.ACUP, f, g), 8.0),
        ("jaccard", jaccard(f, g), 0.5),
        ("jaccard_alt", jaccard_alt(f, g), 0.25),
    ]
    oracle_values = {
        "inner": oracles.oinner([2, 1], [1, 2]),
        "scap*acup": oracles.oaggregate("scap", [2, 1], [1, 2])
        * oracles.oaggregate("acup", [2, 1], [1, 2]),
        "jaccard": oracles.ojaccard([2, 1], [1, 2]),
        "jaccard_alt": oracles.ojaccard_alt([2, 1], [1, 2]),
    }
    for name, got, expected in cases:
        if got != expected:
            failures.append(f"{name}: {got} != {expected}")
        if got != oracle_values[name]:
            failures.append(f"{name}: {got} != oracle {oracle_values[name]}")
    rng = random.Random(303)
    for _ in range(100_000):
        x = rng.uniform(-10, 10)
        y = rng.choice([0.0, rng.uniform(-10, 10)])
        if x == 0 and y == 0:
            continue
        a = jaccard(Signal((x,)), Signal((y,)))
        b = jaccard_alt(Signal((x,)), Signal((y,)))
        if abs(a - b) > 1e-12:
            failures.append(f"scalar jaccard vs alt at {(x, y)}: {a} vs {b}")
    check(3, "aggregated-identity counterexample", failures)


def test_criterion_04_scalar_collapse():
    rng = random.Random(404)
    failures = []
    for k in range(100_000):
        x = 0.0 if k % 1000 == 0 else rng.uniform(-50, 50)
        y = 0.0 if k % 1700 == 0 else rng.uniform(-50, 50)
        f, g = Signal((x,)), Signal((y,))
        if abs(coincidence(f, g) - jaccard(f, g)) > 1e-12:
            failures.append(f"coincidence != jaccard at {(x, y)}")
    check(4, "scalar collapse of coincidence", failures)


def test_criterion_05_crest_law():
    failures = []
    for deg in (1, 5, 10, 15, 20, 25, 30, 35, 40):
        alpha = math.radians(deg)
        expected = math.tan(alpha)
        values = []
        for rho in (0.5, 1.0, 2.0):
            v = probe(PolarProbe(alpha, rho))
            values.append(v)
            if abs(v - expected) > 1e-12:
                failures.append(f"probe({deg} deg, {rho}) = {v}, tan = {expected}")
        if max(values) - min(values) > 1e-12:
            failures.append(f"probe at {deg} deg depends on rho: {values}")
    check(5, "crest law probe = tan(alpha)", failures)


def test_criterion_06_power_convergence():
    failures = []
    getcontext().prec = 50
    expected = float((1 / Decimal(3).sqrt()) ** 21)
    t = math.tan(math.radians(30.0))
    got = jaccard_power(Signal((1.0,)), Signal((t,)), 21)
    if abs(got - expected) > 1e-8:
        failures.append(f"D=21 at (1, tan30): {got} vs {expected}")

    spec = GridSpec()
    xs = spec.xs()
    even = field(FieldExpr.JR_POW, spec, d=2)
    n = spec.nx
    for j in range(n):
        for i in range(n):
            v = even.at(i, j)
            if v < 0.0:
                failures.append(f"even power negative at ({i}, {j})")
    for i, x in enumerate(xs):
        if x == 0:
            continue
        if even.at(i, i) != 1.0:
            failures.append(f"even power crest at index {i}: {even.at(i, i)}")
        if even.at(i, n - 1 - i) != 1.0:
            failures.append(f"even power anti-crest at index {i}")

    pow21 = field(FieldExpr.JR_POW, spec, d=21)
    kron = field(FieldExpr.KRON, spec)
    max_ratio = 0.0
    max_diff = 0.0
    for j, y in enumerate(xs):
        ay = abs(y)
        row = j * n
        for i, x in enumerate(xs):
            ax = abs(x)
            if ax == ay:
                continue
            ratio = min(ax, ay) / max(ax, ay)
            if ratio > max_ratio:
                max_ratio = ratio
            diff = abs(pow21.values[row + i] - kron.values[row + i])
            if diff > max_diff:
                max_diff = diff
    bound = max_ratio ** 21
    if max_diff > bound * (1 + 1e-12):
        failures.append(f"off-crest gap {max_diff} exceeds tangent-power bound {bound}")

    probe30 = [jaccard_power(Signal((math.cos(math.radians(30.0)),)),
                             Signal((math.sin(math.radians(30.0)),)), d)
               for d in (1, 3, 5, 21)]
    if probe30[-1] > 1e-5:
        failures.append(f"D=21 probe at 30 deg not below 1e-5: {probe30[-1]}")
    for a, b in zip(probe30, probe30[1:]):
        if not b < a:
            failures.append(f"odd powers not strictly decreasing: {probe30}")
    check(6, "power sharpening converges to signed delta", failures)


def test_criterion_07_split_recombination():
    rng = random.Random(707)
    failures = []
    for _ in range(100_000):
        n = rng.randint(1, 64)
        dx = rng.choice([1.0, 0.5, 0.01])
        fv = [rng.uniform(-10, 10) for _ in range(n)]
        gv = [rng.uniform(-10, 10) for _ in range(n)]
        f, g = Signal(fv, dx), Signal(gv, dx)
        sp = split_inner(f, g)
        ip = inner(f, g)
        scale = max(1.0, sp.same_sign - sp.opposite_sign)
        if abs((sp.same_sign + sp.opposite_sign) - ip) > 1e-12 * scale:
            failures.append(f"recombination off for n={n}")
        if sp.same_sign < 0.0 or sp.opposite_sign > 0.0:
            failures.append(f"gate signs broken for n={n}")
    m = 1000
    dx = 2 * math.pi / m
    grid = [(k + 0.5) * dx for k in range(m)]
    f = Signal([math.sin(v) for v in grid], dx)
    g = Signal([math.cos(v) for v in grid], dx)
    sp = split_inner(f, g)
    if abs(sp.same_sign - 1.0) > 0.01:
        failures.append(f"sin/cos same-sign part {sp.same_sign} not within 0.01 of 1")
    if abs(sp.opposite_sign + 1.0) > 0.01:
        failures.append(f"sin/cos opposite-sign part {sp.opposite_sign} not within 0.01 of -1")
    if abs(sp.same_sign + sp.opposite_sign) > 1e-3:
        failures.append(f"sin/cos total {sp.same_sign + sp.opposite_sign} not within 1e-3 of 0")
    oracle = oracles.osplit_inner(f.values, g.values, dx)
    if (sp.same_sign, sp.opposite_sign) != oracle:
        failures.append("sin/cos split disagrees with quadrature oracle")
    check(7, "split inner product recombination", failures)


def test_criterion_08_double_pearson():
    rng = random.Random(808)
    failures = []
    for _ in range(2000):
        n = rng.randint(2, 64)
        x = Signal([rng.uniform(-10, 10) for _ in range(n)])
        y = Signal([rng.uniform(-10, 10) for _ in range(n)])
        dp = double_pearson(x, y, 0.5)
        if abs(dp.p_alpha - pearson(x, y)) > 1e-9:
            failures.append(f"p_alpha(0.5) != pearson for n={n}")
    base = [0.5 + k for k in range(50)]
    xc_x, xc_y = [], []
    for b in base:
        xc_x += [b, b, -b, -b]
        xc_y += [b, -b, b, -b]
    xc = double_pearson(Signal(xc_x), Signal(xc_y), 0.5)
    xc_pearson = pearson(Signal(xc_x), Signal(xc_y))
    branch_x = base + [-b for b in base]
    br = double_pearson(Signal(branch_x), Signal(branch_x), 0.5)
    br_pearson = pearson(Signal(branch_x), Signal(branch_x))
    if not (xc.p_minus < -0.2):
        failures.append(f"X cloud p_minus {xc.p_minus} not strongly negative")
    if abs(xc_pearson) > 1e-6:
        failures.append(f"X cloud plain pearson {xc_pearson} not near 0")
    if abs(br.p_minus) > 1e-12:
        failures.append(f"branch cloud p_minus {br.p_minus} not ~0")
    if br_pearson < 1.0 - 1e-12:
        failures.append(f"branch cloud pearson {br_pearson} not near 1")
    check(8, "double Pearson split and discriminator", failures)


def test_criterion_09_pearson_standardization():
    rng = random.Random(909)
    failures = []
    for _ in range(2000):
        n = rng.randint(2, 64)
        xv = [rng.uniform(-10, 10) for _ in range(n)]
        yv = [rng.uniform(-10, 10) for _ in range(n)]
        if max(xv) == min(xv) or max(yv) == min(yv):
            continue
        x, y = Signal(xv), Signal(yv)
        sx = standardize(x)
        sy = standardize(y)
        if abs(pearson(x, y) - covariance(sx, sy)) > 1e-9:
            failures.append(f"pearson != standardized covariance for n={n}")
        for s in (sx, sy):
            st = sample_stats(s)
            if abs(st.mean) > 1e-12:
                failures.append(f"standardized mean {st.mean} too large")
            if abs(st.std - 1.0) > 1e-12:
                failures.append(f"standardized std {st.std} not 1")
    check(9, "pearson via standardization", failures)


def test_criterion_10_oracle_equivalence():
    rng = random.Random(1010)
    failures = []
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    for trial in range(10_000):
        n = rng.randint(1, 8)
        dx = rng.choice([1.0, 0.5, 0.01, 2.0])
        fv = [rng.choice([0.0, rng.uniform(-10, 10)]) for _ in range(n)]
        gv = [rng.choice([0.0, rng.uniform(-10, 10)]) for _ in range(n)]
        f, g = Signal(fv, dx), Signal(gv, dx)
        for kind in MsetOpKind:
            if aggregate(kind, f, g) != oracles.oaggregate(kind.value, fv, gv, dx):
                failures.append(f"aggregate {kind} off at trial {trial}")
        pairs = [
            (inner(f, g), oracles.oinner(fv, gv, dx)),
            (norm(f), oracles.onorm(fv, dx)),
            (euclidean(f, g), oracles.oeuclidean(fv, gv, dx)),
            (jaccard(f, g), oracles.ojaccard(fv, gv, dx)),
            (jaccard_alt(f, g), oracles.ojaccard_alt(fv, gv, dx)),
            (interiority(f, g), oracles.ointeriority(fv, gv, dx)),
            (coincidence(f, g), oracles.ocoincidence(fv, gv, dx)),
            (jaccard_power(f, g, 1 + trial % 3), oracles.ojaccard_power(fv, gv, 1 + trial % 3, dx)),
            (split_intersection(f, g, alphas[trial % 5]),
             oracles.osplit_intersection(fv, gv, alphas[trial % 5], dx)),
        ]
        sp = split_inner(f, g)
        pairs.append(((sp.same_sign, sp.opposite_sign), oracles.osplit_inner(fv, gv, dx)))
        if norm(f) > 0 and norm(g) > 0:
            pairs.append((cosine(f, g), oracles.ocosine(fv, gv, dx)))
        if n >= 2:
            if max(fv) > min(fv) and max(gv) > min(gv):
                pairs.append((pearson(f, g), oracles.opearson(fv, gv)))
            pairs.append((covariance(f, g), oracles.ocovariance(fv, gv)))
        for got, expected in pairs:
            if got != expected:
                failures.append(f"index mismatch at trial {trial}: {got} vs {expected}")
    index_names = ("inner", "jaccard", "coincidence", "pearson", "cosine")
    for trial in range(10_000):
        index = index_names[trial % 5]
        n = rng.randint(1, 64)
        m = rng.randint(1, n)
        dx = rng.choice([1.0, 0.5])
        tv = [rng.uniform(-5, 5) for _ in range(m)]
        sv = [rng.choice([0.0, rng.uniform(-5, 5)]) for _ in range(n)]
        prof = slide(Signal(tv, dx), Signal(sv, dx), SlideIndex(index))
        lags, scores, best_lag, best_score, flagged = oracles.oslide(tv, sv, index, dx)
        if (prof.lags != tuple(lags) or prof.scores != tuple(scores)
                or prof.best_lag != best_lag or prof.best_score != best_score
                or prof.degenerate_lags != tuple(flagged)):
            failures.append(f"slide mismatch at trial {trial} index {index}")
    check(10, "oracle equivalence, 1e4 instances each", failures)


def test_criterion_11_field_determinism_and_symmetry():
    failures = []
    spec = GridSpec()
    jr = field(FieldExpr.JR, spec)
    if field(FieldExpr.JR, spec).values != jr.values:
        failures.append("JR field differs between two evaluations")
    n = spec.nx
    vals = jr.values
    for j in range(n):
        row = j * n
        mirror_row = (n - 1 - j) * n
        for i in range(n):
            v = vals[row + i]
            if v != vals[mirror_row + (n - 1 - i)]:
                failures.append(f"JR(x,y) != JR(-x,-y) at ({i}, {j})")
            if vals[mirror_row + i] != -v and not (v == 0 and vals[mirror_row + i] == 0):
                failures.append(f"JR(x,-y) != -JR(x,y) at ({i}, {j})")
    xs = spec.xs()
    for i, x in enumerate(xs):
        on_crest = vals[i * n + i]
        anti = vals[(n - 1 - i) * n + i]
        if x == 0:
            if on_crest != 0.0 or anti != 0.0:
                failures.append("origin value not 0")
        else:
            if on_crest != 1.0:
                failures.append(f"identity crest at {x} is {on_crest}")
            if anti != -1.0:
                failures.append(f"anti crest at {x} is {anti}")
    # first-quadrant piecewise form: y/x below the diagonal, x/y above
    for j in range(n // 2, n):
        y = xs[j]
        for i in range(n // 2, n):
            x = xs[i]
            v = vals[j * n + i]
            if x == 0 and y == 0:
                expected = 0.0
            elif x > y:
                expected = y / x
            elif x < y:
                expected = x / y
            else:
                expected = 1.0
            if v != expected:
                failures.append(f"piecewise mismatch at ({x}, {y}): {v} vs {expected}")
    check(11, "field determinism and symmetry", failures)


def test_criterion_12_cli_round_trip(tmp_path, capsys):
    failures = []
    out_csv = tmp_path / "jr.csv"
    code = cli(["field", "--expr", "jr", "--out", str(out_csv)])
    capsys.readouterr()
    if code != 0:
        failures.append(f"field export exited {code}")
    lines = out_csv.read_text().splitlines()
    if len(lines) != 1 + 401 * 401:
        failures.append(f"expected 161201 data lines, got {len(lines) - 1}")
    reimported = read_csv(out_csv, ["value"])[0].values
    expected = field(FieldExpr.JR, GridSpec()).values
    if reimported != expected:
        failures.append("CSV round trip is not bitwise identical")

    kron_csv = tmp_path / "kron.csv"
    kron_pgm = tmp_path / "kron.pgm"
    code = cli(["field", "--expr", "kron", "--out", str(kron_csv),
                "--pgm", str(kron_pgm)])
    capsys.readouterr()
    if code != 0:
        failures.append(f"kron export exited {code}")
    blob = kron_pgm.read_bytes()
    header = b"P5\n401 401\n255\n"
    if not blob.startswith(header):
        failures.append(f"PGM header wrong: {blob[:20]!r}")
    payload = blob[len(header):]
    if len(payload) != 401 * 401:
        failures.append(f"PGM payload length {len(payload)}")
    # corners sit on the anti-crest under the default [-1, 1] mapping
    if payload[0] != 0:
        failures.append(f"first pixel {payload[0]} != 0")
    if payload[-1] != 0:
        failures.append(f"last pixel {payload[-1]} != 0")
    if payload[400] != 255 or payload[1] != 128:
        failures.append("crest/off-crest pixel mapping wrong")
    check(12, "CLI round trip", failures)
