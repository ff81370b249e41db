"""Acceptance criteria, one test and one printed verdict per criterion.

Criterion 6 sets the edge-budget target at 0.999 of the ensemble's maximal
magic, 0.999 * cap(n) with cap(n) = -log2 <m2> at p = 1/2.  A target of
0.999 n is out of reach: on p in [0, 1/2] every composition term
mult * (1 - 2p)^f is non-negative and non-increasing in p, and the f = 0
terms alone sum to 7/2^n - 14/4^n + 8/8^n, so -log2 <m2> <= n - log2 7
< 0.999 n for every n < 2807.  The sweep runs n = 16..48, not the figure's
n = 50..500, whose exact composition sums (about n^6/720 grid terms) are
beyond the evaluator.
"""

import math
import time
from fractions import Fraction

import numpy as np

from hypermagic import verify
from hypermagic.ensembles import (
    EnsembleSpec,
    avg_m2_p,
    closed_m2_uniform,
    concentration_check,
    counting_N,
    exact_average,
    moment_from_counting,
    monte_carlo_moment,
    solve_edge_budget,
    variance_bound,
)
from hypermagic.hypergraph import build, c_complete
from hypermagic.magic import log2_of, pl_moment, sre
from hypermagic.phasestate import from_hypergraph
from hypermagic.spectrum import full_spectrum, moment_from_magnitudes
from hypermagic.symmetric import closed_3complete, closed_ncomplete, reduced_magnitudes

from conftest import random_graph


def verdict(capsys, name: str, ok: bool, detail: str = "") -> bool:
    with capsys.disabled():
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[ACCEPTANCE] {tag} {name}{suffix}")
    return ok


def test_criterion_1_golden_closed_forms(capsys):
    t0 = time.perf_counter()
    spec = full_spectrum(from_hypergraph(build(3, [(1, 2, 3)])))
    m2 = pl_moment(spec, 2)
    report = sre(spec, 2)
    elapsed = time.perf_counter() - t0
    ok = (
        m2 == Fraction(11, 32)
        and math.isclose(report.sre, math.log2(32 / 11), rel_tol=0, abs_tol=1e-12)
        and elapsed < 1.0
    )
    m_half_direct = pl_moment(spec, Fraction(1, 2))
    ok &= closed_3complete(3, Fraction(1, 2)) == Fraction(15, 8)
    ok &= closed_ncomplete(3, Fraction(1, 2)) == Fraction(15, 8)
    ok &= m_half_direct == Fraction(15, 8)
    ok &= closed_ncomplete(2, 2) == 1 and closed_ncomplete(2, Fraction(1, 2)) == 1
    spec2 = full_spectrum(from_hypergraph(c_complete(2, 2)))
    ok &= pl_moment(spec2, 2) == 1 and sre(spec2, 2).sre == 0.0
    assert verdict(
        capsys,
        "criterion 1: CCZ goldens and the n=2 Clifford case",
        ok,
        f"m2={m2}, M2={report.sre:.12f}, {elapsed*1e3:.0f} ms",
    )


def test_criterion_2_closed_form_vs_enumeration(capsys):
    t0 = time.perf_counter()
    v3 = exact_average(3, 3, Fraction(1, 2), 2)
    v4 = exact_average(4, 3, Fraction(1, 2), 2)
    elapsed = time.perf_counter() - t0
    ok = (
        v3 == Fraction(43, 64)
        and v3 == closed_m2_uniform(3)
        and float(v4) == 0.384765625
        and v4 == closed_m2_uniform(4)
        and elapsed < 10.0
    )
    assert verdict(
        capsys,
        "criterion 2: ensemble closed form equals enumeration (n=3,4)",
        ok,
        f"n3={v3}, n4={float(v4)}, {elapsed:.2f} s",
    )


def test_criterion_3_counting_oracle(capsys):
    t0 = time.perf_counter()
    n_val = counting_N(3, 2, 3)
    ok = n_val == 2752
    for n in (3, 4, 5):
        ok &= moment_from_counting(3, 2, n) == exact_average(n, 3, Fraction(1, 2), 2)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert verdict(
        capsys,
        "criterion 3: counting route equals enumeration (n=3,4,5)",
        ok,
        f"N(3,2,3)={n_val}, {elapsed:.2f} s",
    )


def test_criterion_4_second_moment_variance(capsys):
    second = moment_from_counting(3, 2, 3, tau=2)
    mean = exact_average(3, 3, Fraction(1, 2), 2)
    var = second - mean * mean
    ok = (
        second == Fraction(1145, 2048)
        and var == Fraction(441, 4096)
        and var <= variance_bound(3)
    )
    assert verdict(
        capsys,
        "criterion 4: second moment 1145/2048, variance 441/4096 within 60/2^9",
        ok,
        f"var={var}",
    )


def test_criterion_5_composition_formula_reductions(capsys):
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 31):
        lhs = avg_m2_p(n, Fraction(1, 2))
        rhs = closed_m2_uniform(n)
        if lhs != rhs:  # exact, stronger than the required 1e-12
            ok = False
            break
    ok &= avg_m2_p(10, 0) == 1
    ok &= avg_m2_p(3, 1) == Fraction(11, 32)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert verdict(
        capsys,
        "criterion 5: composition formula reductions (p=1/2 n<=30, p=0, p=1)",
        ok,
        f"{elapsed:.2f} s",
    )


def test_criterion_6_figure_sweep_slope(capsys):
    """Expected CCZ edges to reach 0.999 of the maximal magic grow as ~3 n.

    The target at each n is 0.999 * cap(n), cap(n) = -log2 closed_m2_uniform(n)
    being the maximum of the Jensen bound over p in [0, 1/2].  The figure's
    n = 50..500 is not reproduced: the composition-sum grid has about
    C(n + 6, 6)/6 cells, one evaluation takes 0.2-0.5 s at n = 64 (2-core
    Xeon VM), and n = 500 would need about 4e12 cells.  The
    leading-order slope is (4/9) ln(1/(0.001 ln 2)) ~ 3.23, approached from
    below; n = 16..48 fits ~2.95.
    """
    t0 = time.perf_counter()
    points = []
    ok = True
    for n in range(16, 49, 8):
        cap = -math.log2(closed_m2_uniform(n))
        res = solve_edge_budget(n, 0.999 * cap / n)
        ok &= res.reachable and abs(res.achieved - 0.999 * cap) <= 1e-9
        if res.reachable:
            points.append((n, res.expected_edges))
    elapsed = time.perf_counter() - t0
    if ok:
        xs = np.array([p[0] for p in points], dtype=float)
        ys = np.array([p[1] for p in points], dtype=float)
        slope = float(np.polyfit(xs, ys, 1)[0])
        ok = 2.7 <= slope <= 3.3 and elapsed < 300.0
        detail = f"slope={slope:.3f}, {len(points)} points, {elapsed:.1f} s"
    else:
        detail = f"0.999 cap missed at some n; {len(points)} reachable points"
    assert verdict(
        capsys,
        "criterion 6: edge-budget sweep slope in [2.7, 3.3] at 0.999 of the maximal magic",
        ok,
        detail,
    )


def test_criterion_7_concentration(capsys):
    t0 = time.perf_counter()
    res = concentration_check(12, 200, seed=20240517)
    elapsed = time.perf_counter() - t0
    ok = res.fraction >= 0.95 and elapsed < 600.0
    assert verdict(
        capsys,
        "criterion 7: concentration at n=12 (200 samples)",
        ok,
        f"fraction={res.fraction:.3f}, floor={res.floor:.4f}, {elapsed:.1f} s",
    )


def test_criterion_8a_route_equality(capsys):
    results = verify.suite_prop1(graphs=50)
    ok = all(r.ok for r in results)
    assert verdict(capsys, "criterion 8a: squared-component route equality (50 graphs)", ok)


def test_criterion_8b_stabilizer_fixed_point(capsys):
    results = verify.suite_obs1(graphs=20, max_n=8)
    ok = all(r.ok for r in results)
    assert verdict(capsys, "criterion 8b: stabilizer fixed point (20 graphs, all selectors)", ok)


def test_criterion_8c_degree_and_direct_bounds(capsys):
    results = verify.suite_bounds(graphs=100)
    ok = all(r.ok for r in results)
    assert verdict(capsys, "criterion 8c: degree bound and n/(alpha-1) cap (100 graphs)", ok,
                   results[0].detail)


def test_criterion_8d_spectrum_normalization(capsys):
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(25):
        n = int(rng.integers(1, 7))
        spec = full_spectrum(from_hypergraph(random_graph(n, rng)))
        try:
            spec.validate()
        except AssertionError:
            ok = False
            break
    assert verdict(capsys, "criterion 8d: exact spectrum normalization (25 graphs)", ok)


def test_criterion_8e_renyi_monotonicity(capsys):
    rng = np.random.default_rng(9)
    ok = True
    grid = [Fraction(1, 2), 2, 3]
    for _ in range(20):
        n = int(rng.integers(2, 7))
        spec = full_spectrum(from_hypergraph(random_graph(n, rng)))
        vals = [sre(spec, a).sre for a in grid]
        if not all(hi >= lo - 1e-10 for hi, lo in zip(vals, vals[1:])):
            ok = False
            break
    assert verdict(capsys, "criterion 8e: Renyi monotonicity M_1/2 >= M_2 >= M_3", ok)


def test_criterion_8f_symmetric_closed_forms(capsys):
    results = verify.suite_symmetric(max_n=10)
    ok = all(r.ok for r in results)
    assert verdict(capsys, "criterion 8f: symmetric closed forms vs brute force (n=3..10)", ok)


def test_criterion_8g_monte_carlo_vs_closed_form(capsys):
    est = monte_carlo_moment(EnsembleSpec(3, 0.5, 10, 20240517), 2, 1000)
    theory = float(closed_m2_uniform(10))
    ok = abs(est.mean - theory) <= 5 * est.stderr
    assert verdict(
        capsys,
        "criterion 8g: Monte Carlo within 5 stderr of the closed form (n=10, 1000 samples)",
        ok,
        f"mean={est.mean:.6e}, theory={theory:.6e}, stderr={est.stderr:.2e}",
    )


def test_criterion_9_symmetric_magic_constant_or_exponentially_small(capsys):
    """The paper's symmetric claim for alpha in {2, 3, 4}, on the Krawtchouk route.

    M_alpha of the 3-complete state tends to 3, 5/2 and 7/3; the n-complete
    state's 1 - m_alpha falls as 8 alpha 2^-n.  Its float M_alpha underflows
    to -0.0 near n = 62, so the second claim is checked on the exact moment.
    """
    limits = {2: 3.0, 3: 2.5, 4: 7 / 3}
    worst_3complete = 0.0
    for n in range(40, 63):
        counts = reduced_magnitudes(c_complete(n, 3))
        for alpha, limit in limits.items():
            entropy = log2_of(moment_from_magnitudes(counts, n, alpha)) / (1 - alpha)
            worst_3complete = max(worst_3complete, abs(entropy - limit))
    positive, worst_ncomplete, scaled = True, 0.0, {}
    for n in range(20, 63):
        counts = reduced_magnitudes(c_complete(n, n))
        for alpha in limits:
            gap = 1 - moment_from_magnitudes(counts, n, alpha)
            positive &= isinstance(gap, Fraction) and gap > 0
            scaled[alpha] = float(gap * 2**n)
            worst_ncomplete = max(worst_ncomplete, abs(scaled[alpha] / (8 * alpha) - 1))
    ok = worst_3complete < 1e-6 and positive and worst_ncomplete < 0.01
    assert verdict(
        capsys,
        "criterion 9: M_alpha(3complete) constant (n=40..62), "
        "1 - m_alpha(ncomplete) ~ 8 alpha 2^-n (n=20..62), alpha in {2, 3, 4}",
        ok,
        f"max |M - limit| = {worst_3complete:.1e}, max relative error of (1 - m) 2^n = "
        f"{worst_ncomplete:.1e}, (1 - m) 2^62 = {scaled}",
    )
