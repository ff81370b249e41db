"""Ensemble sampling, moment statistics, counting problems, closed forms."""

import functools
import math
import os
import time
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hypermagic import ensembles, hypergraph
from hypermagic.budget import BudgetError
from hypermagic.ensembles import (
    EnsembleSpec,
    avg_m2_p,
    bound_e3_alpha,
    bound_general,
    closed_m2_uniform,
    composition_f,
    concentration_check,
    double_factorial,
    exact_average,
    monte_carlo_moment,
    pool_workers,
    sample,
    solve_edge_budget,
    state_moment,
    variance_bound,
    _conc_worker,
    _mc_worker,
    _ranges,
    _avg_m2_exact,
    _avg_m2_log,
    _log2_binom_table,
)
from hypermagic.hypergraph import c_complete, from_masks
from hypermagic.spectrum import _RANK_CHUNK, rank_moment
from hypermagic.verify import counting_N, counting_N_tau, moment_from_counting

from conftest import _avg_m2_half_exact, odd_triples_bruteforce


class TestSampling:
    def test_p_zero_always_empty(self):
        spec = EnsembleSpec(3, 0.0, 6, 1)
        for i in range(5):
            assert sample(spec, i).edges == ()

    def test_p_one_always_complete(self):
        spec = EnsembleSpec(3, 1.0, 6, 1)
        for i in range(5):
            assert len(sample(spec, i).edges) == comb(6, 3)

    def test_seed_determinism(self):
        a = sample(EnsembleSpec(3, 0.5, 8, 99), 7)
        b = sample(EnsembleSpec(3, 0.5, 8, 99), 7)
        c = sample(EnsembleSpec(3, 0.5, 8, 99), 8)
        assert a == b
        assert a != c

    def test_edge_count_statistics(self):
        spec = EnsembleSpec(3, 0.5, 6, 2024)
        total_edges = sum(len(sample(spec, i).edges) for i in range(10_000))
        mean = total_edges / 10_000
        # binomial(20, 1/2): mean 10, sigma of the sample mean ~ 0.0224
        assert abs(mean - 10.0) < 5 * math.sqrt(20 * 0.25 / 10_000)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            sample(EnsembleSpec(2, 0.5, 6, 1), 0)
        with pytest.raises(ValueError):
            sample(EnsembleSpec(3, 1.5, 6, 1), 0)

    def test_draws_match_the_literal_stream_with_one_edge_list(self):
        for n, c, p, seed in ((6, 3, 0.5, 1), (9, 3, 0.25, 2**40 + 3), (8, 4, 0.75, -5)):
            spec = EnsembleSpec(c, p, n, seed)
            for i in range(4):
                rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, i])
                edges = c_complete(n, c).edges
                keep = rng.random(len(edges)) < p
                assert sample(spec, i) == from_masks(n, [e for e, k in zip(edges, keep) if k])
        # the edge list is built once per (n, c), not once per draw
        hypergraph._c_edges.cache_clear()
        spec = EnsembleSpec(3, 0.5, 7, 11)
        for i in range(5):
            sample(spec, i)
        _mc_worker((3, 0.5, 7, 11, 0, 5, "2"))
        assert hypergraph._c_edges.cache_info().misses == 1


class TestMonteCarlo:
    def test_p_zero_mean_one_stderr_zero(self):
        est = monte_carlo_moment(EnsembleSpec(3, 0.0, 6, 5), 2, 16)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_p_one_deterministic(self):
        from hypermagic.symmetric import closed_3complete

        est = monte_carlo_moment(EnsembleSpec(3, 1.0, 6, 5), 2, 8)
        assert est.stderr == 0.0
        assert math.isclose(est.mean, float(closed_3complete(6, 2)), rel_tol=1e-12)

    def test_matches_closed_form_within_5_sigma(self):
        est = monte_carlo_moment(EnsembleSpec(3, 0.5, 10, 31415), 2, 400)
        theory = float(closed_m2_uniform(10))
        assert abs(est.mean - theory) <= 5 * est.stderr

    def test_jobs_do_not_change_values(self):
        a = monte_carlo_moment(EnsembleSpec(3, 0.5, 6, 7), 2, 12, jobs=1)
        b = monte_carlo_moment(EnsembleSpec(3, 0.5, 6, 7), 2, 12, jobs=2)
        assert a == b

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            monte_carlo_moment(EnsembleSpec(3, 0.5, 6, 7), 2, 1)


def per_sample_values(spec: EnsembleSpec, alpha, samples: int) -> list[float]:
    return [float(state_moment(sample(spec, i), alpha)) for i in range(samples)]


class TestBatchedSamples:
    """c = 3 draws ranked together equal the per-sample route, value by value."""

    @pytest.mark.parametrize("alpha", [2, Fraction(1, 3)])
    def test_values_equal_per_sample_route_n3_to_14(self, alpha):
        for n in range(3, 15):
            p = (0.25, 0.5, 0.75)[n % 3]
            spec = EnsembleSpec(3, p, n, 1000 + n)
            got = _mc_worker((3, p, n, spec.seed, 0, 6, str(alpha)))
            assert got == per_sample_values(spec, alpha, 6), n

    def test_uint32_rows_n17(self):
        spec = EnsembleSpec(3, 0.5, 17, 3)
        assert _mc_worker((3, 0.5, 17, 3, 0, 2, "2")) == per_sample_values(spec, 2, 2)

    @pytest.mark.parametrize("samples", [8, 200])
    def test_n12_across_chunks_and_ranges(self, samples):
        # 2^12 masks a sample: two samples per elimination of _RANK_CHUNK columns
        assert _RANK_CHUNK >> 12 == 2
        spec = EnsembleSpec(3, 0.5, 12, 77)
        want = per_sample_values(spec, 2, samples)
        assert _mc_worker((3, 0.5, 12, 77, 0, samples, "2")) == want
        # odd cuts put one sample of a chunk in each worker's range
        parts = [_mc_worker((3, 0.5, 12, 77, a, b, "2")) for a, b in _ranges(samples, 3)]
        assert [v for part in parts for v in part] == want
        arr = np.asarray(want)
        est = monte_carlo_moment(spec, 2, samples)
        assert (est.mean, est.stderr) == (float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(samples)))

    def test_jobs_give_identical_values_n12(self):
        spec = EnsembleSpec(3, 0.5, 12, 78)
        assert monte_carlo_moment(spec, 2, 200, jobs=1) == monte_carlo_moment(spec, 2, 200, jobs=2)

    def test_concentration_worker_counts_exact_comparisons(self):
        n, seed = 8, 5
        spec = EnsembleSpec(3, 0.5, n, seed)
        want = sum(rank_moment(sample(spec, i), 2) <= Fraction(8, 2**n) for i in range(40))
        assert 0 < want < 40
        assert _conc_worker((n, seed, 0, 40)) == want
        assert sum(_conc_worker((n, seed, a, b)) for a, b in _ranges(40, 3)) == want

    def test_ranges_cover_in_order(self):
        assert _ranges(7, 3) == [(0, 2), (2, 4), (4, 7)]
        assert _ranges(2, 2) == [(0, 1), (1, 2)]
        assert _ranges(5, 1) == [(0, 5)]


class TestStateMoment:
    @pytest.mark.parametrize("alpha", [2, Fraction(1, 2), 3])
    def test_walsh_route_equals_star_route(self, alpha):
        from hypermagic.hypergraph import c_complete, from_masks
        from hypermagic.spectrum import star_trace_sum

        graphs = [sample(EnsembleSpec(4, p, n, 29), i)
                  for n, p in ((5, 0.5), (7, 0.25), (8, 0.5)) for i in range(3)]
        graphs += [c_complete(6, 6), from_masks(6, [0b1111, 0b111100, 0b110011, 0b1, 0b11])]
        for g in graphs:
            assert g.max_edge_size() >= 4
            n = g.n
            star = Fraction(star_trace_sum(g, alpha), 2 ** int(n * (1 + 2 * Fraction(alpha))))
            moment = state_moment(g, alpha)
            assert isinstance(moment, Fraction) and moment == star, g

    def test_refused_beyond_the_walsh_kernel(self):
        from hypermagic.hypergraph import c_complete
        from hypermagic.symmetric import closed_ncomplete

        with pytest.raises(BudgetError, match="n=24"):
            state_moment(from_masks(25, [*c_complete(25, 25).edges, 1]), 2)
        assert state_moment(c_complete(25, 25), 2) == closed_ncomplete(25, 2)


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    made: list[int] = []

    def __init__(self, max_workers, mp_context=None):
        FakePool.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


class TestWorkerPool:
    def test_clamped_to_tasks_and_cpus(self):
        cpus = os.cpu_count() or 1
        assert pool_workers(10**6, 5) == min(5, cpus)
        assert pool_workers(10**6, 10**6) == cpus
        assert pool_workers(2, 10**6) == min(2, cpus)
        assert pool_workers(1, 8) == 1
        assert pool_workers(0, 8) == 1
        assert pool_workers(-3, 8) == 1
        assert pool_workers(4, 0) == 1

    @pytest.mark.parametrize("run", [
        lambda jobs: monte_carlo_moment(EnsembleSpec(3, 0.5, 5, 7), 2, 3, jobs=jobs),
        lambda jobs: concentration_check(5, 3, seed=2, jobs=jobs),
    ], ids=["monte_carlo_moment", "concentration_check"])
    def test_huge_jobs_reads_the_clamped_count(self, monkeypatch, run):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "made", [])
        workers = pool_workers(10**6, 3)
        assert run(10**6) == run(1)
        assert FakePool.made == ([workers] if workers > 1 else [])


def per_graph_moments(n: int, c: int, alpha) -> list[tuple[int, Fraction]]:
    """(edge count, moment) of every graph, one state moment per graph, as
    exact_average enumerated them before it ranked graphs in batches."""
    edges = c_complete(n, c).edges
    out = []
    for bits in range(1 << len(edges)):
        chosen = [e for i, e in enumerate(edges) if (bits >> i) & 1]
        out.append((len(chosen), Fraction(state_moment(from_masks(n, chosen), alpha))))
    return out


def per_graph_average(moments, count: int, p, tau: int) -> Fraction:
    pf = Fraction(p)
    return sum((pf**k * (1 - pf) ** (count - k) * m**tau for k, m in moments), Fraction(0))


class TestExactAverage:
    @pytest.mark.parametrize("alpha", [2, Fraction(1, 2), 3, Fraction(1, 3)])
    def test_batched_equals_per_graph_reference(self, alpha):
        for n in (3, 4, 5):
            moments = per_graph_moments(n, 3, alpha)
            for p in (0, Fraction(1, 4), Fraction(1, 2), Fraction(27, 50), Fraction(3, 4), 1):
                for tau in (1, 2):
                    got = exact_average(n, 3, p, alpha, tau)
                    assert isinstance(got, Fraction)
                    assert got == per_graph_average(moments, comb(n, 3), p, tau), (n, p, tau)

    def test_c4_keeps_per_graph_walsh_moments(self):
        moments = per_graph_moments(5, 4, 2)
        assert exact_average(5, 4, Fraction(1, 3), 2) == per_graph_average(moments, 5, Fraction(1, 3), 1)

    def test_two_graph_average_n3(self):
        assert exact_average(3, 3, Fraction(1, 2), 2) == Fraction(43, 64)

    def test_sixteen_graph_average_n4(self):
        val = exact_average(4, 3, Fraction(1, 2), 2)
        assert val == closed_m2_uniform(4)
        assert float(val) == 0.384765625

    def test_p_zero(self):
        assert exact_average(4, 3, 0, 2) == 1

    def test_non_half_probability(self):
        # weights (3/4, 1/4) over the single-edge family at n=3
        val = exact_average(3, 3, Fraction(1, 4), 2)
        assert val == Fraction(3, 4) + Fraction(1, 4) * Fraction(11, 32)

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            exact_average(9, 3, Fraction(1, 2), 2)

    @pytest.mark.parametrize("c", [1, 2])
    def test_stabilizer_ensembles_equal_per_graph_reference(self, c):
        for alpha in (2, Fraction(1, 2)):
            moments = per_graph_moments(4, c, alpha)
            for p in (0, Fraction(1, 4), Fraction(1, 2), 1):
                for tau in (1, 2):
                    want = per_graph_average(moments, comb(4, c), p, tau)
                    assert exact_average(4, c, p, alpha, tau) == want == 1

    def test_stabilizer_ensemble_skips_the_enumeration(self, monkeypatch):
        moments = []
        monkeypatch.setattr(ensembles, "state_moment", lambda *args: moments.append(args))
        t0 = time.perf_counter()
        assert exact_average(14, 1, Fraction(1, 2), 2) == 1
        assert time.perf_counter() - t0 < 0.1  # enumerating its 2^14 graphs took 0.76 s
        assert moments == []
        with pytest.raises(BudgetError):  # the refusal still comes first
            exact_average(8, 2, Fraction(1, 2), 2)
        with pytest.raises(ValueError):
            exact_average(4, 2, Fraction(1, 2), 0)


class TestBatchedMemory:
    """Peak traced allocation, flat in the sample count (caches built first)."""

    @pytest.mark.parametrize("run", [
        lambda: exact_average(5, 3, Fraction(1, 4), 2),
        lambda: monte_carlo_moment(EnsembleSpec(3, 0.5, 12, 7), 2, 8),
        lambda: monte_carlo_moment(EnsembleSpec(3, 0.5, 12, 7), 2, 200),
    ], ids=["exact_average-n5", "monte_carlo-n12-8", "monte_carlo-n12-200"])
    def test_peak_below_one_mib(self, run):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestClosedFormsAndBounds:
    def test_closed_m2_values(self):
        assert closed_m2_uniform(3) == Fraction(43, 64)
        assert float(closed_m2_uniform(4)) == 0.384765625
        assert math.isclose(float(closed_m2_uniform(10)), 6.8226e-3, rel_tol=1e-4)

    def test_bound_general_c3_alpha2(self):
        assert bound_general(3, 2, 20) == 2.0**-9
        for n in range(12, 41):
            assert float(closed_m2_uniform(n)) <= bound_general(3, 2, n)

    def test_moment_bracketing(self):
        for n in range(3, 41):
            assert Fraction(1, 2**n) <= closed_m2_uniform(n) <= 1

    def test_bound_e3_values(self):
        assert double_factorial(5) == 15
        assert double_factorial(7) == 105
        assert bound_e3_alpha(3, 10) == Fraction(4, 2**10) + Fraction(15, 2**20)
        assert bound_e3_alpha(4, 12) == Fraction(4, 2**12) + Fraction(105, 2**36)
        with pytest.raises(ValueError):
            bound_e3_alpha(2, 10)

    def test_bound_e3_against_monte_carlo(self):
        est = monte_carlo_moment(EnsembleSpec(3, 0.5, 10, 999), 3, 200)
        assert est.mean <= float(bound_e3_alpha(3, 10)) + 5 * est.stderr


class TestCounting:
    def test_golden_n3(self):
        assert counting_N(3, 2, 3) == 2752

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_enumeration(self, n):
        assert moment_from_counting(3, 2, n) == exact_average(n, 3, Fraction(1, 2), 2)

    def test_x_zero_branch_floor(self):
        # with no constraint the valid column choices alone give 8^n pairs
        assert counting_N(3, 2, 3) >= 8**3

    def test_tau_one_reduces(self):
        assert counting_N_tau(3, 2, 3, 1) == counting_N(3, 2, 3)

    def test_tau_two_golden(self):
        assert counting_N_tau(3, 2, 3, 2) == 1145 * 2**13
        assert moment_from_counting(3, 2, 3, 2) == Fraction(1145, 2048)

    def test_tau_two_matches_enumeration_n4(self):
        assert moment_from_counting(3, 2, 4, 2) == exact_average(4, 3, Fraction(1, 2), 2, tau=2)

    def test_tau_three_out_of_scope(self):
        with pytest.raises(ValueError):
            counting_N_tau(3, 2, 3, 3)

    def test_budget_gate(self):
        with pytest.raises(BudgetError):
            counting_N(3, 2, 8)

    @pytest.mark.parametrize("c,n", [(4, 4), (4, 5), (5, 5)])
    def test_general_c_path_against_enumeration(self, c, n):
        # c >= 4 exercises the multi-vertex q subsets
        assert moment_from_counting(c, 2, n) == exact_average(n, c, Fraction(1, 2), 2)


class TestVariance:
    def test_exact_variance_n3(self):
        second = moment_from_counting(3, 2, 3, 2)
        mean = exact_average(3, 3, Fraction(1, 2), 2)
        var = second - mean * mean
        assert var == Fraction(441, 4096)
        assert var <= variance_bound(3) == Fraction(60, 512)

    def test_exact_variance_n4_by_enumeration(self):
        # frozen from the 16-graph enumeration (independently confirmed by
        # the counting route and by full-spectrum moments); note the exact
        # value sits above the stated 60/2^{3n} envelope at this size
        second = exact_average(4, 3, Fraction(1, 2), 2, tau=2)
        mean = exact_average(4, 3, Fraction(1, 2), 2)
        var = second - mean * mean
        assert second == Fraction(2839, 16384)
        assert var == Fraction(6615, 262144)
        assert second == moment_from_counting(3, 2, 4, 2)
        assert var > variance_bound(4)

    def test_bound_value(self):
        assert variance_bound(3) == Fraction(60, 512)


class TestConcentration:
    def test_small_n_vacuous_but_reported(self):
        res = concentration_check(3, 20, seed=1)
        assert res.floor < 0
        assert 0.0 <= res.fraction <= 1.0

    def test_n10_fraction_high(self):
        res = concentration_check(10, 60, seed=17)
        assert res.fraction >= 0.9
        assert math.isclose(res.floor, 1 - 60 / 2**10)

    def test_jobs_determinism(self):
        a = concentration_check(8, 30, seed=3, jobs=1)
        b = concentration_check(8, 30, seed=3, jobs=2)
        assert a == b


# ---------------------------------------------------------------------------
# references for the composition sum: every ordered split, no symmetry used


def _compositions(total: int, parts: int):
    """All splits of `total` into `parts` non-negative integers, colex order."""
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for rest in _compositions(total - last, parts - 1):
            yield rest + (last,)


def literal_avg_m2(n: int, p: Fraction) -> Fraction:
    """The composition sum term by term over all C(n + 7, 7) 8-part splits."""
    beta = 1 - 2 * p
    total = Fraction(0)
    for kappa in _compositions(n, 8):
        mult = 1
        rem = n
        for part in kappa:
            mult *= comb(rem, part)
            rem -= part
        total += mult * beta ** composition_f(kappa)
    return total / 8**n


@functools.cache
def _triple_grid(k1: int, k2: int, k3: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f, its parity and the log2-binomial weights on the (a, b, c) grid, flattened.

    None of them depends on n or p, so every (n, p) case shares them.
    """
    lb = _log2_binom_table(k1 + k2 + k3)
    a = np.arange(k1 + 1).reshape(-1, 1, 1)
    b = np.arange(k2 + 1).reshape(1, -1, 1)
    c = np.arange(k3 + 1).reshape(1, 1, -1)
    f = (
        a * (k1 - a) * (k2 + k3)
        + b * (k2 - b) * (k3 + k1)
        + c * (k3 - c) * (k1 + k2)
        + a * (k2 - b) * (k3 - c)
        + b * (k3 - c) * (k1 - a)
        + c * (k1 - a) * (k2 - b)
        + a * b * c
    )
    logbin = lb[k1, : k1 + 1].reshape(-1, 1, 1) + lb[k2, : k2 + 1].reshape(
        1, -1, 1
    ) + lb[k3, : k3 + 1].reshape(1, 1, -1)
    return f.ravel().astype(np.int32), (f & 1).astype(bool).ravel(), logbin.ravel()


def per_triple_avg_m2_log(n: int, p: float) -> float:
    """Signed log-space sum with one grid per ordered (k1, k2, k3)."""
    beta = 1.0 - 2.0 * p
    lb = _log2_binom_table(n)
    abs_beta = abs(beta)
    log_abs_beta = math.log2(abs_beta) if abs_beta > 0 else -math.inf
    negative_base = beta < 0
    acc = [-math.inf, -math.inf]

    def fold(branch: int, logs: np.ndarray) -> None:
        if logs.size == 0:
            return
        top = float(logs.max())
        if top == -math.inf:
            return
        chunk = top + math.log2(float(np.exp2(logs - top).sum()))
        acc[branch] = float(np.logaddexp2(acc[branch], chunk))

    for k1 in range(n + 1):
        for k2 in range(n + 1 - k1):
            for k3 in range(n + 1 - k1 - k2):
                k0 = n - k1 - k2 - k3
                e2 = k1 * k2 + k2 * k3 + k3 * k1
                base0 = 1.0 + beta**e2
                if base0 == 0.0 and k0 > 0:
                    continue
                w0 = 0.0 if k0 == 0 else k0 * math.log2(base0)
                logmult = lb[n, k0] + lb[n - k0, k1] + lb[n - k0 - k1, k2]
                f, odd, logbin = _triple_grid(k1, k2, k3)
                if abs_beta > 0:
                    logs = logmult + w0 + logbin + f * log_abs_beta
                else:
                    logs = np.where(f == 0, logmult + w0 + logbin, -np.inf)
                if negative_base:
                    fold(0, logs[~odd])
                    fold(1, logs[odd])
                else:
                    fold(0, logs)
    pos = 2.0 ** (acc[0] - 3 * n) if acc[0] > -math.inf else 0.0
    neg = 2.0 ** (acc[1] - 3 * n) if acc[1] > -math.inf else 0.0
    return pos - neg


class TestCompositionFormula:
    def test_f_against_bruteforce_triples(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 8))
            cut = sorted(int(rng.integers(0, n + 1)) for _ in range(7))
            kappa = tuple(b - a for a, b in zip([0] + cut, cut + [n]))
            assert sum(kappa) == n
            assert composition_f(kappa) == odd_triples_bruteforce(kappa)

    def test_composition_iteration_counts(self):
        assert sum(1 for _ in _compositions(5, 8)) == comb(12, 7)

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            composition_f((1, 2, 3))


class TestAvgM2P:
    def test_p_zero_exact_one(self):
        assert avg_m2_p(7, 0) == 1

    @pytest.mark.parametrize("n", [3, 5, 8, 12, 20, 30])
    def test_half_matches_closed_form(self, n):
        assert avg_m2_p(n, Fraction(1, 2)) == closed_m2_uniform(n)

    def test_p_one_n3(self):
        assert avg_m2_p(3, 1) == Fraction(11, 32)

    def test_exact_path_is_literal_composition_sum(self):
        # the small-n auto path must agree with an independent evaluation
        # over the 2-graph ensemble at n=3 for a skewed probability
        p = Fraction(1, 4)
        assert _avg_m2_exact(3, p) == exact_average(3, 3, p, 2)

    def test_exact_path_matches_enumeration_n4(self):
        for p in (Fraction(1, 4), Fraction(3, 4), Fraction(1, 8)):
            assert _avg_m2_exact(4, p) == exact_average(4, 3, p, 2)

    def test_cached_flip_counts_equal_a_fresh_build(self):
        # the exact path reuses one p-independent table per n; a stale or
        # mutated table would move every later dyadic-p request
        for n in range(3, 13):
            fresh = ensembles._flip_counts.__wrapped__(n)
            assert ensembles._flip_counts(n) == fresh
            assert sum(w for _, w in fresh) == 8**n  # p = 0: every split flips nothing
            for p in map(Fraction, ("1/4", "3/4", "5/16", "1/1024", "1")):
                beta = 1 - 2 * p
                want = Fraction(sum(w * beta**f for f, w in fresh), 8**n)
                assert _avg_m2_exact(n, p) == want, (n, p)
            assert ensembles._flip_counts(n) is ensembles._flip_counts(n)

    @pytest.mark.parametrize("p", [0.25, 0.375, 0.6, 0.75])
    def test_log_path_matches_exact(self, p):
        for n in (4, 7, 10):
            exact = float(_avg_m2_exact(n, Fraction(p)))
            logv = _avg_m2_log(n, p)
            assert abs(logv - exact) <= 1e-11 * exact

    # p = 1/2 gives beta = 0, p = 1 gives beta = -1 with class-0 bases of 0,
    # and p > 1/2 a negative base
    @pytest.mark.parametrize("p", [1e-6, 0.01, 0.25, 0.45, 0.5, 0.55, 0.75, 0.99, 1.0])
    def test_log_path_matches_per_triple_reference(self, p):
        for n in range(3, 31):
            want = per_triple_avg_m2_log(n, p)
            assert abs(_avg_m2_log(n, p) - want) <= 1e-11 * abs(want), n

    @pytest.mark.parametrize(
        "p", [Fraction(1, 4), Fraction(27, 50), Fraction(3, 4), Fraction(99, 100), Fraction(1)]
    )
    def test_exact_path_equals_literal_sum(self, p):
        for n in range(1, 10):
            assert _avg_m2_exact(n, p) == literal_avg_m2(n, p), n

    @pytest.mark.parametrize("p", [0.6, 0.75, 0.99])
    def test_log_path_near_exact_above_half(self, p):
        # the alternating sum cancels most for p near 1; Fraction(p) is the
        # float's exact value, so both paths sum the same polynomial
        for n in (12, 14, 16):
            exact = _avg_m2_exact(n, Fraction(p))
            assert abs(Fraction(_avg_m2_log(n, p)) - exact) <= Fraction(1e-11) * exact, n

    def test_log_path_at_half(self):
        for n in (6, 14):
            exact = float(_avg_m2_half_exact(n))
            assert abs(_avg_m2_log(n, 0.5) - exact) <= 1e-11 * exact

    # the theory benchmark asks for p = k/4096 with odd k in [83, 4015]; the
    # two float extremes put beta = 1 - 2p next to +1 and -1
    @pytest.mark.parametrize("p", [Fraction(k, 4096) for k in (
        83, 85, 511, 1023, 1365, 2045, 2047, 2049, 2051, 2731, 3073, 3585, 4013, 4015)]
        + [Fraction(2.0**-52), Fraction(1 - 2.0**-52)])
    def test_log_path_at_workload_probabilities(self, p):
        for n in range(3, 13):
            exact = _avg_m2_exact(n, p)
            assert abs(Fraction(_avg_m2_log(n, float(p))) - exact) <= Fraction(1e-11) * exact, n

    @pytest.mark.parametrize("n, limit", [(28, 512 << 10), (64, 4 << 20)])
    def test_log_path_peak_memory(self, n, limit):
        for p in (0.3, 0.7):  # the negative base also sums signs
            tracemalloc.start()
            try:
                _avg_m2_log(n, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit, (p, peak)

    def test_dips_below_half_value_for_p_above_half(self):
        # the base 1 - 2p turns negative past p = 1/2, so odd-f terms subtract
        # and <m2> falls slightly below its p = 1/2 value; checked exactly on
        # the composition sum (n = 8) and by enumerating all graphs (n = 5)
        dip, half = avg_m2_p(8, Fraction(27, 50), method="exact"), avg_m2_p(8, Fraction(1, 2))
        assert float(dip) == pytest.approx(0.0271088, abs=1e-7)
        assert float(half) == pytest.approx(0.0271306, abs=1e-7)
        assert dip < half
        dip5 = exact_average(5, 3, Fraction(27, 50), 2)
        assert float(dip5) == pytest.approx(0.20213, abs=1e-5)
        half5 = exact_average(5, 3, Fraction(1, 2), 2)
        assert half5 == closed_m2_uniform(5)
        assert float(half5) == pytest.approx(0.20532, abs=1e-5)
        assert dip5 < half5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            avg_m2_p(2, 0.5)
        with pytest.raises(ValueError):
            avg_m2_p(5, 1.5)
        with pytest.raises(ValueError):
            avg_m2_p(5, 0.5, method="bogus")


class TestEdgeBudget:
    def test_reachable_small_gamma(self):
        res = solve_edge_budget(10, 0.5)
        assert res.reachable
        assert abs(res.achieved - 5.0) <= 1e-9
        assert res.expected_edges == pytest.approx(res.p * comb(10, 3))

    def test_p_monotone_in_gamma(self):
        ps = []
        for gamma in (0.2, 0.35, 0.5):
            res = solve_edge_budget(10, gamma)
            assert res.reachable
            ps.append(res.p)
        assert ps[0] < ps[1] < ps[2]

    def test_unreachable_reported_explicitly(self):
        # the p = 1/2 cap is n - log2 7 + o(1), below 0.999 n for n < 2807
        for n in (10, 50, 100):
            res = solve_edge_budget(n, 0.999)
            assert not res.reachable
            assert res.p is None and res.expected_edges is None
            assert math.isclose(res.cap, -math.log2(float(closed_m2_uniform(n))))

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            solve_edge_budget(10, 1.2)

    def test_prescan_guards_bisection(self, monkeypatch):
        import hypermagic.ensembles as ens

        def fake(n, p):
            return (1.0 - abs(p - 0.2)) * n  # interior hump: not monotone

        monkeypatch.setattr(ens, "_neg_log2_avg", fake)
        with pytest.raises(RuntimeError, match="monoton"):
            ens.solve_edge_budget(10, 0.001)

    @pytest.mark.parametrize("n", [10, 16])
    def test_solve_evaluator_calls(self, monkeypatch, n):
        import hypermagic.ensembles as ens

        calls = []
        real = ens._neg_log2_avg

        def counting(n, p):
            calls.append(p)
            return real(n, p)

        monkeypatch.setattr(ens, "_neg_log2_avg", counting)
        cap = -math.log2(closed_m2_uniform(n))
        for gamma in (0.05, 0.2, 0.5, 0.999 * cap / n):
            calls.clear()
            res = ens.solve_edge_budget(n, gamma)
            assert res.reachable
            assert abs(res.achieved - gamma * n) <= 1e-9
            assert len(calls) <= 25
            # the returned p is one the solver evaluated, not an interpolant
            assert res.p in calls

    def test_solution_reproduces_target_on_exact_sum(self):
        n = 8
        cap = -math.log2(closed_m2_uniform(n))
        for gamma in (0.3, 0.6, 0.999 * cap / n):
            res = solve_edge_budget(n, gamma)
            exact = avg_m2_p(n, Fraction(res.p), method="exact")
            assert abs(-math.log2(exact) - gamma * n) <= 1e-9


class TestLargeNAnalyticPaths:
    """Parameter-only entry points keep working past the 63-bit mask limit."""

    def test_closed_m2_uniform_n100(self):
        val = closed_m2_uniform(100)
        assert val == Fraction(7, 2**100) - Fraction(14, 4**100) + Fraction(8, 8**100)

    def test_avg_m2_half_exact_large_n(self):
        for n in (80, 150):
            assert _avg_m2_half_exact(n) == closed_m2_uniform(n)

    def test_symmetric_closed_forms_large_n(self):
        from hypermagic.symmetric import closed_3complete, closed_ncomplete

        assert closed_3complete(101, 2) == Fraction(1, 8) + Fraction(7, 2**103)
        m = closed_ncomplete(120, Fraction(1, 2))
        assert Fraction(2) < m < Fraction(3)

    def test_bounds_large_n(self):
        assert bound_general(3, 2, 200) == 2.0**-189
        assert variance_bound(100) == Fraction(60, 2**300)
