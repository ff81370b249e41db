"""Random hypergraph state ensembles: sampling, moments, bounds, the edge budget.

The ensemble draws each of the C(n, c) possible c-edges independently with
probability p.  Moment statistics come from Monte Carlo over samples,
exhaustive enumeration over all edge subsets, and, for c = 3, the closed
form at p = 1/2 and the composition sum at any p.  The binary-counting
reformulation (tuples of replica bit columns) that checks them is an
oracle and lives in `hypermagic.verify`.
"""

from __future__ import annotations

import bisect
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np

from . import budget as _budget
from .hypergraph import Hypergraph, _c_edges, from_masks
from .magic import log2_of
from .phasestate import from_hypergraph
from .spectrum import (_RANK_CHUNK, WALSH_MAX_N, _batch_forms, _rank_histograms,
                       moment_from_magnitudes, positive_alpha, rank_histogram, rank_magnitudes,
                       sparse_counts, walsh_magnitudes)
from .symmetric import complete_layer_sizes, reduced_magnitudes


@dataclass(frozen=True)
class EnsembleSpec:
    """Random c-uniform ensemble parameters."""

    c: int
    p: float
    n: int
    seed: int

    def check(self) -> None:
        if not 3 <= self.c <= self.n:
            raise ValueError(f"need 3 <= c <= n, got c={self.c}, n={self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"edge probability {self.p} outside [0, 1]")


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    stderr: float
    samples: int
    alpha: Fraction


@dataclass(frozen=True)
class ConcentrationResult:
    n: int
    samples: int
    fraction: float
    floor: float


@dataclass(frozen=True)
class EdgeBudgetResult:
    n: int
    gamma: float
    reachable: bool
    p: float | None
    expected_edges: float | None
    achieved: float
    cap: float


# ---------------------------------------------------------------------------
# sampling


def _keep(spec: EnsembleSpec, index: int) -> np.ndarray:
    """Which edges of `_c_edges` draw `index` keeps: a stream from (seed, index)."""
    rng = np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, index])
    return rng.random(len(_c_edges(spec.n, spec.c))) < spec.p


def sample(spec: EnsembleSpec, index: int) -> Hypergraph:
    """Deterministic draw: stream derived from (seed, index), edges in lex order."""
    spec.check()
    edges = _c_edges(spec.n, spec.c)
    return from_masks(spec.n, [e for e, k in zip(edges, _keep(spec, index)) if k])


def _sample_histograms(spec: EnsembleSpec, start: int, stop: int):
    """Rank histograms of c = 3 draws start..stop-1, in index order, a chunk at a time."""
    spec.check()
    per = max(1, _RANK_CHUNK >> spec.n)
    for s0 in range(start, stop, per):
        keep = np.array([_keep(spec, i) for i in range(s0, min(s0 + per, stop))])
        yield from _rank_histograms(_batch_forms(spec.n, keep))


def state_counts(g: Hypergraph, budget: int | None = None) -> dict[int, int]:
    """Sparse |W| counts of one state, by the one route its graph takes.

    Krawtchouk (`reduced_magnitudes`) for a union of complete layers, with
    no phase table and no sim budget; rank for any other graph whose edges
    have at most three vertices; Walsh for every other graph, refused beyond
    the kernel's exact range before any phase table is built.
    """
    try:
        layers = complete_layer_sizes(g)
    except ValueError:  # not permutation symmetric
        pass
    else:
        return reduced_magnitudes(g, layers)
    if g.max_edge_size() <= 3:
        _budget.check(g.n, _budget.sim_budget(budget), "rank-class moment")
        return rank_magnitudes(rank_histogram(g), g.n)
    if g.n > WALSH_MAX_N:
        raise _budget.BudgetError(f"Walsh spectrum at n={g.n} refused: the float32 Walsh kernel "
                                  f"is exact only up to n={WALSH_MAX_N}")
    return sparse_counts(walsh_magnitudes(from_hypergraph(g, budget)))


def state_moment(g: Hypergraph, alpha) -> Fraction | float:
    """PL-moment of one state from its `state_counts`."""
    return moment_from_magnitudes(state_counts(g), g.n, alpha)


def pool_workers(jobs: int, tasks: int) -> int:
    """Worker processes for a task list: jobs clamped to the tasks and the CPUs."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _map_tasks(worker, tasks: list, jobs: int) -> list:
    """worker(t) for every task, in order; in a process pool when it gets 2+ workers."""
    workers = pool_workers(jobs, len(tasks))
    if workers == 1:
        return [worker(t) for t in tasks]
    # imported here so that a one-worker run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # spawned, not forked: the parent may already hold BLAS threads
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        return list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """`parts` contiguous (start, stop) ranges that cover range(total) in order."""
    bounds = [total * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _mc_worker(args: tuple[int, float, int, int, int, int, str]) -> list[float]:
    c, p, n, seed, start, stop, alpha_repr = args
    spec, alpha = EnsembleSpec(c, p, n, seed), Fraction(alpha_repr)
    if c == 3:
        return [float(moment_from_magnitudes(rank_magnitudes(hist, n), n, alpha))
                for hist in _sample_histograms(spec, start, stop)]
    return [float(state_moment(sample(spec, i), alpha)) for i in range(start, stop)]


def monte_carlo_moment(
    spec: EnsembleSpec, alpha, samples: int, jobs: int = 1, budget: int | None = None
) -> MomentEstimate:
    """i.i.d. mean and standard error of m_alpha over sampled states.

    Each worker takes a contiguous range of sample indices.  c = 3 draws are
    ranked together, a chunk of (sample, mask) columns per elimination;
    c >= 4 draws run the Walsh kernel one sample at a time.
    """
    spec.check()
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    _budget.check(spec.n, _budget.sim_budget(budget), "Monte Carlo moment")
    alpha = Fraction(alpha)
    tasks = [(spec.c, spec.p, spec.n, spec.seed, start, stop, str(alpha))
             for start, stop in _ranges(samples, pool_workers(jobs, samples))]
    values = [v for part in _map_tasks(_mc_worker, tasks, jobs) for v in part]
    arr = np.asarray(values, dtype=np.float64)
    return MomentEstimate(
        mean=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(samples)),
        samples=samples,
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration


def exact_average(n: int, c: int, p, alpha, tau: int = 1) -> Fraction:
    """Average of m_alpha^tau over all 2^C(n,c) graphs, exactly.

    The weight of a graph with k edges is p^k (1-p)^{C-k}, one Fraction per
    k; exact whenever p is given as a Fraction or a dyadic float.  For
    c = 3, graph index bits pick edges: a chunk of graphs' pair forms is
    summed from the per-edge form table and ranked by one elimination per
    chunk of (graph, mask) columns.  Graphs are counted per (edge count,
    rank histogram), so memory does not grow with 2^C, and each distinct
    histogram's moment is evaluated once.  For c <= 2 every graph is a
    stabilizer state, m_alpha = 1, and the weights sum to 1, so the average
    is 1 without enumeration.  Other c run the moment of each graph in turn.
    """
    edges = _c_edges(n, c)
    count = len(edges)
    if count > 22:
        raise _budget.BudgetError(f"enumeration over 2^{count} graphs refused (limit 2^22)")
    pf = Fraction(p)
    if c <= 2:
        positive_alpha(alpha)
        return Fraction(1)
    weights = [pf**k * (1 - pf) ** (count - k) for k in range(count + 1)]
    total = Fraction(0)
    if c != 3:
        for bits in range(1 << count):
            weight = weights[bits.bit_count()]
            if weight:
                chosen = [e for i, e in enumerate(edges) if (bits >> i) & 1]
                total += weight * Fraction(state_moment(from_masks(n, chosen), alpha)) ** tau
        return total
    tally: dict[tuple[int, ...], int] = {}  # (k, *rank histogram) -> graphs
    per = max(1, _RANK_CHUNK >> n)
    shifts = np.arange(count)
    for g0 in range(0, 1 << count, per):
        keep = (np.arange(g0, min(g0 + per, 1 << count))[:, None] >> shifts) & 1
        hists = _rank_histograms(_batch_forms(n, keep))
        keys, graphs = np.unique(np.column_stack([keep.sum(axis=1), hists]), axis=0,
                                 return_counts=True)
        for key, m in zip(map(tuple, keys.tolist()), graphs.tolist()):
            tally[key] = tally.get(key, 0) + m
    powers: dict[tuple[int, ...], Fraction] = {}
    for (k, *hist), m in tally.items():
        if weights[k]:
            hist = tuple(hist)
            if hist not in powers:
                moment = moment_from_magnitudes(rank_magnitudes(np.array(hist), n), n, alpha)
                powers[hist] = Fraction(moment) ** tau
            total += m * weights[k] * powers[hist]
    return total


# ---------------------------------------------------------------------------
# closed forms and bounds


def closed_m2_uniform(n: int) -> Fraction:
    """Average second PL-moment of the uniform (p = 1/2) 3-edge ensemble."""
    if n < 3:
        raise ValueError("need n >= 3")
    return Fraction(7, 2**n) - Fraction(14, 4**n) + Fraction(8, 8**n)


def bound_general(c: int, alpha: int, n: int) -> float:
    """Upper bound 2^{c + 2^{2 alpha - 1} - n} on the average moment."""
    if c < 3 or alpha < 2 or int(alpha) != alpha:
        raise ValueError("bound stated for integer alpha >= 2 and c >= 3")
    exponent = c + 2 ** (2 * int(alpha) - 1) - n
    try:
        return math.ldexp(1.0, exponent)
    except OverflowError:
        return math.inf


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def bound_e3_alpha(alpha: int, n: int) -> Fraction:
    """Upper bound 4/2^n + (2 alpha - 1)!! / 2^{(alpha-1) n} for alpha >= 3."""
    if int(alpha) != alpha or alpha < 3:
        raise ValueError("this bound is stated for integer alpha >= 3")
    alpha = int(alpha)
    return Fraction(4, 2**n) + Fraction(double_factorial(2 * alpha - 1), 2 ** ((alpha - 1) * n))


def jensen_sre_lower_bound(mean_moment, alpha) -> float:
    """Lower bound on the average entropy from the average moment (alpha > 1)."""
    alpha = float(alpha)
    if alpha <= 1:
        raise ValueError("Jensen direction needs alpha > 1")
    return log2_of(mean_moment) / (1.0 - alpha)


def variance_bound(n: int) -> Fraction:
    """Upper bound 60 / 2^{3n} on the variance of the second moment."""
    if n < 3:
        raise ValueError("need n >= 3")
    return Fraction(60, 2 ** (3 * n))


# ---------------------------------------------------------------------------
# concentration


def _conc_worker(args: tuple[int, int, int, int]) -> int:
    n, seed, start, stop = args
    floor = Fraction(8, 2**n)
    return sum(moment_from_magnitudes(rank_magnitudes(hist, n), n, 2) <= floor
               for hist in _sample_histograms(EnsembleSpec(3, 0.5, n, seed), start, stop))


def concentration_check(
    n: int, samples: int, seed: int, jobs: int = 1, budget: int | None = None
) -> ConcentrationResult:
    """Empirical Pr{M_2 >= n - 3} over the uniform 3-edge ensemble.

    The comparison m_2 <= 8 / 2^n is taken on exact rationals, so boundary
    states are classified without float noise.  The theoretical floor
    1 - 60/2^n may be negative at small n; the check is then vacuous but
    the fraction is still reported.
    """
    EnsembleSpec(3, 0.5, n, seed).check()
    if samples < 1:
        raise ValueError("need at least one sample")
    _budget.check(n, _budget.sim_budget(budget), "concentration check")
    tasks = [(n, seed, start, stop) for start, stop in _ranges(samples, pool_workers(jobs, samples))]
    return ConcentrationResult(
        n=n,
        samples=samples,
        fraction=sum(_map_tasks(_conc_worker, tasks, jobs)) / samples,
        floor=1.0 - 60.0 / 2.0**n,
    )


# ---------------------------------------------------------------------------
# composition-vector formula (general p)

KAPPA_LEN = 8


def composition_f(kappa: tuple[int, ...]) -> int:
    """Number of sign-flipping 3-edges for an 8-part vertex split.

    Literal cubic polynomial in the split sizes; the split lists, per
    nonequivalent even-parity column class 0..3, how many vertices carry
    x = 1 (+ part) and x = 0 (- part).
    """
    if len(kappa) != KAPPA_LEN or any(v < 0 for v in kappa):
        raise ValueError("kappa must be 8 non-negative integers")
    k0p, _k0m, k1p, k1m, k2p, k2m, k3p, k3m = kappa
    k1, k2, k3 = k1p + k1m, k2p + k2m, k3p + k3m
    return (
        k0p * (k1 * k2 + k2 * k3 + k3 * k1)
        + k1p * k1m * (k2 + k3)
        + k2p * k2m * (k3 + k1)
        + k3p * k3m * (k1 + k2)
        + k1p * k2m * k3m
        + k2p * k3m * k1m
        + k3p * k1m * k2m
        + k1p * k2p * k3p
    )


def _avg_m2_half_exact(n: int) -> Fraction:
    """p = 1/2: only f = 0 splits survive; their multinomial mass in closed form.

    Splits with at most one active class among 1..3 are free; with two or
    more active classes the class-0 plus part must vanish, every active
    class must be pure in x, and for three active classes the x pattern
    must have even weight.
    """
    a_mass = 3 * 4**n - 2 * 2**n
    b2 = 12 * sum(comb(n, r) * (2 ** (n - r) - 2) for r in range(0, n - 1))
    b3 = 4 * sum(
        comb(n, r) * (3 ** (n - r) - 3 * 2 ** (n - r) + 3) for r in range(0, n - 2)
    )
    return Fraction(a_mass + b2 + b3, 8**n)


def _avg_m2_exact(n: int, p: Fraction) -> Fraction:
    """Composition sum in exact rational arithmetic (small n).

    The multinomial mass is collected as integer coefficients of beta^f,
    beta = 1 - 2p, over the sorted class sizes k1 <= k2 <= k3 with orbit
    weights (see _avg_m2_log).  composition_f is linear in the class-0 plus
    part k0p with slope e2 = k1 k2 + k2 k3 + k3 k1, so a plus part of size
    j adds j e2 flips with weight C(k0, j).  The polynomial is evaluated
    once.
    """
    coef: dict[int, int] = {}
    for k1 in range(n // 3 + 1):
        for k2 in range(k1, (n - k1) // 2 + 1):
            for k3 in range(k2, n - k1 - k2 + 1):
                k0 = n - k1 - k2 - k3
                e2 = k1 * k2 + k2 * k3 + k3 * k1
                orbit = 1 if k1 == k3 else 3 if k1 == k2 or k2 == k3 else 6
                mult = orbit * comb(n, k0) * comb(n - k0, k1) * comb(k2 + k3, k2)
                plus0 = [comb(k0, j) for j in range(k0 + 1)]
                for a, b, c in product(range(k1 + 1), range(k2 + 1), range(k3 + 1)):
                    f = composition_f((0, k0, a, k1 - a, b, k2 - b, c, k3 - c))
                    w = mult * comb(k1, a) * comb(k2, b) * comb(k3, c)
                    for j, cj in enumerate(plus0):
                        coef[f + j * e2] = coef.get(f + j * e2, 0) + w * cj
    beta = 1 - 2 * p
    u, v = beta.numerator, beta.denominator
    top = max(coef)
    return Fraction(sum(w * u**f * v ** (top - f) for f, w in coef.items()), v**top * 8**n)


def _log2_binom_table(n: int) -> np.ndarray:
    table = np.full((n + 1, n + 1), -np.inf)
    for m in range(n + 1):
        for k in range(m + 1):
            table[m, k] = math.log2(comb(m, k))
    return table


def _avg_m2_log(n: int, p: float) -> float:
    """Signed log-space evaluation of the composition sum.

    The class-0 x-split collapses to a binomial factor (1 + beta^{e2})^{k0};
    the remaining three x-splits are summed on a vectorized grid.  Two
    log-accumulators track positive and negative mass so that p > 1/2,
    where the base 1 - 2p is negative, stays finite.

    Classes 1..3 enter symmetrically, so only sorted class sizes
    k1 <= k2 <= k3 are visited, each weighted by its orbit (1, 3 or 6
    orderings).  For each (k1, k2), about n^2/12 pairs, one broadcast grid
    over (k3, a, b, c) covers every k3 in [k2, n - k1 - k2] at once, where
    a, b, c are the x = 1 parts of classes 1..3.  The c axis is padded to
    the largest k3; the padded cells read log2 C(k3, c) = -inf and add
    nothing.  The grids hold about C(n + 6, 6)/6 cells in all.
    """
    beta = 1.0 - 2.0 * p
    lb = _log2_binom_table(n)
    abs_beta = abs(beta)
    log_abs_beta = math.log2(abs_beta) if abs_beta > 0 else -math.inf
    negative_base = beta < 0
    acc = [-math.inf, -math.inf]  # log2 of positive and negative mass

    def fold(branch: int, logs: np.ndarray) -> None:
        """Add the sum of 2^logs to acc[branch]; overwrites logs."""
        if logs.size == 0:
            return
        top = float(logs.max())
        if top == -math.inf:
            return
        logs -= top
        # raising terms below 2^-1000 of the largest to 2^-1000 moves the
        # chunk sum (>= 1) by far less than an ulp, and keeps exp2 off its
        # slow path for -inf and subnormal results
        np.maximum(logs, -1000.0, out=logs)
        chunk = top + math.log2(float(np.exp2(logs, out=logs).sum()))
        acc[branch] = float(np.logaddexp2(acc[branch], chunk))

    ks = np.arange(n + 1)
    for k1 in range(n // 3 + 1):
        a = ks[: k1 + 1].reshape(1, -1, 1, 1)
        for k2 in range(k1, (n - k1) // 2 + 1):
            k3 = ks[k2 : n - k1 - k2 + 1]
            k0 = n - k1 - k2 - k3
            base0 = 1.0 + beta ** (k1 * k2 + k3 * (k1 + k2))  # in [0, 2]
            live = (base0 > 0.0) | (k0 == 0)
            if not live.all():
                k3, k0, base0 = k3[live], k0[live], base0[live]
                if k3.size == 0:
                    continue
            pair = k1 == k2
            orbit = np.where(k3 == k2, 1.0 if pair else 3.0, 3.0 if pair else 6.0)
            head = (
                lb[n, k0] + lb[n - k0, k1] + lb[k2 + k3, k2] + np.log2(orbit)
                + k0 * np.log2(np.where(k0 > 0, base0, 1.0))
            ).reshape(-1, 1, 1, 1)
            b = ks[: k2 + 1].reshape(1, 1, -1, 1)
            c = ks[: k3[-1] + 1].reshape(1, 1, 1, -1)
            k3 = k3.reshape(-1, 1, 1, 1)
            # f of the split (0, k0 | a, k1-a | b, k2-b | c, k3-c) in three
            # parts, each missing one axis, so that only sums are 4-D
            f_k3ab = (a * (k1 - a) * (k2 + k3) + b * (k2 - b) * (k1 + k3)
                      + k3 * (a * (k2 - b) + b * (k1 - a)))
            f_abc = c * (k1 - 2 * a) * (k2 - 2 * b)
            f_k3c = (k1 + k2) * c * (k3 - c)
            logbin = head + lb[k1, a] + lb[k2, b]
            if abs_beta > 0:
                logs = (f_k3ab * log_abs_beta + logbin) + f_abc * log_abs_beta
                logs += f_k3c * log_abs_beta + lb[k3, c]
            else:
                f = f_k3ab + f_abc + f_k3c
                logs = np.where(f == 0, logbin + lb[k3, c], -np.inf)
            if negative_base:
                odd = (f_k3ab & 1).astype(bool) ^ (f_abc & 1).astype(bool)
                odd ^= (f_k3c & 1).astype(bool)
                fold(0, logs[~odd])
                fold(1, logs[odd])
            else:
                fold(0, logs)
    pos = 2.0 ** (acc[0] - 3 * n) if acc[0] > -math.inf else 0.0
    neg = 2.0 ** (acc[1] - 3 * n) if acc[1] > -math.inf else 0.0
    return pos - neg


def avg_m2_p(n: int, p, method: str = "auto", budget: int | None = None):
    """Average second PL-moment of the probability-p 3-edge ensemble.

    auto: p = 0 and p = 1/2 take exact shortcuts, small n enumerates the
    composition sum in rational arithmetic, large n uses the signed
    log-space evaluator.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    pf = Fraction(p)
    if not 0 <= pf <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    if method not in ("auto", "exact", "log"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        if pf == 0:
            return Fraction(1)
        if pf == Fraction(1, 2):
            return _avg_m2_half_exact(n)
        # rational powers of a float-precision p are exact but enormous;
        # keep the exact path for simple probabilities only
        if n <= 12 and pf.denominator <= 1024:
            return _avg_m2_exact(n, pf)
        _budget.check(n, _budget.theory_budget(budget), "composition sum")
        return _avg_m2_log(n, float(pf))
    if method == "exact":
        if n > 16:
            raise _budget.BudgetError("exact composition sum refused beyond n = 16")
        return _avg_m2_exact(n, pf)
    _budget.check(n, _budget.theory_budget(budget), "composition sum")
    return _avg_m2_log(n, float(pf))


# ---------------------------------------------------------------------------
# edge budget solver (expected edges needed for a target average entropy)


def _neg_log2_avg(n: int, p: float) -> float:
    if p == 0.0:
        return 0.0
    if p == 0.5:
        return -log2_of(_avg_m2_half_exact(n))
    return -math.log2(_avg_m2_log(n, p))


def solve_edge_budget(
    n: int,
    gamma: float,
    tol: float = 1e-9,
    budget: int | None = None,
) -> EdgeBudgetResult:
    """Solve for p in [0, 1/2] at which the Jensen entropy bound reaches gamma * n.

    The bound -log2 <m2> is non-decreasing on [0, 1/2], term by term: there
    beta = 1 - 2p lies in [0, 1], so every composition term mult * beta^f is
    non-negative and non-increasing in p.  Its supremum over the range is
    therefore the p = 1/2 value cap = -log2(7/2^n - 14/4^n + 8/8^n), left
    by the f = 0 terms alone; targets above it are reported as unreachable
    with the cap.  (For p > 1/2 the negative base lets <m2> dip slightly
    below its p = 1/2 value, e.g. near p = 0.54; that range is not searched.)

    Brent's method runs on the bracket [0, 1/2], whose end values 0 and cap
    are known without a composition-sum evaluation.  It stops once the
    achieved value is within tol of the target and returns the p at which
    that value was evaluated.  Every evaluated point is checked against its
    neighbours for monotonicity, which the bracketing relies on.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be inside (0, 1)")
    if n < 3:
        raise ValueError("need n >= 3")
    target = gamma * n
    # the p = 1/2 cap is exact and O(n); decide reachability before any
    # heavy evaluation so unreachable targets are cheap to report at any n
    cap = _neg_log2_avg(n, 0.5)
    if target > cap + 1e-12:
        return EdgeBudgetResult(
            n=n, gamma=gamma, reachable=False, p=None, expected_edges=None,
            achieved=cap, cap=cap,
        )
    _budget.check(n, _budget.theory_budget(budget), "edge budget solve")
    ps, values = [0.0, 0.5], [0.0, cap]

    def residual(p: float) -> float:
        value = _neg_log2_avg(n, p)
        i = bisect.bisect(ps, p)
        if values[i - 1] > value + 1e-9 or value > values[i] + 1e-9:
            raise RuntimeError(
                f"non-monotone -log2 <m2> near p = {p!r}; the bracketing "
                "solve would be unsound"
            )
        ps.insert(i, p)
        values.insert(i, value)
        return value - target

    # Brent's zeroin: b is the best estimate, c the contrapoint bracketing
    # the root with b, a the previous b
    a, fa = 0.0, -target
    b, fb = 0.5, cap - target
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        step_tol = 2.0 * sys.float_info.epsilon * abs(b) + 0.5e-15
        half = 0.5 * (c - b)
        if abs(fb) <= tol or abs(half) <= step_tol:
            break
        if abs(e) >= step_tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                num, den = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                num = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                den = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if num > 0:
                den = -den
            num = abs(num)
            if 2.0 * num < min(3.0 * half * den - abs(step_tol * den), abs(e * den)):
                e, d = d, num / den
            else:  # interpolation step rejected: bisect
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > step_tol else math.copysign(step_tol, half)
        fb = residual(b)
    p = b
    return EdgeBudgetResult(
        n=n,
        gamma=gamma,
        reachable=True,
        p=p,
        expected_edges=p * comb(n, 3),
        achieved=values[ps.index(p)],
        cap=cap,
    )
