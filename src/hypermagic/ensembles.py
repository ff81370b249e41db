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
import functools
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
from .spectrum import (_RANK_CHUNK, _rank_histograms, check_walsh_range, moment_from_magnitudes,
                       positive_alpha, rank_histogram, rank_magnitudes, sparse_counts,
                       walsh_magnitudes)
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
        yield from _rank_histograms(spec.n, keep)


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
    check_walsh_range(g.n)
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
    c = 3, graph index bits pick edges: a block of graphs' edge flags goes
    to the rank kernel, which ranks them by one elimination per chunk of
    (graph, mask) columns.  Graphs are counted per (edge count,
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
        hists = _rank_histograms(n, keep)
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
    """The paper's stated envelope 60 / 2^{3n} for the variance of m_2 at p = 1/2.

    It is not an upper bound: the exact variance
    168 (2^n - 1)(2^n - 2)(2^n - 4) / 2^{6n} exceeds it for every n >= 4
    (6615/262144 against 60/4096 at n = 4), and 8^n Var -> 168.
    """
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
    states are classified without float noise.  The floor 1 - 60/2^n,
    from the paper's variance envelope (see `variance_bound`), may be
    negative at small n; the check is then vacuous but the fraction is
    still reported.
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


@functools.cache
def _flip_counts(n: int) -> tuple[tuple[int, int], ...]:
    """The composition sum as (f, w) pairs, sorted by f: splits of weight w flip f edges.

    The multinomial mass is collected as integer coefficients of beta^f,
    beta = 1 - 2p, over the sorted class sizes k1 <= k2 <= k3 with orbit
    weights (see _avg_m2_log).  composition_f is linear in the class-0 plus
    part k0p with slope e2 = k1 k2 + k2 k3 + k3 k1, so a plus part of size
    j adds j e2 flips with weight C(k0, j).  None of it depends on p, so it
    is built once per n (1.2 ms at n = 8, 27 ms at n = 16 on a 2-core VM)
    and kept: 124 pairs in 5 KiB at n = 12, 305 in 15 KiB at n = 16, and
    92 KiB for every n = 3 ... 16, the exact path's range.
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
    return tuple(sorted(coef.items()))


def _avg_m2_exact(n: int, p: Fraction) -> Fraction:
    """Composition sum in exact rational arithmetic (small n).

    The cached `_flip_counts` polynomial in beta = 1 - 2p, evaluated once.
    """
    coef = _flip_counts(n)
    beta = 1 - 2 * p
    u, v = beta.numerator, beta.denominator
    top = coef[-1][0]
    return Fraction(sum(w * u**f * v ** (top - f) for f, w in coef), v**top * 8**n)


@functools.cache
def _log2_binom_table(n: int) -> np.ndarray:
    """log2 C(m, k) for 0 <= m <= n and 0 <= k <= n + 1, -inf where k > m; read-only."""
    table = np.full((n + 1, n + 2), -np.inf)
    for m in range(n + 1):
        table[m, : m + 1] = [math.log2(comb(m, k)) for k in range(m + 1)]
    table.setflags(write=False)
    return table


def _sorted_heads(n: int, beta: float, lb: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """log2 of the k3-only weight of every sorted (k1, k2, k3), minus 3n.

    The weight is the multinomial of (k0, k1, k2, k3), the orbit weight and
    the class-0 factor (1 + beta^e2)^k0.  Indexed [k1, k2, k3]; -inf where
    the triple is not sorted, overfills n, or has a vanishing class-0 base.
    """
    j1, j2, j3 = ks[: n // 3 + 1, None, None], ks[: n // 2 + 1, None], ks[: n + 1]
    k1, k2, k3 = np.nonzero((j1 <= j2) & (j2 <= j3) & (j1 + j2 + j3 <= n))
    k0 = n - k1 - k2 - k3
    base0 = 1.0 + beta ** (k1 * k2 + k3 * (k1 + k2))  # in [0, 2]
    orbit = np.where(k1 == k3, 1.0, np.where((k1 == k2) | (k2 == k3), 3.0, 6.0))
    logs = (lb[n, k0] + lb[n - k0, k1] + lb[k2 + k3, k2] + np.log2(orbit) - 3 * n
            + k0 * np.log2(np.where(base0 > 0.0, base0, 1.0)))
    head = np.full((n // 3 + 1, n // 2 + 1, n + 1), -np.inf)
    head[k1, k2, k3] = np.where((base0 > 0.0) | (k0 == 0), logs, -np.inf)
    return head


def _avg_m2_log(n: int, p: float) -> float:
    """Float evaluation of the composition sum: one signed linear-space sum per grid.

    Structure.  The class-0 x-split collapses to a binomial factor
    (1 + beta^{e2})^{k0}, beta = 1 - 2p.  Classes 1..3 enter symmetrically,
    so only sorted class sizes k1 <= k2 <= k3 are visited, each weighted by
    its orbit (1, 3 or 6 orderings); `_sorted_heads` computes these k3-only
    factors for every triple in one vectorized pass.  For each (k1, k2),
    about n^2/12 pairs, one broadcast grid over (k3, a, b, c) covers every
    k3 in [k2, n - k1 - k2] at once, where a, b, c are the x = 1 parts of
    classes 1..3.  With m = k1 + k2 the flip count splits as

        f = P(a, b) + k3 Q(a, b) + c R(a, b) + m c (k3 - c),

    so the (k3, a, b), (a, b, c) and (k3, c) parts of a term's exponent are
    built on their own axes, and only the two adds that join them are 4-D.
    The c axis holds the even c, then the odd c, padded to an even length
    of at least the largest k3 + 1; the padded cells read
    log2 C(k3, c) = -inf.  The grids hold about C(n + 6, 6)/4 cells in all,
    C(n + 6, 6)/6 of them unpadded.

    Sum.  A term is 2^(log2 weight - 3n + f log2|beta|).  The weights of all
    terms add up to at most 8^n, so after the 3n shift no term exceeds 1
    and the terms are summed as plain doubles.  Exponents are raised to
    -1000 before exp2, which moves the result (at least 2^-n) by far less
    than an ulp and keeps exp2 off its slow path for -inf and subnormal
    results.  For p > 1/2 the base is negative and a term's sign is the
    parity of f.  Each grid first sums its even c and its odd c apart; the
    parity of f is then P + k3 Q + (c mod 2)(R + m + m k3), which needs
    no 4-D array.  At p = 1/2 the grid runs at |beta| = 2^-(n + 64); the
    f >= 1 terms then add at most 2^-(n + 64) to the f = 0 value, which is
    above 2^-n.

    Accuracy: within 1e-13 relative of the exact composition sum on the
    probabilities k/4096 at n <= 12, and within 1e-11 at the points the
    tests check up to n = 30, p > 1/2 included.  Memory: one grid is held at
    a time, at most 79 KiB at n = 28 and 1.6 MiB at n = 64; with numpy's
    broadcast buffers and the heads a call peaks near 270 KiB and 2.5 MiB
    (tracemalloc).  The (n + 1)(n + 2) log-binomial table is kept per n.
    """
    beta = 1.0 - 2.0 * p
    lb = _log2_binom_table(n)
    lbeta = math.log2(abs(beta)) if beta else -(n + 64.0)
    ks = np.arange(n + 2)
    tx = ks * (ks[: n + 1, None] - ks)  # tx[k, x] = x (k - x)
    head = _sorted_heads(n, beta, lb, ks)
    lz = lbeta * tx
    if beta < 0.0:
        sign = 1.0 - 2.0 * ks[:2]
    # c in the order 0, 2, 4, ..., 1, 3, 5, ...: even and odd c as two halves
    evens_odds = 2 * ks[: n // 2 + 2] + ks[:2, None]
    total = 0.0
    for k1 in range(n // 3 + 1):
        a = ks[: k1 + 1, None]
        for k2 in range(k1, (n - k1) // 2 + 1):
            m, top = k1 + k2, n - k1 - k2
            half = (top + 2) // 2
            c = evens_odds[:, :half].ravel()
            b, k3 = ks[: k2 + 1], ks[k2 : top + 1, None, None]
            # P, Q and R of the split in the docstring, on the (a, b) plane
            pf = k2 * tx[k1, a] + k1 * tx[k2, b]
            qf = tx[m, a + b]
            rf = (k1 - 2 * a) * (k2 - 2 * b)
            x = k3 * (lbeta * qf) + (lbeta * pf + lb[k1, a] + lb[k2, b])
            x += head[k1, k2, k2 : top + 1, None, None]
            logs = x[..., None] + (lbeta * rf)[..., None] * c
            logs += (lb[k2 : top + 1, c] + m * lz[k2 : top + 1, c])[:, None, None, :]
            np.maximum(logs, -1000.0, out=logs)
            np.exp2(logs, out=logs)
            if beta >= 0.0:
                total += float(logs.sum())
            else:
                halves = logs.reshape(-1, 2, half).sum(axis=2)  # even c, odd c
                odd = (k3 * qf + pf)[..., None] + (rf + m + m * k3)[..., None] * ks[:2]
                total += float(np.vdot(halves, sign[odd & 1]))
            del logs  # so that the next grid is not built while this one is held
    return total


def avg_m2_p(n: int, p, method: str = "auto", budget: int | None = None):
    """Average second PL-moment of the probability-p 3-edge ensemble.

    auto: p = 0 and p = 1/2 take exact shortcuts (p = 1/2 is
    `closed_m2_uniform`), small n enumerates the composition sum in
    rational arithmetic, large n uses the float evaluator `_avg_m2_log`.
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
            return closed_m2_uniform(n)
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
        return -log2_of(closed_m2_uniform(n))
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
