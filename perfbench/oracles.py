"""Correctness oracles: each benchmark result is checked against a second route.

They run after the timed phase. `check(request, stdout)` returns None when
the CLI output agrees with the oracle and a one-line reason otherwise.

* exact: both exact moments against `rank_moment` (c <= 3 on the direct
  route), a batched GF(2) rank written here (c <= 3 on the rank route), the
  `symmetric` closed forms (builtins), or `star_trace_sum` (c >= 4).
* mc: every per-sample moment is recomputed through another route (the
  batched rank here for c = 3, a batched Walsh transform here for c >= 4)
  and the mean and standard error are rebuilt from them.
* enum: p = 1/2 against `closed_m2_uniform`, other p against the
  composition formula `avg_m2_p(..., method="exact")`.
* eval: at n <= 12, against the exact composition sum grouped by flip count.
* solve: the target is met, and -log2 <m2> at the returned p reproduces the
  reported value on the log path and on the exact composition sum.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial

import numpy as np

from hypermagic import ensembles, spectrum, symmetric
from hypermagic.hypergraph import from_masks

REL_TOL = 1e-12  # float aggregates rebuilt in the same order
LOG_VS_EXACT_TOL = 1e-10  # signed log-space evaluator against exact rationals
SOLVE_TOL = 1e-9  # solve_edge_budget's default target tolerance
STAR_ORACLE_MAX_N = 10
EVAL_EXACT_MAX_N = 12


def parse_rows(text: str) -> list[dict]:
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(body))


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# independent routes


def batched_rank_moments(graphs, alpha) -> list[Fraction]:
    """PL-moments of c <= 3 graphs on n vertices from GF(2) ranks of B(x).

    One vectorized Gaussian elimination over all 2^n masks of all graphs at
    once, built from the 3-edges directly; shares no code with
    `spectrum.rank_histogram`.
    """
    alpha = Fraction(alpha)
    n = graphs[0].n
    size = 1 << n
    xs = np.arange(size, dtype=np.int64)
    rows = np.zeros((n, len(graphs), size), dtype=np.int64)
    for s, g in enumerate(graphs):
        thirds: dict[tuple[int, int], int] = {}  # pair -> mask of third vertices
        for e in g.edges:
            if e.bit_count() > 3:
                raise ValueError("the rank oracle needs edges of at most 3 vertices")
            if e.bit_count() == 3:
                a, b, c = (v for v in range(n) if e >> v & 1)
                for j, k, third in ((a, b, c), (a, c, b), (b, c, a)):
                    thirds[j, k] = thirds.get((j, k), 0) ^ (1 << third)
        for (j, k), mask in thirds.items():
            flag = np.bitwise_count(xs & mask).astype(np.int64) & 1
            rows[j, s] ^= flag << k
            rows[k, s] ^= flag << j
    rows = rows.reshape(n, -1)
    rank = np.zeros(rows.shape[1], dtype=np.int64)
    for i in range(n):
        piv = rows[i]
        live = piv != 0
        rank += live
        lead = np.maximum(np.frexp(piv.astype(np.float64))[1] - 1, 0)  # highest set bit
        for j in range(i + 1, n):
            hit = live & (((rows[j] >> lead) & 1) == 1)
            rows[j] ^= piv & -hit.astype(np.int64)
    moments = []
    for ranks in rank.reshape(len(graphs), size):
        hist = np.bincount(ranks, minlength=n + 1).tolist()
        if any(hist[1::2]):
            raise ValueError("odd rank of a symmetric zero-diagonal form")
        total = sum(count * Fraction(2) ** int((1 - alpha) * r)
                    for r, count in enumerate(hist) if count)
        moments.append(total / size)
    return moments


def walsh_m2(g) -> Fraction:
    """Second moment from one batched Walsh transform of v(a) v(a ^ x) over all x.

    Builds the phase table from the edges directly; shares no code with
    `full_spectrum` or `star_trace_sum`.
    """
    n = g.n
    if n > 10:
        raise ValueError("the batched Walsh oracle holds 4^n int64 values; n <= 10")
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    f = np.zeros(size, dtype=np.int64)
    for e in g.edges:
        f ^= ((idx & e) == e).astype(np.int64)
    v = 1 - 2 * f
    w = v[None, :] * v[idx[:, None] ^ idx[None, :]]
    h = 1
    while h < size:
        w = w.reshape(size, -1, 2 * h)
        left, right = w[:, :, :h].copy(), w[:, :, h:].copy()
        w[:, :, :h] = left + right
        w[:, :, h:] = left - right
        h *= 2
    sq = w.reshape(size, size) ** 2
    return Fraction(int(np.sum(sq * sq, dtype=np.int64)), 2 ** (5 * n))


def star_moment(g, alpha) -> Fraction:
    alpha = Fraction(alpha)
    total = spectrum.star_trace_sum(g, alpha)
    return Fraction(total, 2 ** int(g.n * (1 + 2 * alpha)))


@cache
def _flip_coefficients(n: int) -> dict[int, int]:
    """Multinomial mass of the 8-part splits of n, grouped by flip count f."""
    coeffs: dict[int, int] = {}
    nfact = factorial(n)
    for bars in combinations(range(n + 7), 7):  # stars and bars
        cuts = (-1,) + bars + (n + 7,)
        kappa = tuple(cuts[i + 1] - cuts[i] - 1 for i in range(8))
        mult = nfact
        for part in kappa:
            mult //= factorial(part)
        f = ensembles.composition_f(kappa)
        coeffs[f] = coeffs.get(f, 0) + mult
    return coeffs


def exact_avg_m2(n: int, p) -> Fraction:
    """<m2> of the probability-p 3-edge ensemble as a polynomial in 1 - 2p."""
    beta = 1 - 2 * Fraction(p)
    return sum(c * beta**f for f, c in _flip_coefficients(n).items()) / Fraction(8**n)


# ---------------------------------------------------------------------------
# per-kind checks


def expected_exact_moment(meta: dict, alpha: Fraction) -> Fraction:
    n = meta["n"]
    family = meta.get("family")
    if family == "3complete":
        return symmetric.closed_3complete(n, alpha)
    if family == "ncomplete":
        return symmetric.closed_ncomplete(n, alpha)
    g = from_masks(n, meta["edges"])
    if g.max_edge_size() <= 3:
        # spectrum_budget (12) is where the CLI leaves the direct route
        return spectrum.rank_moment(g, alpha) if n <= 12 else batched_rank_moments([g], alpha)[0]
    if n > STAR_ORACLE_MAX_N:
        raise ValueError(f"no oracle for c >= 4 at n={n}")
    return star_moment(g, alpha)


def _check_exact(meta: dict, rows: list[dict]) -> str | None:
    if [r["alpha"] for r in rows] != ["2", "1/2"]:
        return f"alpha rows {[r['alpha'] for r in rows]}"
    for row in rows:
        alpha = Fraction(row["alpha"])
        if not row["pl_moment_exact"]:
            return f"alpha={alpha}: no exact moment"
        got = Fraction(row["pl_moment_exact"])
        want = expected_exact_moment(meta, alpha)
        if got != want:
            return f"alpha={alpha}: moment {got} != oracle {want}"
        if float(row["pl_moment"]) != float(want):
            return f"alpha={alpha}: float moment {row['pl_moment']} != {float(want)}"
        sre = (math.log2(want.numerator) - math.log2(want.denominator)) / (1 - float(alpha))
        if not _close(float(row["sre"]), sre, 1e-12):
            return f"alpha={alpha}: sre {row['sre']} != {sre}"
    return None


def _check_mc(meta: dict, rows: list[dict]) -> str | None:
    (row,) = rows
    samples = int(row["samples"])
    if samples != meta["samples"]:
        return f"samples {samples} != {meta['samples']}"
    spec = ensembles.EnsembleSpec(meta["c"], meta["p"], meta["n"], meta["seed"])
    graphs = [ensembles.sample(spec, i) for i in range(samples)]
    if meta["c"] <= 3:
        values = batched_rank_moments(graphs, 2)
    else:
        values = [walsh_m2(g) for g in graphs]
    arr = np.asarray([float(m) for m in values], dtype=np.float64)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(samples))
    if not _close(float(row["value"]), mean, REL_TOL):
        return f"mean {row['value']} != rebuilt {mean!r}"
    if not _close(float(row["stderr"]), stderr, 1e-9):
        return f"stderr {row['stderr']} != rebuilt {stderr!r}"
    return None


def _check_enum(meta: dict, rows: list[dict]) -> str | None:
    (row,) = rows
    p = Fraction(meta["p"])
    if p == Fraction(1, 2):
        want = ensembles.closed_m2_uniform(meta["n"])
    else:
        want = ensembles.avg_m2_p(meta["n"], p, method="exact")
    if float(row["value"]) != float(want):
        return f"enumeration {row['value']} != {float(want)!r}"
    return None


def _check_eval(meta: dict, rows: list[dict]) -> str | None:
    (row,) = rows
    value = float(row["value"])
    if not 0.0 < value <= 1.0:
        return f"<m2> = {value} outside (0, 1]"
    if not _close(float(row["sre_lower_bound"]), -math.log2(value), 1e-12):
        return f"sre_lower_bound {row['sre_lower_bound']} != -log2({value})"
    if meta["n"] <= EVAL_EXACT_MAX_N:
        want = float(exact_avg_m2(meta["n"], meta["p"]))
        if not _close(value, want, LOG_VS_EXACT_TOL):
            return f"log path {value!r} != exact {want!r}"
    return None


def _check_solve(meta: dict, rows: list[dict]) -> str | None:
    (row,) = rows
    if row["status"] != "ok":
        return f"status {row['status']}"
    n, gamma = meta["n"], meta["gamma"]
    p = float(row["p"])
    achieved = float(row["sre_lower_bound"])
    if abs(achieved - gamma * n) > SOLVE_TOL:
        return f"achieved {achieved!r} misses target {gamma * n!r}"
    relog = -math.log2(ensembles.avg_m2_p(n, p, method="log"))
    if not _close(achieved, relog, REL_TOL):
        return f"achieved {achieved!r} != log-path recompute {relog!r}"
    exact = -math.log2(float(exact_avg_m2(n, p)))
    if abs(achieved - exact) > SOLVE_TOL:
        return f"achieved {achieved!r} != exact recompute {exact!r}"
    if not _close(float(row["expected_edges"]), p * comb(n, 3), REL_TOL):
        return f"expected_edges {row['expected_edges']} != p * C(n, 3)"
    return None


_CHECKS = {
    "exact": _check_exact,
    "mc": _check_mc,
    "enum": _check_enum,
    "eval": _check_eval,
    "solve": _check_solve,
}


def check(request, stdout: str) -> str | None:
    """None if the output is right, else the reason it is not."""
    try:
        rows = parse_rows(stdout)
        if not rows:
            return "no result rows"
        return _CHECKS[request.kind](request.meta, rows)
    except (ValueError, KeyError, ZeroDivisionError, TypeError) as exc:
        return f"check raised {exc!r}"
