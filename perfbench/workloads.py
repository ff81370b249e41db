"""Seeded request generators for the three benchmark workloads.

A workload is a cycle of blocks with a fixed composition: every block holds
the same number of requests of each class at the same sizes, in an order the
seed shuffles. The seed chooses only the random graphs, probabilities,
targets and per-request sample seeds. A run measures whole blocks, so every
run sees the workload's nominal mix, and two seeds give the same work up to
the cost of the random draws.

The class shares are chosen so that the median and the 90th percentile of
request latency each fall well inside one class (noted per workload), not
on a class boundary. This module imports nothing from the program: the
program sees only the argv lists and graph files generated here.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations

# Every request runs serially: the benchmark host has two shared cores.
JOBS = ("--jobs", "1")


@dataclass
class Request:
    """One CLI invocation. `graph` is the text of a --graph file, if any."""

    cls: str
    kind: str  # oracle dispatch: exact | mc | enum | eval | solve
    argv: list[str]
    meta: dict = field(default_factory=dict)
    graph: str | None = None


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{block}")


def graph_text(n: int, masks: list[int]) -> str:
    lines = [str(n)]
    for m in masks:
        lines.append(" ".join(str(v + 1) for v in range(n) if m >> v & 1))
    return "\n".join(lines) + "\n"


def _uniform_masks(rng: random.Random, n: int, c: int, p: float) -> list[int]:
    return [sum(1 << v for v in combo) for combo in combinations(range(n), c) if rng.random() < p]


# ---------------------------------------------------------------------------
# exact-states: `hypermagic exact --alpha 2,1/2`
#
# Per block of 40: 24 small (60%), 14 medium (35%), 2 large (5%). Sorted by
# latency, the median sits among the n=8 small graphs and the 90th
# percentile among the n=11 direct-route medium requests.

EXACT_SMALL_NS = (4,) * 4 + (5,) * 4 + (6,) * 4 + (7,) * 5 + (8,) * 7
EXACT_MEDIUM = (
    ("random", 3, 0.5, 9), ("random", 3, 0.5, 10), ("random", 3, 0.5, 11),
    ("random", 4, 0.15, 9), ("random", 4, 0.15, 10),
    ("random", 3, 0.5, 13), ("random", 3, 0.5, 14), ("random", 3, 0.5, 15),
    ("builtin", "3complete", 9), ("builtin", "3complete", 10), ("builtin", "3complete", 11),
    ("builtin", "ncomplete", 9), ("builtin", "ncomplete", 10), ("builtin", "ncomplete", 11),
)
EXACT_ALPHAS = "2,1/2"


def _exact_graph(cls: str, n: int, masks: list[int]) -> Request:
    return Request(cls, "exact", ["exact", "--alpha", EXACT_ALPHAS, *JOBS],
                   {"n": n, "edges": masks}, graph_text(n, masks))


def _exact_builtin(cls: str, family: str, n: int) -> Request:
    return Request(cls, "exact", ["exact", "--builtin", f"{family}:{n}", "--alpha", EXACT_ALPHAS, *JOBS],
                   {"n": n, "family": family})


def exact_states_block(seed: int, block: int) -> list[Request]:
    rng = _rng("exact-states", seed, block)
    out = []
    for n in EXACT_SMALL_NS:
        # arbitrary cardinalities: 2n distinct nonempty vertex subsets
        masks = sorted(rng.sample(range(1, 1 << n), 2 * n))
        out.append(_exact_graph("small", n, masks))
    for spec in EXACT_MEDIUM:
        if spec[0] == "builtin":
            out.append(_exact_builtin("medium", spec[1], spec[2]))
        else:
            _, c, p, n = spec
            out.append(_exact_graph("medium", n, _uniform_masks(rng, n, c, p)))
    # large: n = 12 on the direct route, one random c <= 3 state and one builtin
    masks = (_uniform_masks(rng, 12, 3, 0.5) + _uniform_masks(rng, 12, 2, 0.25)
             + _uniform_masks(rng, 12, 1, 0.25))
    out.append(_exact_graph("large", 12, sorted(masks)))
    out.append(_exact_builtin("large", "3complete" if block % 2 == 0 else "ncomplete", 12))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# ensemble-mc: `hypermagic ensemble --samples` and `--exact`
#
# Per block of 20: 15 rank (75%), 2 enum (10%), 3 star (15%). The median
# sits among the n=12 rank requests, the 90th percentile among the star
# requests.

MC_RANK_NS = (10,) * 2 + (11,) * 3 + (12,) * 10
MC_RANK_PS = (0.25, 0.5, 0.75)
MC_RANK_SAMPLES = 8
MC_STAR_COUNT = 3
MC_STAR_SAMPLES = 2
MC_ENUM_N = 5


def _mc(cls: str, c: int, p: float, n: int, samples: int, seed: int) -> Request:
    argv = ["ensemble", "-c", str(c), "-p", repr(p), "-n", str(n), "--samples", str(samples),
            "--alpha", "2", "--seed", str(seed), *JOBS]
    return Request(cls, "mc", argv, {"c": c, "p": p, "n": n, "samples": samples, "seed": seed})


def _enum(p: float) -> Request:
    argv = ["ensemble", "-c", "3", "-p", repr(p), "-n", str(MC_ENUM_N), "--exact", "--alpha", "2", *JOBS]
    return Request("enum", "enum", argv, {"c": 3, "p": p, "n": MC_ENUM_N})


def ensemble_mc_block(seed: int, block: int) -> list[Request]:
    rng = _rng("ensemble-mc", seed, block)
    out = []
    for i, n in enumerate(MC_RANK_NS):
        p = MC_RANK_PS[i % len(MC_RANK_PS)]
        out.append(_mc("rank", 3, p, n, MC_RANK_SAMPLES, rng.randrange(1 << 31)))
    for _ in range(MC_STAR_COUNT):
        out.append(_mc("star", 4, 0.25, 10, MC_STAR_SAMPLES, rng.randrange(1 << 31)))
    out.append(_enum(0.5))
    out.append(_enum(rng.choice((0.25, 0.75))))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# theory: single `ensemble --theory` evaluations and single-point sweeps
#
# Per block of 20: 17 eval (85%), 3 solve (15%). Evaluation cost grows with
# n, so the median sits among the five n=16 evaluations and the 90th
# percentile among the n=8 solves.

THEORY_EVAL_NS = (10, 10, 11, 11, 12, 12, 13, 14, 16, 16, 16, 16, 16, 20, 22, 24, 28)
THEORY_SOLVE_NS = (8, 8, 9)


def _eval(n: int, p: float) -> Request:
    argv = ["ensemble", "-c", "3", "-p", repr(p), "-n", str(n), "--theory", "--alpha", "2", *JOBS]
    return Request("eval", "eval", argv, {"n": n, "p": p})


def _solve(n: int, gamma: float) -> Request:
    argv = ["sweep", "--gamma", repr(gamma), "--n-range", str(n), *JOBS]
    return Request("solve", "solve", argv, {"n": n, "gamma": gamma})


def theory_block(seed: int, block: int) -> list[Request]:
    rng = _rng("theory", seed, block)
    out = []
    for n in THEORY_EVAL_NS:
        # odd k keeps p != 1/2 and the denominator at 4096, so the CLI takes
        # the signed log-space evaluator (beta = 1 - 2p of either sign)
        k = 2 * rng.randrange(41, 2007) + 1
        out.append(_eval(n, k / 4096))
    for n in THEORY_SOLVE_NS:
        out.append(_solve(n, rng.randrange(300, 601) / 1000))
    rng.shuffle(out)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[int, int], list[Request]]  # (seed, block index) -> requests
    max_blocks: int  # distinct blocks generated at set-up; the run cycles them


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-states", exact_states_block, 6),
        Workload("ensemble-mc", ensemble_mc_block, 12),
        Workload("theory", theory_block, 12),
    )
}


def generate(workload: str, seed: int, blocks: int | None = None) -> list[list[Request]]:
    w = WORKLOADS[workload]
    return [w.block(seed, b) for b in range(w.max_blocks if blocks is None else blocks)]
