"""Cross-route invariant suites: every analytic path against its oracle.

Each suite returns a list of named checks; the CLI prints one verdict per
check and exits nonzero on any failure.  The same functions back the
acceptance tests so the command line and the test suite cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ensembles, magic, spectrum, symmetric
from .hypergraph import Hypergraph, PauliIndex, c_complete, from_masks
from .phasestate import apply_stabilizer, from_hypergraph, stabilizer_word


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def random_hypergraph(n: int, rng: np.random.Generator, max_edges: int = 6) -> Hypergraph:
    """Arbitrary-cardinality random hypergraph on n vertices."""
    universe = (1 << n) - 1
    count = min(int(rng.integers(0, max_edges + 1)), universe)
    masks = set()
    while len(masks) < count:
        m = int(rng.integers(1, universe + 1))
        masks.add(m)
    return from_masks(n, masks)


def random_uniform3(n: int, rng: np.random.Generator, p: float = 0.5) -> Hypergraph:
    spec = ensembles.EnsembleSpec(3, p, n, int(rng.integers(0, 2**62)))
    return ensembles.sample(spec, 0)


def suite_prop1(graphs: int = 50, seed: int = 20240901) -> list[CheckResult]:
    """Squared direct components equal induced-graph traces, exhaustively."""
    rng = np.random.default_rng(seed)
    out = []
    for g_index in range(graphs):
        n = int(rng.integers(2, 6))
        g = random_hypergraph(n, rng)
        state = from_hypergraph(g)
        ok = True
        bad = ""
        for x in range(1 << n):
            for z in range(1 << n):
                p = PauliIndex(x, z)
                direct = spectrum.component_direct(state, p)
                induced = spectrum.component_induced(g, p)
                if direct * direct != induced:
                    ok = False
                    bad = f"(x={x}, z={z}) on {g!r}"
                    break
            if not ok:
                break
        out.append(CheckResult(f"prop1 graph {g_index} (n={n})", ok, bad or "all (x,z) agree"))
    return out


def suite_obs1(graphs: int = 20, seed: int = 20240902, max_n: int = 8) -> list[CheckResult]:
    """Every generalized stabilizer fixes its state bit-exactly."""
    rng = np.random.default_rng(seed)
    out = []
    for g_index in range(graphs):
        n = int(rng.integers(2, max_n + 1))
        g = random_hypergraph(n, rng)
        state = from_hypergraph(g)
        ok = True
        bad = ""
        for s in range(1 << n):
            word = stabilizer_word(g, s)
            if apply_stabilizer(state, word) != state:
                ok = False
                bad = f"selector {s:#x} on {g!r}"
                break
        out.append(CheckResult(f"obs1 graph {g_index} (n={n})", ok, bad or "fixed point holds"))
    return out


def suite_counting() -> list[CheckResult]:
    """Counting route equals exhaustive enumeration for small n."""
    out = []
    n_value = ensembles.counting_N(3, 2, 3)
    out.append(CheckResult("counting N(3,2,3)", n_value == 2752, f"N = {n_value}"))
    for n in (3, 4, 5):
        counted = ensembles.moment_from_counting(3, 2, n)
        enumerated = ensembles.exact_average(n, 3, Fraction(1, 2), 2)
        out.append(
            CheckResult(
                f"counting vs enumeration n={n}",
                counted == enumerated,
                f"{counted} vs {enumerated}",
            )
        )
    return out


def suite_thm6(max_exact_n: int = 10) -> list[CheckResult]:
    """Composition-sum reductions and the log-path against the exact path."""
    out = []
    for n in range(3, 31):
        lhs = ensembles.avg_m2_p(n, Fraction(1, 2))
        rhs = ensembles.closed_m2_uniform(n)
        out_ok = lhs == rhs
        if n in (3, 10, 20, 30) or not out_ok:
            out.append(CheckResult(f"thm6 p=1/2 n={n}", out_ok, f"{lhs} vs {rhs}"))
        if not out_ok:
            break
    out.append(
        CheckResult("thm6 p=0", ensembles.avg_m2_p(8, 0) == 1, "all-plus ensemble")
    )
    val = ensembles.avg_m2_p(3, 1)
    out.append(CheckResult("thm6 p=1 n=3", val == Fraction(11, 32), f"value {val}"))
    for p in (0.25, 0.375, 0.75):
        for n in (4, max_exact_n):
            exact = float(ensembles.avg_m2_p(n, Fraction(p), method="exact"))
            logv = ensembles.avg_m2_p(n, p, method="log")
            rel = abs(logv - exact) / exact
            out.append(
                CheckResult(
                    f"thm6 log-path p={p} n={n}", rel < 1e-10, f"relative error {rel:.2e}"
                )
            )
    return out


def suite_symmetric(max_n: int = 10) -> list[CheckResult]:
    """Closed forms for the symmetric families against brute-force spectra,
    and against the Krawtchouk route up to n = 40."""
    out = []
    for n in range(3, max_n + 1):
        g3 = c_complete(n, 3)
        m2 = spectrum.rank_moment(g3, 2)
        mh = spectrum.rank_moment(g3, Fraction(1, 2))
        out.append(
            CheckResult(
                f"3-complete n={n}",
                m2 == symmetric.closed_3complete(n, 2)
                and mh == symmetric.closed_3complete(n, Fraction(1, 2)),
                f"m2={m2}, m_half={mh}",
            )
        )
    for n in range(2, max_n + 1):
        gn = c_complete(n, n)
        state = from_hypergraph(gn)
        spec_full = spectrum.full_spectrum(state)
        m2 = magic.pl_moment(spec_full, 2)
        mh = magic.pl_moment(spec_full, Fraction(1, 2))
        out.append(
            CheckResult(
                f"n-complete n={n}",
                m2 == symmetric.closed_ncomplete(n, 2)
                and mh == symmetric.closed_ncomplete(n, Fraction(1, 2)),
                f"m2={m2}, m_half={mh}",
            )
        )
    families = (("3-complete", 3, symmetric.closed_3complete),
                ("n-complete", 2, symmetric.closed_ncomplete))
    for family, first, closed in families:
        bad = []
        for n in range(first, 41):
            counts = symmetric.reduced_magnitudes(c_complete(n, 3 if first == 3 else n))
            bad += [(n, alpha) for alpha in (Fraction(2), Fraction(1, 2))
                    if spectrum.moment_from_magnitudes(counts, n, alpha) != closed(n, alpha)]
        out.append(
            CheckResult(
                f"{family} Krawtchouk route n={first}..40",
                not bad,
                f"differs from the closed form at (n, alpha) = {bad[0]}" if bad
                else "equals the closed form for alpha in {2, 1/2}",
            )
        )
    return out


def suite_bounds(graphs: int = 100, seed: int = 20240903) -> list[CheckResult]:
    """Degree bound and the direct n/(alpha-1) cap on random 3-uniform states."""
    rng = np.random.default_rng(seed)
    worst = {2: float("inf"), 3: float("inf")}
    ok = True
    bad = ""
    for _ in range(graphs):
        n = int(rng.integers(4, 11))
        g = random_uniform3(n, rng)
        for alpha in (2, 3):
            m = spectrum.rank_moment(g, alpha)
            sre_val = magic.log2_of(m) / (1 - alpha)
            bound = magic.degree_bound(g, alpha)
            cap = magic.trivial_bound(n, alpha)
            slack = min(bound - sre_val, cap + 1e-10 - sre_val)
            worst[alpha] = min(worst[alpha], slack)
            if sre_val > bound + 1e-10 or sre_val > cap + 1e-10:
                ok = False
                bad = f"violation on {g!r} at alpha={alpha}"
    detail = bad or f"min slack alpha=2: {worst[2]:.3g}, alpha=3: {worst[3]:.3g}"
    return [CheckResult(f"bounds on {graphs} random 3-uniform graphs", ok, detail)]


def suite_concentration(
    n: int = 12, samples: int = 200, seed: int = 20240904, jobs: int = 1
) -> list[CheckResult]:
    result = ensembles.concentration_check(n, samples, seed, jobs=jobs)
    ok = result.fraction >= 0.95
    return [
        CheckResult(
            f"concentration n={n} samples={samples}",
            ok,
            f"fraction {result.fraction:.4f}, floor {result.floor:.4f}",
        )
    ]


SUITES = {
    "prop1": suite_prop1,
    "obs1": suite_obs1,
    "counting": suite_counting,
    "thm6": suite_thm6,
    "symmetric": suite_symmetric,
    "bounds": suite_bounds,
    "concentration": suite_concentration,
}
