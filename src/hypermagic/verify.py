"""Cross-route invariant suites, and the oracles they run.

Each suite returns a list of named checks; the CLI prints one verdict per
check and exits nonzero on any failure.  The same functions back the
acceptance tests so the command line and the test suite cannot drift.
The oracles here, Pauli components by two routes (`prop1`), generalized
stabilizers (`obs1`) and tuple counting (`counting`), are checks that no
`exact`, `ensemble` or `sweep` request runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import budget as _budget, ensembles, magic, spectrum, symmetric
from .bitops import _bit_table, iter_subsets, superset_table
from .hypergraph import Hypergraph, _edges_at_least_two, c_complete, from_masks
from .phasestate import PhaseState, from_hypergraph

COUNTING_STATE_BITS = 28  # enumeration gate: K^n * 2^n <= 2^28


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class PauliIndex:
    """(x, z) bitmask pair labelling a Pauli string X^x Z^z (phase dropped)."""

    x: int
    z: int

    def check(self, n: int) -> None:
        if self.x < 0 or self.x >> n:
            raise ValueError(f"x mask {self.x:#x} does not fit in {n} bits")
        if self.z < 0 or self.z >> n:
            raise ValueError(f"z mask {self.z:#x} does not fit in {n} bits")


def _one_edges_full(g: Hypergraph, x: int, z: int) -> list[int]:
    """1-edges of the fully induced graph: z_j plus edge-product parities."""
    out = []
    for j in range(g.n):
        bit = 1 << j
        t = (z >> j) & 1
        for e in g.edges:
            if e & bit and e != bit and (e & ~bit) & ~x == 0:
                t ^= 1
        if t:
            out.append(bit)
    return out


def induced_full(g: Hypergraph, p: PauliIndex) -> Hypergraph:
    """Induced hypergraph whose phase-unitary trace gives the (x, z) component."""
    p.check(g.n)
    masks = _one_edges_full(g, p.x, p.z) + _edges_at_least_two(g, p.x)
    return from_masks(g.n, masks)


def trace_of_state(state: PhaseState) -> int:
    """Trace of the diagonal unitary with these signs: 2^n - 2 * popcount."""
    return (1 << state.n) - 2 * state.signs.bit_count()


def component_direct(state: PhaseState, p: PauliIndex) -> Fraction:
    """Signed component 2^-n sum_a (-1)^{f(a) + f(a^x) + z.a}, exact.

    The sign is relative to the dropped global Pauli phase; its square is
    the physical quantity.
    """
    p.check(state.n)
    size = 1 << state.n
    bits = state.sign_bits()
    idx = np.arange(size)
    total = bits ^ bits[idx ^ p.x]
    if p.z:
        total = total ^ (np.bitwise_count(idx & p.z) & 1).astype(np.uint8)
    flips = int(total.sum())
    return Fraction(size - 2 * flips, size)


def component_induced(g: Hypergraph, p: PauliIndex, budget: int | None = None) -> Fraction:
    """Squared component via the induced-hypergraph trace identity."""
    t = trace_of_state(from_hypergraph(induced_full(g, p), budget))
    return Fraction(t * t, 4**g.n)


@dataclass(frozen=True)
class StabilizerWord:
    """A generalized stabilizer: X mask times a product of phase gates.

    The X part equals the generator selector; `phase_edges` is the
    mod-2-reduced multiset of controlled-Z supports; `sign` carries the
    accumulated -1 factors from gates whose support emptied out.
    """

    x_part: int
    phase_edges: tuple[int, ...]
    sign: int


def stabilizer_word(g: Hypergraph, s: int) -> StabilizerWord:
    """Expand the product of the selected generators into X and phase parts.

    For each edge e and each nonempty q inside supp(s) & e the gate on
    e \\ q is toggled; gates whose support vanishes entirely contribute a
    global -1 each (the empty-support gate convention).
    """
    if s < 0 or s >> g.n:
        raise ValueError(f"selector {s:#x} outside {g.n} bits")
    acc: dict[int, int] = {}
    minus_count = 0
    for e in g.edges:
        for q in iter_subsets(s & e):
            if q == 0:
                continue
            target = e & ~q
            if target == 0:
                minus_count ^= 1
            else:
                acc[target] = acc.get(target, 0) ^ 1
    edges = tuple(sorted(m for m, v in acc.items() if v))
    return StabilizerWord(x_part=s, phase_edges=edges, sign=-1 if minus_count else 1)


def _xor_permute_table(table: int, n: int, s: int) -> int:
    """Relabel the table index a -> a ^ s (block swaps per set bit of s)."""
    for b in range(n):
        if not (s >> b) & 1:
            continue
        hi = _bit_table(n, b)
        lo = hi >> (1 << b)  # complement pattern within each block pair
        shift = 1 << b
        table = ((table & hi) >> shift) | ((table & lo) << shift)
    return table


def apply_stabilizer(state: PhaseState, word: StabilizerWord) -> PhaseState:
    """Apply phase gates, then the X-mask basis relabeling, then the sign."""
    signs = state.signs
    for e in word.phase_edges:
        signs ^= superset_table(state.n, e)
    signs = _xor_permute_table(signs, state.n, word.x_part)
    if word.sign == -1:
        signs ^= (1 << (1 << state.n)) - 1
    return PhaseState(state.n, signs)


def _valid_tvectors(alpha: int) -> list[int]:
    width = 2 * alpha
    return [t for t in range(1 << width) if t.bit_count() % 2 == 0]


def _counting_gate(c: int, alpha: int, n: int) -> None:
    if int(alpha) != alpha or alpha < 2:
        raise ValueError("counting problems are stated for integer alpha >= 2")
    if not 3 <= c <= n:
        raise ValueError("need 3 <= c <= n")
    k = 2 ** (2 * alpha - 1)
    work_bits = n * math.log2(k) + n
    if work_bits > COUNTING_STATE_BITS:
        raise _budget.BudgetError(
            f"counting enumeration needs 2^{work_bits:.0f} states (limit 2^{COUNTING_STATE_BITS})"
        )


def signature_histogram(c: int, alpha: int, n: int) -> np.ndarray:
    """Count (T, x) pairs by their per-edge constraint-violation signature.

    Entry sig of the result is the number of column matrices T (every
    column an even-parity 2 alpha-bit string) and masks x whose edge
    constraints evaluate to the bit pattern sig.  The fully satisfied
    count is entry 0; higher moments follow from the histogram since the
    replica constraints add per replica.
    """
    _counting_gate(c, alpha, n)
    tvecs = np.asarray(_valid_tvectors(alpha), dtype=np.int64)
    k = len(tvecs)
    m_total = k**n
    digits = np.empty((m_total, n), dtype=np.int64)
    base = np.arange(m_total, dtype=np.int64)
    for i in range(n):
        digits[:, i] = (base // k**i) % k
    edges = list(combinations(range(n), c))
    if len(edges) > 24:
        raise _budget.BudgetError("signature space beyond 2^24 refused")

    # per edge, list of (x-product vertex tuple, parity array of the Schur product);
    # q of c - 1 vertices leaves one even-parity column, of parity 0, so r stops at c - 2
    edge_terms: list[list[tuple[tuple[int, ...], np.ndarray]]] = []
    for edge in edges:
        terms: list[tuple[tuple[int, ...], np.ndarray]] = []
        for r in range(1, c - 1):
            for q in combinations(edge, r):
                rest = tuple(v for v in edge if v not in q)
                acc = tvecs[digits[:, rest[0]]]
                for v in rest[1:]:
                    acc = acc & tvecs[digits[:, v]]
                par = (np.bitwise_count(acc.astype(np.uint64)) & 1).astype(np.uint8)
                terms.append((q, par))
        edge_terms.append(terms)

    hist = np.zeros(1 << len(edges), dtype=np.int64)
    zeros = np.zeros(m_total, dtype=np.uint8)
    for x in range(1 << n):
        sig = np.zeros(m_total, dtype=np.int64)
        for eidx, terms in enumerate(edge_terms):
            bit = zeros.copy()
            for q, par in terms:
                if all((x >> v) & 1 for v in q):
                    bit ^= par
            sig |= bit.astype(np.int64) << eidx
        hist += np.bincount(sig, minlength=hist.size)
    return hist


def counting_N(c: int, alpha: int, n: int) -> int:
    """Number of (T, x) tuples satisfying every edge constraint."""
    return int(signature_histogram(c, alpha, n)[0])


def counting_N_tau(c: int, alpha: int, n: int, tau: int) -> int:
    """Tuple count for the tau-th moment; tau in {1, 2}.

    Constraints add over replica blocks, so a pair of blocks satisfies the
    joint constraint iff their violation signatures coincide; the tau = 2
    count is the sum of squared histogram entries.
    """
    if tau == 1:
        return counting_N(c, alpha, n)
    if tau == 2:
        hist = signature_histogram(c, alpha, n)
        return int(sum(int(v) * int(v) for v in hist))
    raise ValueError("tau >= 3 moments are out of scope")


def moment_from_counting(c: int, alpha: int, n: int, tau: int = 1) -> Fraction:
    """<m_alpha^tau> = N^(tau) / 2^{2 tau alpha n}."""
    return Fraction(counting_N_tau(c, alpha, n, tau), 2 ** (2 * tau * alpha * n))


# ---------------------------------------------------------------------------
# suites


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
                direct = component_direct(state, p)
                induced = component_induced(g, p)
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
    n_value = counting_N(3, 2, 3)
    out.append(CheckResult("counting N(3,2,3)", n_value == 2752, f"N = {n_value}"))
    for n in (3, 4, 5):
        counted = moment_from_counting(3, 2, n)
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
