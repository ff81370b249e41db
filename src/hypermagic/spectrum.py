"""Exact Pauli spectra of hypergraph states: the Walsh and rank routes.

`walsh_blocks` computes the derivative Walsh table
W[x, z] = sum_a v(a) v(a ^ x) (-1)^{z.a}, a few rows at a time, where
v = (-1)^f is the state's sign table.  It transforms each block of about
2^15 entries with two float32 matrix products by the Kronecker factors
H_{2^floor(n/2)} and H_{2^ceil(n/2)} of the Sylvester-Hadamard matrix.
Every partial sum is an integer of size at most 2^n, so the products are
exact up to n = 24, where the kernel stops.  `full_spectrum` stores all
4^n squares from it; `walsh_magnitudes` streams them into a histogram of
|W| in O(2^n + block) memory, from which every moment order follows.  That
histogram is the route of `ensembles.state_counts` for a graph with an
edge of four or more vertices that is not a union of complete layers.  The
spectrum budget picks no route: it bounds only the 4^n table of
`full_spectrum`.

`rank_moment` evaluates the moment in closed form per X mask for graphs
whose edges have at most three vertices, from the GF(2) rank of the
induced pair-edge form.  One function, `_batch_forms`, sums the forms of
a stack of 3-edge sets from a per-edge table, and one kernel,
`_rank_histograms`, ranks them: every (graph, mask) column, by one GF(2)
elimination per chunk of at most 2^13 columns.  `rank_histogram` is their
one-graph call, the route of `ensembles.state_counts` for every other
graph whose edges have at most three vertices; the c = 3 ensemble
enumeration and Monte Carlo samples hand them many graphs at once.

`moment_from_magnitudes` is the one production moment evaluator: every
route hands it sparse |W| counts as Python ints, through `sparse_counts`
(Walsh histograms) or `rank_magnitudes` (rank histograms).

`star_trace_sum`, the moment accumulator over the simplified induced
graphs with one Walsh transform per X mask, is an oracle only: the tests
and the benchmark's correctness check compare the production routes with
it.  The single-component oracles, by basis overlap and by the trace of the
induced hypergraph, live in `hypermagic.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import IO

import numpy as np

from . import budget as _budget
from .bitops import fwht, superset_table, table_to_bits
from .hypergraph import Hypergraph, _c_edges, _edges_at_least_two
from .phasestate import PhaseState


@dataclass(frozen=True)
class PauliSpectrum:
    """Squared Pauli components as integer numerators over 4^n.

    sq[x, z] holds (2^n * Tr P_{x,z} rho)^2, so each squared component is
    sq[x, z] / 4^n and the purity identity reads sum(sq) == 2^{3n}.
    """

    n: int
    sq: np.ndarray

    def component_sq(self, x: int, z: int) -> Fraction:
        return Fraction(int(self.sq[x, z]), 4**self.n)

    def total(self) -> int:
        return int(self.sq.sum(dtype=np.int64))

    def validate(self) -> None:
        if self.sq.shape != (1 << self.n, 1 << self.n):
            raise AssertionError("spectrum table has the wrong shape")
        if self.total() != 2 ** (3 * self.n):
            raise AssertionError("purity normalization violated")
        if int(self.sq[0, 0]) != 4**self.n:
            raise AssertionError("identity component must be 1")
        if int(self.sq.min()) < 0 or int(self.sq.max()) > 4**self.n:
            raise AssertionError("squared component outside [0, 1]")

    def magnitude_histogram(self) -> np.ndarray:
        """hist[m] = number of entries with sq == m^2, as `walsh_magnitudes` counts."""
        mags = np.sqrt(self.sq).astype(np.int64)  # exact for squares below 2^53
        if not np.array_equal(mags * mags, self.sq):
            raise AssertionError("squared component is not a perfect square")
        return np.bincount(mags.ravel(), minlength=(1 << self.n) + 1)


EXACT_MOMENT_MAX_BITS = 14_000  # 4,215 decimal digits, under str(int)'s default limit of 4,300


def positive_alpha(alpha) -> Fraction:
    """The moment order as a Fraction; ValueError unless it is positive."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return alpha


def moment_from_magnitudes(counts: dict[int, int], n: int, alpha) -> Fraction | float:
    """PL-moment from sparse |W| counts, counts[m] = #{(x, z): |W[x, z]| = m}.

    The squared component of a Pauli is m^2 / 4^n, so the moment is
    2^-n sum_m counts[m] (m^2 / 4^n)^alpha: exact when 2*alpha is an
    integer (integer powers of m).  Otherwise each term is a float power
    with exponent float(alpha), which scales that exponent's rounding error
    by |ln| of the base (up to about 2n ln 2), and `math.fsum` adds the
    terms: the result is not correctly rounded, and its error grows with n.
    Every production route hands its counts, as Python ints, to this sum.

    The exact moment has the denominator 2^(n (2 alpha + 1)), and for
    alpha >= 1 a numerator no larger (the moment is at most 1).  When that
    denominator has more than EXACT_MOMENT_MAX_BITS = 14,000 bits,
    BudgetError is raised before any power is taken, so every exact moment
    returned prints under Python's default 4,300-digit limit on int-to-str
    conversion.
    """
    alpha = positive_alpha(alpha)
    if (2 * alpha).denominator == 1:
        e = int(2 * alpha)
        bits = n * (e + 1)
        if bits > EXACT_MOMENT_MAX_BITS:
            raise _budget.BudgetError(
                f"exact moment at n={n}, alpha={alpha} has a {bits}-bit denominator; "
                f"the limit is {EXACT_MOMENT_MAX_BITS} bits")
        return Fraction(sum(c * m**e for m, c in counts.items()), 2 ** (n * (1 + e)))
    a, scale = float(alpha), 4**n
    return math.fsum(c * (m * m / scale) ** a for m, c in counts.items()) / 2**n


def sparse_counts(hist: np.ndarray) -> dict[int, int]:
    """{m: hist[m]} for every nonzero magnitude m with a nonzero count."""
    mags = np.flatnonzero(hist[1:]) + 1
    return dict(zip(mags.tolist(), hist[mags].tolist()))


WALSH_MAX_N = 24  # float32 holds every integer of size <= 2^24 exactly
# Elements of W per block, unless one row is larger.  At 2^16 the block
# temporaries (256 KiB float32, 512 KiB int64) went back to the OS after
# every call and were faulted in again: 480 minor page faults per n = 8
# call against 128 at 2^15, which ran 1.5-2x faster at n = 8.
_BLOCK = 1 << 15


@lru_cache(maxsize=8)
def _hadamard(k: int) -> np.ndarray:
    """Read-only float32 Sylvester-Hadamard matrix H_{2^k}, entries (-1)^{i.j}."""
    h = np.ones((1, 1), dtype=np.float32)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def walsh_blocks(state: PhaseState):
    """Yield (x0, w) with w[r, z] = W[x0 + r, z] for every X mask, in order.

    W[x, z] = sum_a v(a) v(a ^ x) (-1)^{z.a} = 2^n Tr(P_{x,z} rho) up to
    sign, with v = (-1)^f.  A block holds about 2^15 elements (at least one
    row) as float32 with exact integer values.  Writing a = (a_hi, a_lo)
    with n_lo = floor(n/2) low bits, each row is the 2^n_hi x 2^n_lo matrix
    U = v(a) v(a ^ x) and its transform is H_hi U H_lo; both products sum
    at most 2^n terms of size 1, so no partial sum leaves the exact range.
    Raises ValueError for n > 24 before allocating anything.
    """
    n = state.n
    if n > WALSH_MAX_N:
        raise ValueError(f"the float32 Walsh kernel is exact only up to n={WALSH_MAX_N}, got n={n}")
    return _walsh_blocks(state)


def _walsh_blocks(state: PhaseState):
    n = state.n
    size = 1 << n
    n_lo = n // 2
    h_lo, h_hi = _hadamard(n_lo), _hadamard(n - n_lo)
    rows = min(size, max(1, _BLOCK >> n))
    v = 1 - 2 * state.sign_bits().astype(np.float32)
    idx = np.arange(size)
    # block starts are multiples of rows, so x0 + r == x0 ^ r for r < rows
    offsets = idx[None, :] ^ np.arange(rows)[:, None]
    for x0 in range(0, size, rows):
        u = v[idx ^ x0][offsets] * v
        y = (u.reshape(-1, 1 << n_lo) @ h_lo).reshape(rows, 1 << (n - n_lo), 1 << n_lo)
        yield x0, np.matmul(h_hi, y).reshape(rows, size)


def full_spectrum(state: PhaseState, budget: int | None = None) -> PauliSpectrum:
    """All 4^n squared components, Theta(n 4^n) time, exact integers."""
    n = state.n
    _budget.check(n, _budget.spectrum_budget(budget), "full Pauli spectrum")
    size = 1 << n
    sq = np.empty((size, size), dtype=np.int64)
    for x0, w in walsh_blocks(state):
        wi = w.astype(np.int64)
        sq[x0:x0 + len(w)] = wi * wi
    return PauliSpectrum(n, sq)


def walsh_magnitudes(state: PhaseState) -> np.ndarray:
    """hist[m] = number of Paulis (x, z) with |W[x, z]| = m, for m in [0, 2^n].

    The moment of any order follows from its `sparse_counts` (see
    `moment_from_magnitudes`).  Memory is O(2^n + block): no 4^n
    table is built.  Each call checks Parseval, sum_m hist[m] m^2 = 2^{3n}.
    """
    n = state.n
    blocks = walsh_blocks(state)  # refuses n > 24 before the histogram exists
    hist = np.zeros((1 << n) + 1, dtype=np.int64)
    for _, w in blocks:
        hist += np.bincount(np.abs(w).astype(np.intp).ravel(), minlength=hist.size)
    if sum(c * m * m for m, c in sparse_counts(hist).items()) != 2 ** (3 * n):
        raise AssertionError("Walsh magnitudes violate Parseval's identity")
    return hist


def _star_pair_table(g: Hypergraph, x: int) -> int:
    """Phase table of the size->=2 edge layer of the induced star graph."""
    table = 0
    for e2 in _edges_at_least_two(g, x):
        table ^= superset_table(g.n, e2)
    return table


def star_trace_sum(g: Hypergraph, alpha, budget: int | None = None):
    """sum over (x, z) of |Tr U(G*_{x,z})|^{2 alpha}.

    One Walsh-Hadamard transform per x over the phase function of the
    induced edges of size >= 2; the z index is the transform variable since
    the star graph's 1-edges are exactly the z mask.  Returns an exact
    integer when 2*alpha is a positive integer, else a float.
    """
    alpha = positive_alpha(alpha)
    two_alpha = 2 * alpha
    _budget.check(g.n, _budget.sim_budget(budget), "star trace sum")
    size = 1 << g.n
    exact = two_alpha.denominator == 1
    acc_int = 0
    acc_float = []
    for x in range(size):
        table = _star_pair_table(g, x)
        v = 1 - 2 * table_to_bits(table, g.n).astype(np.int64)
        w = fwht(v)
        mags, counts = np.unique(np.abs(w), return_counts=True)
        if exact:
            e = int(two_alpha)
            acc_int += sum(int(c) * int(m) ** e for m, c in zip(mags, counts))
        else:
            acc_float.append(
                math.fsum(float(c) * float(m) ** float(two_alpha) for m, c in zip(mags, counts))
            )
    return acc_int if exact else math.fsum(acc_float)


# (graph, mask) columns per GF(2) elimination.  An n = 15 rank histogram
# took 8.5 ms and 0.9 MiB traced at 2^13 against 11.6 ms and 3.4 MiB at
# 2^16; the n = 5 enumeration took 6-8 ms at every size from 2^12 to 2^16
# while its traced peak grew from 0.25 to 1.7 MiB.
_RANK_CHUNK = 1 << 13


@lru_cache(maxsize=16)
def _edge_forms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair-form table of the 3-edges: edge e adds val[e, s] to the flat forms at pos[e, s].

    An edge {i, j, k} sets bit k of row j of B(e_i) for each of its six
    orderings (the forms of `_rank_histograms`).  Every such bit belongs to
    one edge, so the XOR of an edge set's forms is a sum.
    """
    edges = np.array(_c_edges(n, 3))
    vertices = np.nonzero((edges[:, None] >> np.arange(n)) & 1)[1].reshape(-1, 3)
    orders = vertices[:, list(permutations(range(3)))]  # (edge, ordering, (i, j, k))
    pos = orders[..., 0] * n + orders[..., 1]
    val = np.ldexp(1.0, orders[..., 2])
    pos.setflags(write=False)
    val.setflags(write=False)
    return pos, val


def _batch_forms(n: int, keep: np.ndarray) -> np.ndarray:
    """Pair forms (graphs, n, n) of the 3-edge sets keep[g], as exact float64 sums.

    keep[g, e] says whether graph g has edge e of `_c_edges(n, 3)`.
    """
    pos, val = _edge_forms(n)
    graph, edge = np.nonzero(keep)
    flat = np.bincount((pos[edge] + graph[:, None] * (n * n)).ravel(),
                       weights=val[edge].ravel(), minlength=len(keep) * n * n)
    return flat.reshape(len(keep), n, n)


def rank_histogram(g: Hypergraph, chunk: int = _RANK_CHUNK) -> np.ndarray:
    """Histogram over x of the GF(2) rank of the induced pair-edge form.

    Only valid when every edge has at most three vertices: then the
    induced edges of size >= 2 are exactly the pairs {j, k} flagged by the
    parity of x over the matching third vertices, a symmetric zero-diagonal
    GF(2) matrix B(x).  Ranks of such forms are even.  The graph's 3-edges
    give its forms by `_batch_forms`, as the ensembles build theirs, and
    the forms go through `_rank_histograms`, at most `chunk` masks at a time.
    """
    if g.max_edge_size() > 3:
        raise ValueError("rank_histogram requires every edge to have at most 3 vertices")
    n = g.n
    triples = [e for e in g.edges if e.bit_count() == 3]
    if not triples:
        hist = np.zeros(n + 1, dtype=np.int64)
        hist[0] = 1 << n
        return hist
    edges = _c_edges(n, 3)  # sorted, so searchsorted finds each triple's index
    keep = np.zeros((1, len(edges)), dtype=bool)
    keep[0, np.searchsorted(edges, triples)] = True
    return _rank_histograms(_batch_forms(n, keep), chunk)[0]


def _rank_histograms(forms: np.ndarray, chunk: int = _RANK_CHUNK) -> np.ndarray:
    """out[g, r] = number of masks x with rank B_g(x) = r, for a stack of graphs.

    forms[g, i, j] is row j of B_g(e_i) as a bitmask.  B_g(x) is linear in
    x, B_g(x) = sum_i x_i B_g(e_i), so the columns (g, x) are cut into tiles
    of 2^lo consecutive masks of one graph, 2^lo <= chunk: a tile's rows are
    the XOR of the forms of the mask's high bits, then the low bits double
    the tile by one XOR each.  Whole tiles, at most `chunk` columns, are held
    as an (n, columns) array of row bitmasks, uint16 up to n = 16 and uint32
    above, and reduced by one GF(2) elimination: each of the n column steps
    takes the first row that has the column's bit as pivot and XORs it into
    every row that has the bit, the pivot itself included, so a column's
    rank is the number of steps that found a pivot.
    """
    graphs, n = forms.shape[:2]
    dtype = np.uint16 if n <= 16 else np.uint32
    forms = forms.astype(dtype, copy=False)
    lo = min(n, chunk.bit_length() - 1)
    span = 1 << lo  # masks per tile
    tiles_per_graph = 1 << (n - lo)
    step = chunk >> lo  # tiles per elimination
    high = np.arange(lo, n)
    weight = np.arange(n, 0, -1, dtype=np.uint8)[:, None]  # row i weighs n - i
    hist = np.zeros((graphs, n + 1), dtype=np.int64)
    for t0 in range(0, graphs * tiles_per_graph, step):
        tiles = np.arange(t0, min(t0 + step, graphs * tiles_per_graph))
        owner = tiles >> (n - lo)
        f = forms[owner]
        x0 = (tiles & (tiles_per_graph - 1)) << lo
        bits = ((x0[:, None] >> high) & 1).astype(dtype)
        rows = np.empty((n, len(tiles), span), dtype=dtype)
        rows[:, :, 0] = np.bitwise_xor.reduce(f[:, lo:] * bits[:, :, None], axis=1).T
        for i in range(lo):
            h = 1 << i
            np.bitwise_xor(rows[:, :, :h], f[:, i].T[:, :, None], out=rows[:, :, h:2 * h])
        width = len(tiles) * span
        rows = rows.reshape(n, width)
        flat = rows.reshape(-1)
        cols = np.arange(width)
        # flat offset of the pivot row from the top weight; 0 (no row has
        # the bit) selects row 0, whose XOR then changes nothing
        offsets = (n - np.arange(n + 1)) % n * width
        rank = np.zeros(width, dtype=np.intp)
        for b in range(n):
            has = (rows & dtype(1 << b)) != 0
            # n - (first row with the bit), or 0: a max over rows, because a
            # strided argmax(axis=0) over the same array ran about 10x slower
            top = (has * weight).max(axis=0)
            rows ^= has * flat[offsets[top] + cols]
            rank += top != 0
        first = int(owner[0])
        key = np.repeat((owner - first) * (n + 1), span) + rank
        count = int(owner[-1]) - first + 1
        hist[first:first + count] += np.bincount(key, minlength=count * (n + 1)).reshape(count, n + 1)
    if hist[:, 1::2].any():
        raise AssertionError("pair-edge form produced an odd rank")
    return hist


def rank_magnitudes(hist: np.ndarray, n: int) -> dict[int, int]:
    """|W| counts of a `rank_histogram`: a rank-r mask has 2^r Paulis of |W| = 2^{n-r/2}."""
    return {1 << (n - r // 2): count << r for r, count in enumerate(hist.tolist()) if count}


def rank_moment(g: Hypergraph, alpha):
    """PL-moment m_alpha = 2^-n sum_x 2^{(1-alpha) rank(B(x))}.

    Closed-form z-sum for quadratic phase functions: the Walsh spectrum of
    a rank-r quadratic form takes the single magnitude 2^{n-r/2} on exactly
    2^r points, so sum_z |Tr|^{2a} = 2^{2an + (1-a) r}.  Exact Fractions
    whenever 2*alpha is an integer.
    """
    return moment_from_magnitudes(rank_magnitudes(rank_histogram(g), g.n), g.n, alpha)


def dump_csv(spectrum: PauliSpectrum, stream: IO[str]) -> None:
    """Write squared-component numerators; denominator stated up front."""
    stream.write(f"# denominator 4^n = {4**spectrum.n}\n")
    stream.write("x,z,sq_component_numerator\n")
    size = 1 << spectrum.n
    for x in range(size):
        row = spectrum.sq[x]
        for z in range(size):
            stream.write(f"{x},{z},{int(row[z])}\n")

