"""Exact Pauli spectra of hypergraph states: the Walsh and rank routes.

The derivative Walsh table is W[x, z] = sum_a v(a) v(a ^ x) (-1)^{z.a},
where v = (-1)^f is the state's sign table.  The state is real, so
g_x(a) = v(a) v(a ^ x) is unchanged by a -> a ^ x: W[x, z] vanishes when
x.z is odd (a Pauli with an odd number of Y factors), and otherwise equals
2 F_x(y), the 2^(n-1)-point transform of g_x over the representatives
a_t = 0 of the pairs, where t is the top bit of x and y is z without
bit t.  Row 0 is 2^n delta_z0.  `walsh_half_blocks`, the one Walsh kernel,
yields the half rows F_x a few rows at a time: it builds each block of
about 2^15 entries in kept float32 scratch, gathering up to 16 rows and
doubling the rest by bit flips, and transforms it in place with two
float32 matrix products by the Kronecker factors H_{2^floor((n-1)/2)} and
H_{2^ceil((n-1)/2)} of the Sylvester-Hadamard matrix.  Every partial sum
is an integer of size at most 2^(n-1), so the products are exact up to
n = 24, where the kernel stops (`check_walsh_range`).  `walsh_magnitudes`
sorts each block's |F| in place and counts it into a histogram of
|W| = 2|F| in O(2^n + block) memory, and adds the 2^(2n-1) parity zeros,
from which every moment order follows.  That histogram is the route of
`ensembles.state_counts` for a graph with an edge of four or more vertices
that is not a union of complete layers.  `walsh_blocks` scatters the half
rows into full rows; `dump_csv` streams them to `--dump-spectrum`, and
`full_spectrum` stores all 4^n squares.  The spectrum budget picks no
route: it bounds only those full tables.

`rank_moment` evaluates the moment in closed form per X mask for graphs
whose edges have at most three vertices, from the GF(2) rank of the
induced pair-edge form.  One kernel, `_rank_histograms`, takes a stack of
3-edge sets as rows of edge flags, sums their forms from the per-edge
table of `_edge_forms`, checked once per n, and ranks every (graph, mask)
column by row echelon, at most 2^13 columns at a time.  `rank_histogram`
is its one-graph call, the route of `ensembles.state_counts` for every
other graph whose edges have at most three vertices; the c = 3 ensemble
enumeration and Monte Carlo samples hand it many graphs at once.

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


def check_walsh_range(n: int) -> None:
    """BudgetError beyond the Walsh kernel's exact range, for callers to raise before any work."""
    if n > WALSH_MAX_N:
        raise _budget.BudgetError(f"Walsh spectrum at n={n} refused: the float32 Walsh kernel "
                                  f"is exact only up to n={WALSH_MAX_N}")


# Half-row entries that one block covers, unless one row is larger; each of
# the two arrays of `_walsh_scratch` holds one block (128 KiB of float32).
# On random 4-uniform graphs (p = 0.25, 2-core Xeon VM), 2^14 ran slower
# than 2^15 (n = 8: 0.20 against 0.19 ms, n = 10: 1.9-2.0 against 1.6 ms,
# n = 12: 35-41 against 34-35 ms per `walsh_magnitudes` call); 2^16 ran 5 %
# faster at n = 10 and 15 % at n = 12, but doubles the kept scratch.
_HALF_BLOCK = 1 << 15


@lru_cache(maxsize=8)
def _hadamard(k: int) -> np.ndarray:
    """Read-only float32 Sylvester-Hadamard matrix H_{2^k}, entries (-1)^{i.j}."""
    h = np.ones((1, 1), dtype=np.float32)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def _top_bits(x: np.ndarray) -> np.ndarray:
    """t = the top set bit of max(x, 1): the pairing bit of row x (0 for row 0)."""
    return np.frexp(np.maximum(x, 1))[1] - 1


def _insert_zero(a: np.ndarray, t) -> np.ndarray:
    """a with a 0 bit inserted at position t: the coset representatives of a_t = 0."""
    low = (1 << t) - 1
    return (a & low) | ((a & ~low) << 1)


# Up to n = 7 the table is one block, and building it one top bit at a time
# took twice as long as gathering it by these indices (n = 4: 45 against
# 21 us, n = 7: 110 against 56 us per `walsh_magnitudes` call); the 7
# tables take 170 KiB.
_INDEXED_MAX_N = 7


@lru_cache(maxsize=_INDEXED_MAX_N)
def _whole_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, a ^ x) with a = ins_t(a') for every row x, each with its own t."""
    x = np.arange(1 << n)[:, None]
    a = _insert_zero(np.arange(1 << (n - 1)), _top_bits(x))
    return a, a ^ x


@lru_cache(maxsize=1)
def _walsh_scratch() -> tuple[np.ndarray, np.ndarray]:
    """Two float32 arrays of one block's half-row entries, kept between calls: 256 KiB.

    The first holds a block's rows, built, transformed and yielded in place;
    the second holds the first of the two matrix products.  Each block of
    up to 2^15 entries fits them for n <= 16; larger rows get arrays of
    their own per call.  Block-sized arrays allocated per call are faulted
    in again on every call: two such intp arrays made an ensemble-mc star
    request (c = 4, n = 10, 2 samples) fault a median of 208 pages; kept,
    none.
    """
    return np.empty(_HALF_BLOCK, dtype=np.float32), np.empty(_HALF_BLOCK, dtype=np.float32)


def walsh_half_blocks(state: PhaseState):
    """Yield (x0, f) with f[r, y] = F_{x0+r}(y) for every X mask, in order.

    The state is real, so g_x(a) = v(a) v(a ^ x) with v = (-1)^f does not
    change under a -> a ^ x.  For x != 0 with top set bit t, pairing a with
    a ^ x gives W[x, z] = (1 + (-1)^{x.z}) F_x(y), where y is z with bit t
    removed and F_x(y) = sum_{a' < 2^(n-1)} g_x(ins_t(a')) (-1)^{y.a'} is the
    2^(n-1)-point transform over the representatives a_t = 0.  So W[x, z]
    is 0 when x.z is odd and 2 F_x(y) otherwise.  Row 0 takes t = 0, and its
    F_0 = 2^(n-1) delta_y0 gives the closed form W[0, z] = 2^n delta_z0 under
    the same rule with max(x, 1) in place of x (see `walsh_blocks`).

    A block holds about 2^15 half-row entries (at least one row) as float32
    with exact integer values.  Rows x0 >= rows share one t; the first block
    takes the rows x < rows one t at a time, so that n <= 8 runs as one
    block.  With v0 = v(ins_t(a')) and v1 = v(ins_t(a') + 2^t), row x0 + r
    of a block is v1(a' ^ x' ^ r) v0(a') with x' = x0 - 2^t: the first (up
    to 16) rows are gathered, and each further row r + 2^i is row r of the
    v1 factor with bit i of a' flipped.  Writing a' = (a_hi, a_lo) with
    m_lo = floor((n-1)/2) low bits, each row is the 2^m_hi x 2^m_lo matrix
    U = g_x(ins_t(a')) and its transform is H_hi U H_lo; both products sum
    at most 2^(n-1) terms of size 1, so no partial sum leaves the exact
    range.

    The yielded f is scratch that the next block overwrites, and it is
    shared by every generator of the process: copy what you keep, and
    advance one generator at a time.  Raises BudgetError for n > 24 (see
    `check_walsh_range`) before allocating anything.
    """
    check_walsh_range(state.n)
    return _walsh_half_blocks(state)


def _walsh_half_blocks(state: PhaseState):
    n = state.n
    m = n - 1
    half = 1 << m
    lo = 1 << (m // 2)
    h_lo, h_hi = _hadamard(m // 2), _hadamard(m - m // 2)
    rows = min(1 << n, max(1, _HALF_BLOCK >> m))  # as many as _HALF_BLOCK entries hold
    if rows * half <= _HALF_BLOCK:
        f, y = (s[:rows * half].reshape(rows, half) for s in _walsh_scratch())
    else:
        f, y = np.empty((1, half), dtype=np.float32), np.empty((1, half), dtype=np.float32)

    def transform():
        np.matmul(f.reshape(-1, lo), h_lo, out=y.reshape(-1, lo))
        np.matmul(h_hi, y.reshape(rows, -1, lo), out=f.reshape(rows, -1, lo))
        return f

    v = 1 - 2 * state.sign_bits().astype(np.float32)
    if rows == 1 << n and n <= _INDEXED_MAX_N:  # the whole table is one block
        a, b = _whole_table(n)
        np.multiply(v[a], v[b], out=f)
        yield 0, transform()
        return
    idx = np.arange(half)
    base = idx ^ np.arange(min(16, rows))[:, None]  # a' ^ r for the rows gathered
    order, shifted = np.empty(half, dtype=np.intp), np.empty(half, dtype=np.float32)

    def factors(t):
        reps = _insert_zero(idx, t)
        return v[reps], v[reps | (1 << t)]

    def fill(dst, v0, v1, x1):
        # dst[r] = v1(a' ^ x1 ^ r) v0(a'); x1 is a multiple of len(dst)
        np.take(v1, np.bitwise_xor(idx, x1, out=order), out=shifted, mode="wrap")
        k = min(len(dst), len(base))
        np.take(shifted, base[:k], out=dst[:k], mode="wrap")
        while k < len(dst):  # v1 row r + k is v1 row r with bit log2(k) of a' flipped
            np.copyto(dst[k:2 * k].reshape(k, -1, 2, k), dst[:k].reshape(k, -1, 2, k)[:, :, ::-1])
            k *= 2
        dst *= v0

    f[0] = 1
    for t in range(rows.bit_length() - 1):
        fill(f[1 << t:2 << t], *factors(t), 0)
    yield 0, transform()
    for t in range(rows.bit_length() - 1, n):
        v0, v1 = factors(t)
        for x0 in range(1 << t, 2 << t, rows):
            fill(f, v0, v1, x0 - (1 << t))
            yield x0, transform()


def walsh_blocks(state: PhaseState):
    """Yield (x0, w) with w[r, z] = W[x0 + r, z] for every X mask, in order.

    W[x, z] = sum_a v(a) v(a ^ x) (-1)^{z.a} = 2^n Tr(P_{x,z} rho) up to
    sign, with v = (-1)^f.  Each block scatters one `walsh_half_blocks`
    block into full float32 rows: with k = max(x, 1) and t its top bit,
    W[x, z] = 2 F_x(y) when k.z is even, where y is z with bit t removed,
    and 0 otherwise.  Each w is a new array.  Raises BudgetError for n > 24
    before allocating anything.
    """
    n = state.n
    half_blocks = walsh_half_blocks(state)  # refuses n > 24
    return _full_rows(n, half_blocks)


def _full_rows(n: int, half_blocks):
    z = np.arange(1 << n)
    for x0, f in half_blocks:
        x = np.arange(x0, x0 + len(f))[:, None]
        t = _top_bits(x)
        y = (z & ((1 << t) - 1)) | ((z >> (t + 1)) << t)
        odd = (np.bitwise_count(np.maximum(x, 1) & z) & 1).astype(bool)
        w = 2 * np.take_along_axis(f, y, axis=1)
        w[odd] = 0
        yield x0, w


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


def _parseval_checked(hist: np.ndarray, n: int) -> np.ndarray:
    """hist itself, after checking sum_m hist[m] m^2 == 2^{3n}."""
    if sum(c * m * m for m, c in sparse_counts(hist).items()) != 2 ** (3 * n):
        raise AssertionError("Walsh magnitudes violate Parseval's identity")
    return hist


def walsh_magnitudes(state: PhaseState) -> np.ndarray:
    """hist[m] = number of Paulis (x, z) with |W[x, z]| = m, for m in [0, 2^n].

    The moment of any order follows from its `sparse_counts` (see
    `moment_from_magnitudes`).  Each half row F_x gives |W| = 2|F_x(y)| at
    its 2^(n-1) even-parity z, and the other 2^(n-1) entries of the row are
    the known zeros of `walsh_half_blocks`.  Each block is counted by
    sorting: |F| in place in the kernel's scratch, a sort, then one binary
    search per value up to the largest, or the run boundaries when that
    value exceeds 1/16 of the block's entries.  Memory is O(2^n + block):
    no 4^n table is built.  Each call checks Parseval,
    sum_m hist[m] m^2 = 2^{3n}.
    """
    n = state.n
    blocks = walsh_half_blocks(state)  # refuses n > 24 before the histogram exists
    hist = np.zeros((1 << n) + 1, dtype=np.int64)
    even = hist[::2]  # |W| = 2|F| is even
    for _, f in blocks:
        mags = f.reshape(-1)
        np.abs(mags, out=mags)
        mags.sort()
        top = int(mags[-1])
        # a search costs about 20 ns a key, the run boundaries about 0.6 ns an
        # entry, so the search is taken while it stays under about 1.3 ns an
        # entry; rows near |F| = 2^(n-1) (nearly affine states, n >= 13) take the runs
        if top <= mags.size >> 4:
            even[:top + 1] += np.diff(mags.searchsorted(np.arange(top + 2, dtype=np.float32)))
        else:
            firsts = np.flatnonzero(np.concatenate(([True], mags[1:] != mags[:-1])))
            even[mags[firsts].astype(np.intp)] += np.diff(firsts, append=mags.size)
    hist[0] += 1 << (2 * n - 1)  # x.z odd: half of the 4^n Paulis
    return _parseval_checked(hist, n)


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


# (graph, mask) columns per GF(2) elimination.  Under row echelon, on a
# 2-core VM, at 2^12, 2^13, 2^14 and 2^15 an n = 15 rank histogram took 2.0,
# 1.7, 1.5 and 1.4 ms with a traced peak of 0.46, 0.87, 1.67 and 2.36 MiB,
# eight n = 12 samples 1.9, 1.4, 1.1 and 1.2 ms, and the n = 5 enumeration
# 3.1, 2.4, 2.3 and 2.2 ms; the kept scratch doubles with the chunk (0.27
# MiB at 2^13).  Under pair elimination 2^14 already put about 1 MiB on the
# peak RSS of a 30 s exact-states benchmark run, within 1 MiB of that
# metric's bound, so the chunk stays at 2^13.
_RANK_CHUNK = 1 << 13


@lru_cache(maxsize=16)
def _edge_forms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair-form table of the 3-edges: edge e adds val[e, s] to the flat forms at pos[e, s].

    An edge {i, j, k} sets bit k of row j of B(e_i) for each of its six
    orderings (the forms of `_rank_histograms`).  Checked once per n: no
    bit is set twice, so an edge set's forms sum to their XOR, and each
    B(e_i) is symmetric with a zero diagonal, so every such sum is too.
    """
    edges = np.array(_c_edges(n, 3))
    vertices = np.nonzero((edges[:, None] >> np.arange(n)) & 1)[1].reshape(-1, 3)
    orders = vertices[:, list(permutations(range(3)))]  # (edge, ordering, (i, j, k))
    entry = np.bincount((orders @ [n * n, n, 1]).ravel(), minlength=n**3).reshape(n, n, n)
    if entry.max() > 1 or (entry != entry.swapaxes(1, 2)).any() or entry.diagonal(0, 1, 2).any():
        raise AssertionError("3-edge pair forms overlap or are not symmetric with a zero diagonal")
    pos = orders[..., 0] * n + orders[..., 1]
    val = np.ldexp(1.0, orders[..., 2])
    pos.setflags(write=False)
    val.setflags(write=False)
    return pos, val


def rank_histogram(g: Hypergraph) -> np.ndarray:
    """Histogram over x of the GF(2) rank of the induced pair-edge form.

    Only valid when every edge has at most three vertices: then the
    induced edges of size >= 2 are exactly the pairs {j, k} flagged by the
    parity of x over the matching third vertices, a symmetric zero-diagonal
    GF(2) matrix B(x).  Ranks of such forms are even.  The graph's 3-edges
    go to `_rank_histograms` as one row of edge flags, as the ensembles
    hand it theirs.
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
    return _rank_histograms(n, keep)[0]


@lru_cache(maxsize=2)
def _work_arrays(dtype) -> tuple[np.ndarray, ...]:
    """Scratch of `_rank_histograms` for up to one row per bit of dtype, kept between calls.

    One (rows, _RANK_CHUNK) array of dtype for the masked pivot rows of a
    step, also for the nonzero flags at the end, and one row for 2^q:
    0.27 MiB for uint16, 1.03 MiB for uint32.
    As temporaries of every step (up to 2 n chunk bytes each, 192 KiB at
    n = 12), such arrays made glibc trim its heap and fault it in again,
    unless earlier requests had raised its thresholds: a median of 320 minor
    page faults per n = 12 `ensemble --samples 8` request, against none when
    kept.
    """
    rows = 8 * np.dtype(dtype).itemsize
    return np.empty((rows, _RANK_CHUNK), dtype=dtype), np.empty(_RANK_CHUNK, dtype=dtype)


def _rank_histograms(n: int, keep: np.ndarray) -> np.ndarray:
    """out[g, r] = number of masks x with rank B_g(x) = r, for a stack of 3-edge sets.

    keep[g, e] says whether graph g has edge e of `_c_edges(n, 3)`.  Its
    forms B_g(e_i), row j of each as a bitmask, are exact float64 sums of
    the `_edge_forms` table, alternating by that table's check, and by
    linearity so is every B_g(x) = sum_i x_i B_g(e_i).  The columns (g, x)
    are cut into tiles of 2^lo consecutive masks of one graph,
    2^lo <= _RANK_CHUNK: a tile's rows are the XOR of the forms of the
    mask's high bits, then the low bits double the tile by one XOR each.
    Whole tiles, at most _RANK_CHUNK columns, are held as an (n, columns)
    array of row bitmasks, uint16 up to n = 16 and uint32 above, and
    brought to row echelon form.  Step b = 0 ... n-2 takes 2^q, the lowest
    set bit of row b (0 for a zero row), and XORs row b into every row
    r > b that has bit q.  -(row_r & 2^q) is every bit from q up when it
    has, and 0 else, and row b has no bit under q, so the masked row b is
    the whole update: four passes over the rows below b.  Row b holds no
    pivot bit of an earlier row a: step a cleared it, and the rows XORed in
    after step a lack it too.  So each nonzero row owns a pivot column that
    every row below it lacks, the nonzero rows are independent, and a
    column's rank is their number.  Symmetry is not used, but the ranks of
    alternating forms are even, which `rank_magnitudes` relies on.
    """
    graphs = len(keep)
    dtype = np.uint16 if n <= 16 else np.uint32
    pos, val = _edge_forms(n)
    graph, edge = np.nonzero(keep)
    flat = np.bincount((pos[edge] + graph[:, None] * (n * n)).ravel(),
                       weights=val[edge].ravel(), minlength=graphs * n * n)
    forms = flat.astype(dtype).reshape(graphs, n, n)
    lo = min(n, _RANK_CHUNK.bit_length() - 1)
    span = 1 << lo  # masks per tile
    tiles_per_graph = 1 << (n - lo)
    step = _RANK_CHUNK >> lo  # tiles per elimination
    high = np.arange(lo, n)
    hist = np.zeros((graphs, n + 1), dtype=np.int64)
    work = _work_arrays(dtype)
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
        s, low = work[0][:n, :width], work[1][:width]
        for b in range(n - 1):
            row_b, below, sb = rows[b], rows[b + 1:], s[b + 1:]
            np.bitwise_and(np.negative(row_b, out=low), row_b, out=low)  # 2^q, or 0 for a zero row
            np.negative(np.bitwise_and(below, low, out=sb), out=sb)
            below ^= np.bitwise_and(sb, row_b, out=sb)
        # nonzero rows per column, as a uint8 sum over the rows in the kept
        # scratch: count_nonzero(rows, axis=0) took 5x as long (110 against
        # 20 us at n = 12 on 2^13 columns)
        nonzero = np.not_equal(rows, 0, out=work[0].view(bool)[:n, :width])
        rank = nonzero.view(np.uint8).sum(axis=0, dtype=np.uint8)
        key = np.repeat(owner * (n + 1), span) + rank
        hist += np.bincount(key, minlength=hist.size).reshape(hist.shape)
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


def dump_csv(state: PhaseState, stream: IO[str]) -> np.ndarray:
    """Write squared-component numerators, denominator stated up front; return the |W| histogram.

    Each `walsh_blocks` block is written as it arrives and counted into the
    histogram of `walsh_magnitudes`, Parseval checked, so no 4^n table is
    held.  The caller gates the table's size by the spectrum budget.
    """
    n = state.n
    blocks = walsh_blocks(state)  # refuses n > 24 before writing anything
    stream.write(f"# denominator 4^n = {4**n}\n")
    stream.write("x,z,sq_component_numerator\n")
    hist = np.zeros((1 << n) + 1, dtype=np.int64)
    zs = [f",{z}," for z in range(1 << n)]  # formatted once: 2x faster lines
    for x0, w in blocks:
        mags = np.abs(w).astype(np.int64)
        hist += np.bincount(mags.ravel(), minlength=hist.size)
        for x, row in enumerate((mags * mags).tolist(), x0):
            stream.write("".join([f"{x}{z}{sq}\n" for z, sq in zip(zs, row)]))
    return _parseval_checked(hist, n)
