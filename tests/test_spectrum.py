"""Spectrum routes: direct, induced, Walsh-Hadamard batch, rank classes."""

import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice, permutations
from math import comb

import numpy as np
import pytest

from hypermagic import spectrum
from hypermagic.bitops import fwht, gf2_rank_fast
from hypermagic.budget import BudgetError
from hypermagic.hypergraph import build, c_complete, empty, from_masks
from hypermagic.phasestate import PhaseState, from_hypergraph
from hypermagic.spectrum import (
    dump_csv,
    full_spectrum,
    moment_from_magnitudes,
    rank_histogram,
    rank_magnitudes,
    rank_moment,
    sparse_counts,
    star_trace_sum,
    walsh_blocks,
    walsh_magnitudes,
)
from hypermagic.verify import PauliIndex, component_direct, component_induced

from conftest import dense_pauli, dense_state, naive_component, random_graph, random_uniform3

CCZ = build(3, [(1, 2, 3)])


class TestComponentDirect:
    def test_identity_pauli_gives_one(self, rng):
        g = random_graph(4, rng)
        assert component_direct(from_hypergraph(g), PauliIndex(0, 0)) == 1

    def test_plus_state_spectrum(self):
        st = from_hypergraph(empty(3))
        for x in range(8):
            assert component_direct(st, PauliIndex(x, 0)) == 1
            for z in range(1, 8):
                assert component_direct(st, PauliIndex(x, z)) == 0

    def test_ccz_x1_component(self):
        # oracle: brute-force sum over the 8 basis states
        assert naive_component(CCZ, 0b001, 0) == Fraction(1, 2)
        assert component_direct(from_hypergraph(CCZ), PauliIndex(0b001, 0)) == Fraction(1, 2)

    def test_matches_naive_everywhere(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 6))
            g = random_graph(n, rng)
            st = from_hypergraph(g)
            for x in range(1 << n):
                for z in range(1 << n):
                    assert component_direct(st, PauliIndex(x, z)) == naive_component(g, x, z)

    def test_matches_dense_matrix_oracle(self, rng):
        for _ in range(6):
            n = int(rng.integers(1, 5))
            g = random_graph(n, rng)
            v = dense_state(g)
            st = from_hypergraph(g)
            for x in range(1 << n):
                for z in range(1 << n):
                    tr = v.conj() @ (dense_pauli(n, x, z) @ v)
                    d = component_direct(st, PauliIndex(x, z))
                    assert abs(abs(tr) ** 2 - float(d * d)) < 1e-10


class TestComponentInduced:
    def test_route_equality_exhaustive(self, rng):
        for _ in range(12):
            n = int(rng.integers(1, 7))
            g = random_graph(n, rng)
            st = from_hypergraph(g)
            for x in range(1 << n):
                for z in range(1 << n):
                    p = PauliIndex(x, z)
                    d = component_direct(st, p)
                    assert d * d == component_induced(g, p)

    def test_identity(self, rng):
        g = random_graph(5, rng)
        assert component_induced(g, PauliIndex(0, 0)) == 1

    def test_ccz_x1_squared(self):
        # induced graph has the single 2-edge {2,3}; Tr = 4, squared 1/4
        assert component_induced(CCZ, PauliIndex(0b001, 0)) == Fraction(1, 4)


class TestFullSpectrum:
    def test_plus_state_indicator(self):
        spec = full_spectrum(from_hypergraph(empty(3)))
        spec.validate()
        assert all(spec.sq[x, 0] == 4**3 for x in range(8))
        assert int((spec.sq != 0).sum()) == 8

    def test_graph_state_is_stabilizer(self):
        # triangle graph state: exactly 2^n unit components, rest zero
        tri = build(3, [(1, 2), (2, 3), (1, 3)])
        spec = full_spectrum(from_hypergraph(tri))
        spec.validate()
        values, counts = np.unique(spec.sq, return_counts=True)
        assert list(values) == [0, 4**3]
        assert counts[1] == 8

    def test_any_low_uniform_graph_is_stabilizer(self, rng):
        # every hypergraph with edges of at most two vertices is Clifford:
        # the spectrum is an indicator with exactly 2^n ones
        for _ in range(15):
            n = int(rng.integers(1, 6))
            count = min(int(rng.integers(0, 7)), (1 << n) - 1)
            masks = set()
            while len(masks) < count:
                m = int(rng.integers(1, 1 << n))
                if m.bit_count() <= 2:
                    masks.add(m)
            spec = full_spectrum(from_hypergraph(from_masks(n, masks)))
            values = np.unique(spec.sq)
            assert set(values.tolist()) <= {0, 4**n}
            assert int((spec.sq == 4**n).sum()) == 1 << n

    def test_normalization_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            spec = full_spectrum(from_hypergraph(random_graph(n, rng)))
            spec.validate()

    def test_matches_component_direct(self, rng):
        n = 4
        g = random_graph(n, rng)
        st = from_hypergraph(g)
        spec = full_spectrum(st)
        for x in range(1 << n):
            for z in range(1 << n):
                d = component_direct(st, PauliIndex(x, z))
                assert spec.component_sq(x, z) == d * d

    def test_budget(self):
        with pytest.raises(BudgetError):
            full_spectrum(from_hypergraph(empty(6)), budget=5)


def every_edge_size_graph(n: int, rng):
    """Random graph with at least one edge of each size 1..n, plus n random edges."""
    masks = set()
    for k in range(1, n + 1):
        masks.add(sum(1 << int(v) for v in rng.choice(n, size=k, replace=False)))
    while len(masks) < min(2 * n, (1 << n) - 1):
        masks.add(int(rng.integers(1, 1 << n)))
    return from_masks(n, masks)


def kernel_graphs(rng):
    for n in range(1, 11):
        yield every_edge_size_graph(n, rng)
        yield empty(n)
        yield c_complete(n, n)


def fwht_magnitudes(g) -> np.ndarray:
    """|W| histogram from one int64 butterfly per X mask."""
    n = g.n
    v0 = from_hypergraph(g).pm_table()
    idx = np.arange(1 << n)
    hist = np.zeros((1 << n) + 1, dtype=np.int64)
    for x in range(1 << n):
        hist += np.bincount(np.abs(fwht(v0 * v0[idx ^ x])), minlength=hist.size)
    return hist


def dense_walsh(g) -> np.ndarray:
    """W[x, z] from one float64 product with the dense Sylvester-Hadamard matrix."""
    n = g.n
    v = from_hypergraph(g).pm_table().astype(np.float64)
    a = np.arange(1 << n)
    h = np.where(np.bitwise_count(a[:, None] & a) & 1, -1.0, 1.0)
    return ((v[a[:, None] ^ a] * v) @ h).astype(np.int64)


def assert_half_row(w: np.ndarray, f: np.ndarray, x: int) -> None:
    """W row x equals 2 F_x(y) at every even-parity z (y is z without bit t) and 0 elsewhere."""
    z = np.arange(len(w))
    t = max(x, 1).bit_length() - 1
    even = np.bitwise_count(max(x, 1) & z) & 1 == 0
    y = (z & ((1 << t) - 1)) | ((z >> (t + 1)) << t)
    assert not w[~even].any(), x
    assert np.array_equal(w[even], 2 * f[y[even]].astype(np.int64)), x


def dense_magnitudes(g) -> np.ndarray:
    return np.bincount(np.abs(dense_walsh(g)).ravel(), minlength=(1 << g.n) + 1)


def direct_magnitudes(g) -> np.ndarray:
    """|W| histogram from one basis-overlap sum per Pauli."""
    n = g.n
    st = from_hypergraph(g)
    hist = np.zeros((1 << n) + 1, dtype=np.int64)
    for x in range(1 << n):
        for z in range(1 << n):
            hist[int(abs(component_direct(st, PauliIndex(x, z)) * (1 << n)))] += 1
    return hist


class TestWalshKernel:
    def test_matches_butterfly_n1_to_10(self, rng):
        for g in kernel_graphs(rng):
            hist = walsh_magnitudes(from_hypergraph(g))
            assert hist.shape == ((1 << g.n) + 1,)
            assert np.array_equal(hist, fwht_magnitudes(g)), g

    def test_matches_dense_transform_n1_to_10(self, rng):
        for n in range(1, 11):
            one_edge = [from_masks(n, [(1 << k) - 1]) for k in sorted({1, 2, 3, n}) if k <= n]
            for g in [every_edge_size_graph(n, rng), every_edge_size_graph(n, rng), empty(n),
                      *one_edge]:
                assert np.array_equal(walsh_magnitudes(from_hypergraph(g)), dense_magnitudes(g)), g

    def test_half_rows_and_parity_zeros(self, rng):
        # W[x, z] = 0 when x.z is odd, else 2 F_x(z without bit t); t is
        # the top bit of max(x, 1)
        for n in (1, 2, 5, 8, 9, 10, 11):
            g = every_edge_size_graph(n, rng)
            w = dense_walsh(g)
            z = np.arange(1 << n)
            next_x = 0
            for x0, f in spectrum.walsh_half_blocks(from_hypergraph(g)):
                assert x0 == next_x and f.dtype == np.float32 and f.shape[1] == 1 << (n - 1)
                for r in range(len(f)):
                    x = x0 + r
                    t = max(x, 1).bit_length() - 1
                    odd = np.bitwise_count(max(x, 1) & z) & 1 == 1
                    y = (z & ((1 << t) - 1)) | ((z >> (t + 1)) << t)
                    assert not w[x, odd].any()
                    assert np.array_equal(w[x, ~odd], 2 * f[r, y[~odd]].astype(np.int64))
                next_x += len(f)
            assert next_x == 1 << n

    def test_full_spectrum_odd_paulis_vanish(self, rng):
        for g in kernel_graphs(rng):
            sq = full_spectrum(from_hypergraph(g)).sq
            a = np.arange(1 << g.n)
            odd = (np.bitwise_count(a[:, None] & a) & 1).astype(bool)
            assert not sq[odd].any(), g
            assert sq[~odd].sum() == 2 ** (3 * g.n), g

    def test_matches_component_direct(self, rng):
        for g in kernel_graphs(rng):
            if g.n <= 5:
                assert np.array_equal(walsh_magnitudes(from_hypergraph(g)), direct_magnitudes(g)), g

    def test_full_spectrum_validates_and_agrees(self, rng):
        for g in kernel_graphs(rng):
            st = from_hypergraph(g)
            spec = full_spectrum(st)
            spec.validate()
            assert np.array_equal(spec.magnitude_histogram(), walsh_magnitudes(st)), g

    def test_blocks_cover_rows_in_order(self, rng):
        # n = 7: one block of 4^7 elements; n = 10: blocks of _HALF_BLOCK / 2^9 rows
        for n in (7, 10):
            st = from_hypergraph(every_edge_size_graph(n, rng))
            v0 = st.pm_table()
            idx = np.arange(1 << n)
            next_x = 0
            for x0, w in walsh_blocks(st):
                assert x0 == next_x
                assert w.dtype == np.float32 and w.shape[1] == 1 << n
                assert w.size == min(4**n, 2 * spectrum._HALF_BLOCK)
                for r in range(len(w)):
                    assert np.array_equal(w[r].astype(np.int64), fwht(v0 * v0[idx ^ (x0 + r)]))
                next_x += len(w)
            assert next_x == 1 << n

    def test_rows_larger_than_a_block(self, rng):
        # n = 19: one row per block, uneven Kronecker split 2^9 x 2^10
        n = 19
        g = from_masks(n, [int(rng.integers(1, 1 << n)) for _ in range(12)] + [(1 << n) - 1])
        st = from_hypergraph(g)
        v0 = st.pm_table()
        idx = np.arange(1 << n)
        for x0, w in islice(walsh_blocks(st), 3):
            assert w.shape == (1, 1 << n)
            assert np.array_equal(w[0].astype(np.int64), fwht(v0 * v0[idx ^ x0]))

    @pytest.mark.parametrize("n", [16, 17, 19])
    def test_single_row_blocks(self, rng, n):
        # one row per block: n = 16 fills the kept scratch exactly, and larger
        # rows get arrays of their own.  Rows 4...7 gather v1 at a' ^ x' with
        # x' = x - 4 = 0...3, the only rows whose gather is shifted
        g = from_masks(n, [int(rng.integers(1, 1 << n)) for _ in range(12)] + [(1 << n) - 1])
        st = from_hypergraph(g)
        v0 = st.pm_table()
        z = np.arange(1 << n)
        for x0, f in islice(spectrum.walsh_half_blocks(st), 8):
            assert f.shape == (1, 1 << (n - 1))
            assert_half_row(fwht(v0 * v0[z ^ x0]), f[0], x0)

    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_first_block_takes_one_top_bit_at_a_time(self, rng, n):
        # the first block holds rows x < 2^(16 - n), each top bit t in its own
        # rows 2^t ... 2^(t+1) - 1, the rows from 16 on doubled
        st = from_hypergraph(every_edge_size_graph(n, rng))
        v0 = st.pm_table()
        z = np.arange(1 << n)
        x0, f = next(spectrum.walsh_half_blocks(st))
        assert x0 == 0 and f.shape == (min(1 << n, spectrum._HALF_BLOCK >> (n - 1)), 1 << (n - 1))
        for x in range(len(f)):
            assert_half_row(fwht(v0 * v0[z ^ x]), f[x], x)

    def test_doubled_blocks_match_the_butterfly(self, rng):
        # n = 8...11: blocks of 256, 128, 64 and 32 rows, 16 gathered and the
        # others doubled
        for n in (8, 9, 10, 11):
            for _ in range(2):
                g = every_edge_size_graph(n, rng)
                assert np.array_equal(walsh_magnitudes(from_hypergraph(g)), fwht_magnitudes(g)), g

    def test_affine_rows(self):
        # |F| = 2^(n-1) on every row of the plus state, and 2^(n-1) - 2 at one
        # y of every row x != 0 of the n-vertex edge: the largest magnitudes.
        # From n = 13 they exceed 1/16 of a block and are counted by runs
        def closed_forms(n):
            plus = np.zeros((1 << n) + 1, dtype=np.int64)
            plus[1 << n], plus[0] = 1 << n, 4**n - (1 << n)
            top = np.zeros((1 << n) + 1, dtype=np.int64)
            top[1 << n] = 1
            top[(1 << n) - 4] += (1 << n) - 1
            top[4] += ((1 << n) - 1) * ((1 << (n - 1)) - 1)
            top[0] += 4**n - top.sum()
            return {empty(n): plus, c_complete(n, n): top}

        for n in (4, 5, 8, 9):
            for g, hist in closed_forms(n).items():
                assert np.array_equal(fwht_magnitudes(g), hist), g
        for n in (4, 5, 8, 9, 10, 11, 13):
            for g, hist in closed_forms(n).items():
                assert np.array_equal(walsh_magnitudes(from_hypergraph(g)), hist), g

    def test_kept_scratch_stays_small(self):
        # the scratch lives as long as the process, so it sits on the peak
        # RSS of every run that takes the Walsh route: one block of rows and
        # one of the first product.  A larger block or another kept array
        # fails here before it shows in a benchmark run's memory
        assert sum(a.nbytes for a in spectrum._walsh_scratch()) <= 256 << 10

    def test_blocks_past_the_kept_scratch(self, rng, monkeypatch):
        # blocks of 2^8 half-row entries fit the kept scratch up to n = 9,
        # and above it numpy allocates them; both give the same histogram.
        # The plus state's rows take the run boundaries from n = 6 on
        spectrum._walsh_scratch.cache_clear()
        monkeypatch.setattr(spectrum, "_HALF_BLOCK", 1 << 8)
        try:
            for n in (6, 9, 10, 11):
                for g in (every_edge_size_graph(n, rng), empty(n)):
                    assert np.array_equal(walsh_magnitudes(from_hypergraph(g)), dense_magnitudes(g)), g
        finally:
            spectrum._walsh_scratch.cache_clear()

    def test_refuses_n_above_24_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="n=25"):
                walsh_blocks(PhaseState(25, 0))
            with pytest.raises(BudgetError, match="n=25"):
                walsh_magnitudes(PhaseState(25, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # a 2^25 table would take at least 32 MiB

    def test_parseval_checked_on_every_call(self, monkeypatch):
        st = from_hypergraph(build(4, [(1, 2, 3), (2, 4)]))
        walsh_magnitudes(st)
        original = spectrum.walsh_half_blocks

        def corrupted(state):
            for x0, f in original(state):
                if x0 == 0:
                    f = f.copy()
                    f[-1, -1] += 1  # still a valid magnitude, wrong total power
                yield x0, f

        monkeypatch.setattr(spectrum, "walsh_half_blocks", corrupted)
        with pytest.raises(AssertionError, match="Parseval"):
            walsh_magnitudes(st)


class TestStarTraceSum:
    @pytest.mark.parametrize("alpha", [Fraction(1, 2), 2, 3])
    def test_consistency_with_full_spectrum(self, rng, alpha):
        from hypermagic.magic import pl_moment

        for _ in range(8):
            n = int(rng.integers(2, 7))
            g = random_graph(n, rng)
            total = star_trace_sum(g, alpha)
            exponent = n * (1 + 2 * Fraction(alpha))
            moment = Fraction(total, 2 ** int(exponent))
            assert moment == pl_moment(full_spectrum(from_hypergraph(g)), alpha)

    def test_empty_graph_alpha2(self):
        n = 3
        total = star_trace_sum(empty(n), 2)
        assert Fraction(total, 2 ** (5 * n)) == 1

    def test_three_complete_n3(self):
        total = star_trace_sum(c_complete(3, 3), 2)
        assert Fraction(total, 2**15) == Fraction(11, 32)

    def test_non_half_integer_alpha_float(self):
        val = star_trace_sum(CCZ, 0.8)
        assert isinstance(val, float) and val > 0


class TestQuadraticRankLemma:
    def test_walsh_spectrum_of_quadratic_forms(self, rng):
        # oracle for the rank-route: FWHT of a random pure quadratic form
        # has 2^r nonzeros all of magnitude 2^{n - r/2}
        for _ in range(25):
            n = int(rng.integers(2, 8))
            pairs = []
            rows = [0] * n
            for j in range(n):
                for k in range(j + 1, n):
                    if rng.random() < 0.5:
                        pairs.append((j, k))
                        rows[j] |= 1 << k
                        rows[k] |= 1 << j
            r = gf2_rank_fast([v for v in rows if v])
            idx = np.arange(1 << n)
            table = np.zeros(1 << n, dtype=np.int64)
            for j, k in pairs:
                table ^= ((idx >> j) & 1) * ((idx >> k) & 1)
            w = fwht(1 - 2 * table)
            mags = np.abs(w)
            nonzero = mags[mags > 0]
            assert r % 2 == 0
            assert len(nonzero) == 2**r
            assert np.all(nonzero == 2 ** (n - r // 2))


class TestRankMoment:
    def test_ccz_values(self):
        assert rank_moment(CCZ, 2) == Fraction(11, 32)
        assert rank_moment(CCZ, Fraction(1, 2)) == Fraction(15, 8)

    def test_histogram_total(self, rng):
        g = random_uniform3(6, rng)
        hist = rank_histogram(g)
        assert int(hist.sum()) == 64

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), 2, 3])
    def test_agrees_with_full_spectrum(self, rng, alpha):
        from hypermagic.magic import pl_moment

        for _ in range(10):
            n = int(rng.integers(3, 7))
            g = random_uniform3(n, rng)
            assert rank_moment(g, alpha) == pl_moment(full_spectrum(from_hypergraph(g)), alpha)

    def test_agrees_with_star_on_mixed_small_edges(self, rng):
        # 1- and 2-edges mixed in: still a quadratic pair layer
        g = from_masks(4, [0b0111, 0b1011, 0b0001, 0b0110])
        total = star_trace_sum(g, 2)
        assert rank_moment(g, 2) == Fraction(total, 2**20)

    def test_rejects_big_edges(self):
        with pytest.raises(ValueError):
            rank_moment(build(4, [(1, 2, 3, 4)]), 2)


def per_mask_rank_histogram(g) -> np.ndarray:
    """Rank histogram with B(x) built from the edges and one `gf2_rank_fast` per mask."""
    n = g.n
    xs = np.arange(1 << n, dtype=np.int64)
    rows = np.zeros((1 << n, n), dtype=np.int64)
    for e in g.edges:
        if e.bit_count() != 3:
            continue
        vs = [b for b in range(n) if e >> b & 1]
        for third in vs:
            j, k = (v for v in vs if v != third)
            on = (xs >> third) & 1
            rows[:, j] ^= on << k
            rows[:, k] ^= on << j
    hist = np.zeros(n + 1, dtype=np.int64)
    for r in rows.tolist():
        hist[gf2_rank_fast([v for v in r if v])] += 1
    return hist


def small_edge_graph(n: int, rng, sizes=(1, 2, 3), count=None):
    """Random graph whose edges have sizes drawn from `sizes` (those <= n)."""
    sizes = [k for k in sizes if k <= n]
    count = 2 * n if count is None else count
    masks = set()
    for _ in range(count):
        k = int(rng.choice(sizes))
        masks.add(sum(1 << int(v) for v in rng.choice(n, size=k, replace=False)))
    return from_masks(n, masks)


class TestBatchedRankHistogram:
    def test_matches_per_mask_rank_n1_to_14(self, rng):
        for n in range(1, 15):
            graphs = [empty(n), small_edge_graph(n, rng, sizes=(1, 2)), small_edge_graph(n, rng)]
            if n >= 3:
                graphs += [c_complete(n, 3), random_uniform3(n, rng)]
            for g in graphs:
                assert np.array_equal(rank_histogram(g), per_mask_rank_histogram(g)), g

    def test_uint32_rows_above_16_vertices(self, rng):
        # n = 17: rows need bit 16, past uint16; 16 eliminations of one tile each
        n = 17
        g = from_masks(n, (0b111 << 14,) + small_edge_graph(n, rng, sizes=(3,), count=12).edges)
        expected = per_mask_rank_histogram(g)
        assert expected[2:].sum() > 0
        assert np.array_equal(rank_histogram(g), expected)


class TestRankKernelStack:
    """One row echelon per _RANK_CHUNK (graph, mask) columns over a stack of 3-edge sets.

    Every stack is checked against `per_mask_rank_histogram`, one
    `gf2_rank_fast` per mask built from the edges: random stacks at several
    densities, whole graphs per elimination with the last one short, one
    elimination of the n = 5 enumeration's 256 graphs, a graph over several
    eliminations at n = 14 and 15 (after the empty graph that opens every
    random stack), uint32 rows at n = 17, the benchmark's rank-class shape,
    and rank-deficient stacks, where most rows end at zero.
    """

    @staticmethod
    def graphs_of(n: int, keep: np.ndarray):
        from hypermagic.hypergraph import _c_edges

        return [from_masks(n, [e for e, k in zip(_c_edges(n, 3), row) if k]) for row in keep]

    @classmethod
    def stack(cls, n: int, graphs: int, rng, density=0.5):
        from hypermagic.hypergraph import _c_edges

        keep = rng.random((graphs, len(_c_edges(n, 3)))) < density
        keep[0] = False  # the empty graph: every mask has rank 0
        want = np.array([per_mask_rank_histogram(g) for g in cls.graphs_of(n, keep)])
        return keep, want

    def test_stack_matches_per_mask_ranks(self, rng):
        # n = 9...13 alternate sparse and dense draws, so that low and full
        # ranks both occur; 256 graphs at n = 5 fill one elimination, as the
        # enumeration's calls do; n = 14 and 15 take 2 and 4 eliminations a graph
        cases = [(n, 7, 0.5) for n in (3, 5, 8)] + [(5, spectrum._RANK_CHUNK >> 5, 0.5)]
        cases += [(n, 3 if n <= 11 else 2, (0.05, 0.5)[n % 2]) for n in range(9, 14)]
        cases += [(14, 2, 0.5), (15, 2, 0.05)]
        for n, graphs, density in cases:
            keep, want = self.stack(n, graphs, rng, density)
            assert want[:, 2:].sum() > 0
            assert np.array_equal(spectrum._rank_histograms(n, keep), want), (n, graphs)

    def test_uint32_stack_n17(self, rng):
        # rows need bit 16, past uint16
        n = 17
        keep, want = self.stack(n, 3, rng, density=0.02)
        assert want[:, 2:].sum() > 0
        assert np.array_equal(spectrum._rank_histograms(n, keep), want)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_benchmark_rank_class_stack(self, n, p):
        # eight c = 3 draws at n = 10...12, as `ensemble --samples 8` makes
        # them, ranked in one call: whole graphs per elimination
        from hypermagic.ensembles import EnsembleSpec, _keep

        spec = EnsembleSpec(3, p, n, 1000 * n + int(100 * p))
        keep = np.array([_keep(spec, i) for i in range(8)])
        want = np.array([per_mask_rank_histogram(g) for g in self.graphs_of(n, keep)])
        assert np.array_equal(spectrum._rank_histograms(n, keep), want)

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_rank_deficient_stack(self, n, rng):
        # most rows end at zero: B(x) of c_complete(n, 3) is x 1^T + 1 x^T off
        # the diagonal, of rank at most 2, for the 2^(n-1) masks of even
        # weight; triples through vertices 0 and 1 fill only rows and columns
        # 0 and 1; vertices with no edge add zero rows and columns, above or
        # between the live ones
        from hypermagic.hypergraph import _c_edges

        edges = np.array(_c_edges(n, 3))
        keep = np.zeros((6, len(edges)), dtype=bool)
        keep[0] = True  # c_complete(n, 3)
        keep[1] = edges & 3 == 3
        lives = (n // 2, n - 1)
        for g, live in enumerate(lives, start=2):
            keep[g] = (edges < 1 << live) & (rng.random(len(edges)) < 0.5)  # the top vertices isolated
        isolated = (1 << 1) | (1 << (n // 2))
        keep[4] = (edges & isolated == 0) & (rng.random(len(edges)) < 0.5)
        keep[5] = (edges & isolated == 0) & (rng.random(len(edges)) < 0.9)
        graphs = self.graphs_of(n, keep)
        assert graphs[0] == c_complete(n, 3)
        want = np.array([per_mask_rank_histogram(g) for g in graphs])
        assert want[0, :3].sum() == 1 << (n - 1) and want[1, 5:].sum() == 0
        for g, live in enumerate(lives, start=2):
            assert want[g, live + 1:].sum() == 0
        assert want[4:, n - 1:].sum() == 0 and want[2:, 2:].sum() > 0
        assert np.array_equal(spectrum._rank_histograms(n, keep), want)

    @pytest.mark.parametrize("dtype, limit", [(np.uint16, 272 << 10), (np.uint32, 1056 << 10)])
    def test_kept_scratch_stays_small(self, dtype, limit):
        # the scratch lives as long as the process, so it sits on the peak
        # RSS of every run that ranks: one (16 or 32, 2^13) array and one
        # 2^13-long row.  A larger chunk or another kept array fails here
        # before it shows in a benchmark run's memory
        kept = spectrum._work_arrays(dtype)
        assert sum(a.nbytes for a in kept) <= limit

    def test_edge_form_table_passes_its_check_up_to_the_sim_budget(self):
        # the check runs once per n, on the table every kernel input sums
        for n in range(3, 27):
            pos, val = spectrum._edge_forms.__wrapped__(n)
            assert pos.shape == val.shape == (comb(n, 3), 6)

    @pytest.mark.parametrize("flip", ["asymmetric", "diagonal"])
    def test_rejects_a_form_that_is_not_alternating(self, flip, monkeypatch):
        # a corrupt ordering table: the three cyclic orderings set bit k of
        # row j without bit j of row k; (0, 1, 1) sets a diagonal bit, on the
        # one edge of n = 3, so that no two entries share it
        n, orders = {"asymmetric": (6, [(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
                     "diagonal": (3, [(0, 1, 2), (0, 2, 1), (0, 1, 1)])}[flip]
        monkeypatch.setattr(spectrum, "permutations", lambda _: orders)
        spectrum._edge_forms.cache_clear()
        try:
            with pytest.raises(AssertionError, match="symmetric with a zero diagonal"):
                spectrum._rank_histograms(n, np.ones((1, comb(n, 3)), dtype=bool))
        finally:
            spectrum._edge_forms.cache_clear()

    def test_rejects_edges_that_share_a_bit(self, monkeypatch):
        # every ordering twice: two entries set each bit, so a sum of the
        # table's forms is no longer their XOR
        monkeypatch.setattr(spectrum, "permutations", lambda r: [*permutations(r)] * 2)
        spectrum._edge_forms.cache_clear()
        try:
            with pytest.raises(AssertionError, match="overlap"):
                spectrum._edge_forms(6)
        finally:
            spectrum._edge_forms.cache_clear()


class TestMomentEvaluator:
    def test_rank_magnitudes_match_walsh_n1_to_10(self, rng):
        for n in range(1, 11):
            graphs = [empty(n), small_edge_graph(n, rng, sizes=(1, 2)), small_edge_graph(n, rng)]
            if n >= 3:
                graphs += [c_complete(n, 3), random_uniform3(n, rng)]
            for g in graphs:
                hist = walsh_magnitudes(from_hypergraph(g))
                nonzero = {m: int(c) for m, c in enumerate(hist) if m and c}
                assert rank_magnitudes(rank_histogram(g), n) == nonzero, g
                assert sparse_counts(hist) == nonzero, g

    def test_ccz_counts_give_exact_moments(self):
        counts = rank_magnitudes(rank_histogram(CCZ), 3)
        assert counts == {8: 1, 4: 28}
        assert moment_from_magnitudes(counts, 3, 2) == Fraction(11, 32)
        assert moment_from_magnitudes(counts, 3, Fraction(1, 2)) == Fraction(15, 8)

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(4, 5), Fraction(7, 3)])
    def test_float_moment_against_60_digit_reference(self, rng, alpha):
        from hypermagic.symmetric import reduced_magnitudes, reduced_traces

        with localcontext() as ctx:
            ctx.prec = 60
            a = Decimal(alpha.numerator) / Decimal(alpha.denominator)
            cases = []
            for n in range(3, 13):
                # rank route; reference 2^-n sum_r hist[r] 2^{(1-alpha) r} from the ranks
                g = random_uniform3(n, rng)
                hist = rank_histogram(g).tolist()
                want = sum(c * Decimal(2) ** ((1 - a) * r) for r, c in enumerate(hist)) / 2**n
                cases.append((rank_moment(g, alpha), want))
            for n in range(3, 11):
                # reduced route; reference 2^-n(1+2 alpha) sum mult |t|^{2 alpha} per class
                layers = c_complete(n, 2).edges + c_complete(n, 3).edges
                for g in (c_complete(n, 3), c_complete(n, n), from_masks(n, layers)):
                    want = sum(comb(n, m) * comb(m, m1) * comb(n - m, m0)
                               * Decimal(abs(int(t))) ** (2 * a)
                               for m, grid in enumerate(reduced_traces(g))
                               for (m1, m0), t in np.ndenumerate(grid) if t)
                    want /= Decimal(2) ** (n * (1 + 2 * a))
                    cases.append((moment_from_magnitudes(reduced_magnitudes(g), n, alpha), want))
            for got, want in cases:
                assert isinstance(got, float)
                assert abs(Decimal(got) - want) <= Decimal("1e-15") * want, (got, want)


class TestCsvDump:
    def test_header_and_shape(self, tmp_path):
        import io

        buf = io.StringIO()
        dump_csv(from_hypergraph(CCZ), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == f"# denominator 4^n = {4**3}"
        assert lines[1] == "x,z,sq_component_numerator"
        assert len(lines) == 2 + 64
        assert lines[2] == f"0,0,{4**3}"

    def test_streams_the_full_spectrum(self, rng):
        import io

        for n in (1, 4, 8):
            st = from_hypergraph(every_edge_size_graph(n, rng))
            buf = io.StringIO()
            hist = dump_csv(st, buf)
            lines = buf.getvalue().splitlines()[2:]
            want = full_spectrum(st).sq
            assert lines == [f"{x},{z},{want[x, z]}" for x in range(1 << n) for z in range(1 << n)]
            assert np.array_equal(hist, walsh_magnitudes(st))
