"""Phase tables, gate application, generalized stabilizers."""

import numpy as np
import pytest

from hypermagic.bitops import table_to_bits
from hypermagic.budget import BudgetError
from hypermagic.hypergraph import build, c_complete, empty
from hypermagic.phasestate import PhaseState, apply_cz, from_hypergraph
from hypermagic.verify import (
    PauliIndex,
    apply_stabilizer,
    induced_full,
    stabilizer_word,
    trace_of_state,
)

from conftest import dense_state, naive_f, random_graph


class TestFromHypergraph:
    def test_empty_graph_all_plus(self):
        st = from_hypergraph(empty(2))
        assert st.signs == 0

    def test_ccz_flips_only_111(self):
        st = from_hypergraph(build(3, [(1, 2, 3)]))
        assert st.signs == 1 << 0b111

    def test_hand_evaluated_two_edges(self):
        # edges {1},{1,2} on n=2: f(10)=1, f(11)=1+1=0 (index bit0 = vertex 1)
        st = from_hypergraph(build(2, [(1,), (1, 2)]))
        bits = table_to_bits(st.signs, 2)
        assert list(bits) == [0, 1, 0, 0]

    def test_matches_naive_f(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            g = random_graph(n, rng)
            bits = from_hypergraph(g).sign_bits()
            for a in range(1 << n):
                assert bits[a] == naive_f(g, a)

    def test_amplitudes_match_dense_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            g = random_graph(n, rng)
            assert np.allclose(from_hypergraph(g).amplitudes(), dense_state(g))

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            from_hypergraph(empty(10), budget=8)


class TestApplyCz:
    def test_involution(self, rng):
        g = random_graph(4, rng)
        st = from_hypergraph(g)
        assert apply_cz(apply_cz(st, 0b1011), 0b1011) == st

    def test_single_edge_equals_construction(self):
        st = apply_cz(from_hypergraph(empty(3)), 0b111)
        assert st == from_hypergraph(build(3, [(1, 2, 3)]))

    def test_gates_commute(self):
        st = from_hypergraph(empty(3))
        a, b = 0b011, 0b110
        assert apply_cz(apply_cz(st, a), b) == apply_cz(apply_cz(st, b), a)

    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            apply_cz(from_hypergraph(empty(2)), 0)


class TestStabilizerWord:
    def test_zero_selector_is_identity(self):
        w = stabilizer_word(build(3, [(1, 2, 3)]), 0)
        assert w.x_part == 0 and w.phase_edges == () and w.sign == 1

    def test_single_selector(self):
        # s = {1} on {{1,2,3}} -> X1 . CZ_{23}
        w = stabilizer_word(build(3, [(1, 2, 3)]), 0b001)
        assert w.x_part == 0b001
        assert w.phase_edges == (0b110,)

    def test_double_selector(self):
        # s = {1,2} -> X1 X2 . CZ_{23} . CZ_{13} . Z3
        w = stabilizer_word(build(3, [(1, 2, 3)]), 0b011)
        assert w.x_part == 0b011
        assert set(w.phase_edges) == {0b110, 0b101, 0b100}

    def test_one_edge_graph_gets_minus_sign(self):
        # G = {{1}}: S1 = -X1 after the empty-support gate convention
        w = stabilizer_word(build(1, [(1,)]), 1)
        assert w.sign == -1 and w.phase_edges == ()


class TestApplyStabilizer:
    def test_fixed_point_exhaustive(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            g = random_graph(n, rng)
            st = from_hypergraph(g)
            for s in range(1 << n):
                assert apply_stabilizer(st, stabilizer_word(g, s)) == st

    def test_identity_word_noop(self, rng):
        g = random_graph(5, rng)
        st = from_hypergraph(g)
        assert apply_stabilizer(st, stabilizer_word(g, 0)) == st

    def test_involution_up_to_plus_sign(self, rng):
        # stabilizers square to the identity; applying twice restores the
        # table with no residual global flip
        g = random_graph(6, rng)
        st = from_hypergraph(g)
        w = stabilizer_word(g, 0b101101 & ((1 << g.n) - 1))
        assert apply_stabilizer(apply_stabilizer(st, w), w) == st

    def test_reconstruction_identity(self, rng):
        # 2^-n sum_s St(G, s) acts as the projector onto the state
        for _ in range(8):
            n = int(rng.integers(1, 5))
            g = random_graph(n, rng)
            size = 1 << n
            acc = np.zeros((size, size))
            idx = np.arange(size)
            for s in range(size):
                w = stabilizer_word(g, s)
                phase = np.ones(size)
                for e in w.phase_edges:
                    phase *= np.where((idx & e) == e, -1.0, 1.0)
                mat = np.zeros((size, size))
                mat[idx ^ s, idx] = phase * w.sign
                acc += mat
            v = 1.0 - 2.0 * from_hypergraph(g).sign_bits().astype(float)
            assert np.array_equal(acc, np.outer(v, v))

    def test_xor_permute_matches_fancy_indexing(self, rng):
        from hypermagic.verify import _xor_permute_table

        for _ in range(20):
            n = int(rng.integers(1, 8))
            table = int(rng.integers(0, 1 << min(1 << n, 62)))
            s = int(rng.integers(0, 1 << n))
            bits = table_to_bits(table, n)
            packed = np.packbits(bits[np.arange(1 << n) ^ s], bitorder="little")
            expect = int.from_bytes(packed.tobytes(), "little")
            assert _xor_permute_table(table, n, s) == expect

    def test_f_additivity_on_disjoint_unions(self):
        # f of an edge-disjoint union is the XOR of the f tables
        g1 = build(5, [(1, 2)])
        g2 = build(5, [(3, 4, 5)])
        both = build(5, [(1, 2), (3, 4, 5)])
        assert from_hypergraph(both).signs == (
            from_hypergraph(g1).signs ^ from_hypergraph(g2).signs
        )


class TestPhaseTrace:
    def test_empty_graph(self):
        assert trace_of_state(from_hypergraph(empty(4))) == 16

    def test_ccz(self):
        assert trace_of_state(from_hypergraph(build(3, [(1, 2, 3)]))) == 6

    def test_full_induced_at_all_ones_x(self):
        # n-complete n=3 at x = 111, z = 0: the fully induced graph is the
        # triangle plus all three 1-edges; |Tr| = 2^n - 4
        g = c_complete(3, 3)
        ind = induced_full(g, PauliIndex(0b111, 0))
        assert set(ind.edges) == {0b001, 0b010, 0b100, 0b011, 0b101, 0b110}
        assert abs(trace_of_state(from_hypergraph(ind))) == 4

    def test_equals_naive_sum(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            g = random_graph(n, rng)
            naive = sum(1 - 2 * naive_f(g, a) for a in range(1 << n))
            assert trace_of_state(from_hypergraph(g)) == naive

    def test_state_trace_helper(self):
        st = PhaseState(2, 0b0110)
        assert trace_of_state(st) == 0
