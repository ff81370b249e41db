"""Construction, degrees, induced graphs, text round-trips."""

from fractions import Fraction
from itertools import combinations

import pytest

from hypermagic.hypergraph import (
    build,
    c_complete,
    cross_masks,
    degree_profile,
    from_masks,
    from_text,
    to_text,
)
from hypermagic.verify import PauliIndex, induced_full

from conftest import induced_star, random_graph

FIG1 = build(6, [(1, 2, 3), (3, 5, 6), (1, 4), (5,)])


class TestBuild:
    def test_single_edge(self):
        g = build(3, [(1, 2, 3)])
        assert g.n == 3
        assert g.edges == (0b111,)

    def test_fig1_graph(self):
        assert len(FIG1.edges) == 4
        assert FIG1.edge_vertex_sets() == ((1, 2, 3), (1, 4), (5,), (3, 5, 6))

    def test_duplicate_edges_merge(self):
        g = build(3, [(1, 2, 3), (1, 2, 3)])
        assert g.edges == (0b111,)

    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            build(3, [()])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            build(3, [(1, 4)])

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError):
            build(0, [])

    def test_rejects_repeated_vertex_in_edge(self):
        with pytest.raises(ValueError):
            build(3, [(1, 1, 2)])

    def test_deterministic_canonical_form(self):
        a = build(4, [(2, 3), (1, 2, 4)])
        b = build(4, [(4, 2, 1), (3, 2)])
        assert a == b


class TestCComplete:
    @pytest.mark.parametrize("n,c,count", [(3, 3, 1), (4, 3, 4), (6, 3, 20)])
    def test_edge_counts(self, n, c, count):
        assert len(c_complete(n, c).edges) == count

    def test_rejects_c_above_n(self):
        with pytest.raises(ValueError):
            c_complete(3, 4)


class TestDegreeProfile:
    def test_fig1_profile(self, rng):
        # random graphs each get a 1-vertex edge, which adds no neighbours
        graphs = [FIG1, c_complete(62, 3)]
        for _ in range(40):
            n = int(rng.integers(1, 11))
            g = random_graph(n, rng)
            graphs.append(from_masks(n, {*g.edges, 1 << int(rng.integers(0, n))}))
        for g in graphs:
            # oracle: enumerate vertex pairs sharing an edge
            expected = []
            sets = g.edge_vertex_sets()
            for v in range(1, g.n + 1):
                nb = set()
                for e in sets:
                    if v in e:
                        nb.update(u for u in e if u != v)
                expected.append(len(nb))
            prof = degree_profile(g)
            assert prof.per_vertex == tuple(expected), g
            assert prof.average == Fraction(sum(expected), g.n)
        assert degree_profile(FIG1).per_vertex == (3, 2, 4, 1, 2, 2)
        assert degree_profile(graphs[1]).per_vertex == (61,) * 62

    def test_three_complete_all_max(self):
        for n in (4, 6):
            prof = degree_profile(c_complete(n, 3))
            assert prof.per_vertex == (n - 1,) * n
            assert prof.average == n - 1

    def test_one_edge_makes_no_neighbours(self):
        prof = degree_profile(build(2, [(1,)]))
        assert prof.per_vertex == (0, 0)


class TestInducedFull:
    def test_fig1_example_contains_pair_12(self):
        # x = (1,0,1,0,1,0), z = (1,0,0,1,0,0)
        p = PauliIndex(0b010101, 0b001001)
        g = induced_full(FIG1, p)
        assert 0b000011 in g.edges  # the 2-edge {1,2} from {1,2,3} with x3 = 1

    def test_zero_index_induces_empty_graph(self):
        # at x = z = 0 no gate of the stabilizer expansion survives, even
        # for graphs with original 1-edges (required by route equality at
        # the identity Pauli)
        p = PauliIndex(0, 0)
        assert induced_full(FIG1, p).edges == ()
        assert induced_full(build(2, [(1,)]), p).edges == ()

    def test_single_edge_x110(self):
        g = build(3, [(1, 2, 3)])
        ind = induced_full(g, PauliIndex(0b011, 0))
        # pairs {2,3} and {1,3} each get one odd contribution; 1-edge {3}
        # from x1 x2 = 1
        assert set(ind.edges) == {0b110, 0b101, 0b100}

    def test_agrees_with_star_on_large_edges(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            g = random_graph(n, rng)
            x = int(rng.integers(0, 1 << n))
            z = int(rng.integers(0, 1 << n))
            full = induced_full(g, PauliIndex(x, z))
            star = induced_star(g, PauliIndex(x, z))
            big_full = {e for e in full.edges if e.bit_count() >= 2}
            big_star = {e for e in star.edges if e.bit_count() >= 2}
            assert big_full == big_star

    def test_determinism(self):
        p = PauliIndex(0b010101, 0b001001)
        assert induced_full(FIG1, p) == induced_full(FIG1, p)


class TestInducedStar:
    def test_one_edges_are_exactly_z(self, rng):
        z = 0b001001
        for x in (0, 0b010101, 0b111111):
            g = induced_star(FIG1, PauliIndex(x, z))
            ones = {e for e in g.edges if e.bit_count() == 1}
            assert ones == {0b000001, 0b001000}

    def test_x_zero_gives_pure_z_graph(self):
        g = induced_star(FIG1, PauliIndex(0, 0b110010))
        assert all(e.bit_count() == 1 for e in g.edges)
        assert set(g.edges) == {0b000010, 0b010000, 0b100000}

    def test_three_complete_odd_x_two_cliques(self):
        # 3-complete, z=0, odd-weight x: pair layer is two complete graphs
        # on the x-support and its complement
        n = 8
        g3 = c_complete(n, 3)
        x = 0b00000111  # weight 3
        ind = induced_star(g3, PauliIndex(x, 0))
        inside = {e for e in ind.edges if e & x == e}
        outside = {e for e in ind.edges if e & ~x == e}
        support = [i for i in range(n) if (x >> i) & 1]
        rest = [i for i in range(n) if not (x >> i) & 1]
        expect_in = {(1 << a) | (1 << b) for a, b in combinations(support, 2)}
        expect_out = {(1 << a) | (1 << b) for a, b in combinations(rest, 2)}
        assert inside == expect_in
        assert outside == expect_out
        assert inside | outside == set(ind.edges)

    def test_three_complete_even_x_bipartite(self):
        # even-weight x flips the parity: only cross edges survive
        n = 6
        g3 = c_complete(n, 3)
        x = 0b010011  # weight 3? bits {0,1,4} -> weight 3; use an even one
        x = 0b000011  # weight 2
        ind = induced_star(g3, PauliIndex(x, 0))
        for e in ind.edges:
            assert (e & x).bit_count() == 1 and (e & ~x).bit_count() == 1

    def test_pair_coefficient_matches_membership(self, rng):
        # Boolean coefficient check for 3-uniform graphs: {j,k} present
        # iff the x-sum over matching third vertices is odd
        from conftest import random_uniform3

        for _ in range(20):
            n = int(rng.integers(3, 7))
            g = random_uniform3(n, rng)
            x = int(rng.integers(0, 1 << n))
            ind = induced_star(g, PauliIndex(x, 0))
            present = {e for e in ind.edges if e.bit_count() == 2}
            for j in range(n):
                for k in range(j + 1, n):
                    masks = cross_masks(g)
                    m = masks.get((j, k), 0)
                    odd = bin(x & m).count("1") % 2
                    assert (((1 << j) | (1 << k)) in present) == bool(odd)


class TestTextFormat:
    def test_round_trip(self):
        text = to_text(FIG1)
        assert from_text(text) == FIG1
        assert text.splitlines()[0] == "6"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_text("3\n1 2 4\n")

    def test_rejects_duplicate_lines(self):
        with pytest.raises(ValueError):
            from_text("3\n1 2\n1 2\n")

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError):
            from_text("3\n1 1 2\n")

    def test_rejects_garbage_header(self):
        with pytest.raises(ValueError):
            from_text("graph\n1 2\n")
