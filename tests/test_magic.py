"""Moments, entropies, degree bound, robustness bound."""

import math
from fractions import Fraction

import pytest

from hypermagic.hypergraph import build, c_complete, empty
from hypermagic.magic import (
    degree_bound,
    pl_moment,
    robustness_lower_bound,
    sre,
    trivial_bound,
)
from hypermagic.phasestate import from_hypergraph
from hypermagic.spectrum import full_spectrum, rank_moment, star_trace_sum

from conftest import random_graph, random_uniform3

CCZ = build(3, [(1, 2, 3)])


def spec_of(g):
    return full_spectrum(from_hypergraph(g))


def star_moment(g, alpha):
    """The moment from the star-graph trace sum over 2^(n (1 + 2 alpha)), 2 alpha an integer."""
    alpha = Fraction(alpha)
    return Fraction(star_trace_sum(g, alpha), 2 ** int(g.n * (1 + 2 * alpha)))


class TestPlMoment:
    def test_stabilizer_states_give_one(self):
        tri = build(3, [(1, 2), (2, 3), (1, 3)])
        for alpha in (Fraction(1, 2), 2, 3, 4):
            assert pl_moment(spec_of(tri), alpha) == 1
            assert pl_moment(spec_of(empty(4)), alpha) == 1

    def test_ccz_alpha2(self):
        assert pl_moment(spec_of(CCZ), 2) == Fraction(11, 32)

    def test_ccz_alpha_half(self):
        # oracle: the closed n-complete formula at n=3 gives 3 - 10/8 + 8/64
        expected = 3 - Fraction(10, 8) + Fraction(8, 64)
        assert expected == Fraction(15, 8)
        assert pl_moment(spec_of(CCZ), Fraction(1, 2)) == expected

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            pl_moment(spec_of(CCZ), 0)


class TestSre:
    def test_plus_states_zero_for_all_alpha(self):
        s = spec_of(empty(5))
        for alpha in (Fraction(1, 2), 2, 3):
            assert sre(s, alpha).sre == 0.0

    def test_ccz_alpha2(self):
        report = sre(spec_of(CCZ), 2)
        assert math.isclose(report.sre, math.log2(32 / 11), rel_tol=1e-13)

    def test_ccz_alpha_half(self):
        report = sre(spec_of(CCZ), Fraction(1, 2))
        assert math.isclose(report.sre, 2 * math.log2(15 / 8), rel_tol=1e-13)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            sre(spec_of(CCZ), 1)

    def test_monotone_in_alpha_and_in_range(self, rng):
        grid = [Fraction(1, 2), 2, 3, 4]
        for _ in range(10):
            n = int(rng.integers(2, 7))
            g = random_graph(n, rng)
            s = spec_of(g)
            values = [sre(s, a).sre for a in grid]
            for hi, lo in zip(values, values[1:]):
                assert hi >= lo - 1e-10
            for v in values:
                assert -1e-12 <= v <= n + 1e-12


class TestSreStar:
    def test_agrees_with_direct_route(self, rng):
        for _ in range(12):
            n = int(rng.integers(2, 7))
            g = random_graph(n, rng, max_edges=4)
            s = spec_of(g)
            for alpha in (Fraction(1, 2), 2, 3):
                a = sre(s, alpha)
                b = star_moment(g, alpha)
                assert a.pl_moment == b
                star_sre = math.log2(b) / (1 - float(alpha))
                assert abs(a.sre - star_sre) <= 1e-12 * max(1.0, abs(a.sre))

    def test_empty_graph_zero(self):
        assert star_moment(empty(4), 2) == 1

    def test_ccz(self):
        assert star_moment(CCZ, 2) == Fraction(11, 32)

    def test_rank_route_matches(self, rng):
        for _ in range(6):
            g = random_uniform3(int(rng.integers(3, 7)), rng)
            assert rank_moment(g, 2) == star_moment(g, 2)

    def test_exhaustive_small_graphs(self):
        # every hypergraph on 3 vertices with at most 4 edges
        from itertools import combinations

        from hypermagic.hypergraph import from_masks

        all_masks = list(range(1, 8))
        for k in range(5):
            for combo in combinations(all_masks, k):
                g = from_masks(3, combo)
                s = spec_of(g)
                for alpha in (Fraction(1, 2), 2):
                    assert star_moment(g, alpha) == pl_moment(s, alpha)


class TestDegreeBound:
    def test_ccz_value(self):
        bound = degree_bound(CCZ, 2)
        assert math.isclose(bound, 3 * (1 - math.log2(1 + 2.0**-6)), rel_tol=1e-13)
        assert math.isclose(bound, 2.9328965609, rel_tol=1e-9)
        assert sre(spec_of(CCZ), 2).sre <= bound

    def test_zero_degree_zero_bound(self):
        assert degree_bound(empty(5), 2) == 0.0

    def test_rejects_alpha_below_two(self):
        with pytest.raises(ValueError):
            degree_bound(CCZ, Fraction(3, 2))

    def test_holds_on_random_3uniform(self, rng):
        from hypermagic.spectrum import rank_moment
        from hypermagic.magic import log2_of

        for _ in range(100):
            n = int(rng.integers(4, 9))
            g = random_uniform3(n, rng)
            for alpha in (2, 3):
                m = rank_moment(g, alpha)
                val = log2_of(m) / (1 - alpha)
                assert val <= degree_bound(g, alpha) + 1e-10
                assert val <= trivial_bound(n, alpha) + 1e-10


class TestRobustness:
    def test_stabilizer_zero(self):
        assert robustness_lower_bound(spec_of(empty(4))) == 0.0

    def test_ccz(self):
        assert math.isclose(robustness_lower_bound(spec_of(CCZ)), math.log2(15 / 8), rel_tol=1e-12)

    def test_three_complete_n8_from_closed_form(self):
        # cross-check against the closed 1/2-moment at n=8
        from hypermagic.symmetric import closed_3complete
        from hypermagic.magic import log2_of

        g = c_complete(8, 3)
        got = robustness_lower_bound(spec_of(g))
        expected = log2_of(closed_3complete(8, Fraction(1, 2)))
        assert math.isclose(got, expected, rel_tol=1e-12)
