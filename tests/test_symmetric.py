"""Krawtchouk grids and counts, closed forms for complete families."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hypermagic.budget import BudgetError
from hypermagic.hypergraph import build, c_complete, empty, from_masks
from hypermagic.magic import log2_of, pl_moment, sre_from_moment
from hypermagic.phasestate import from_hypergraph
from hypermagic.spectrum import (
    full_spectrum,
    moment_from_magnitudes,
    rank_moment,
    sparse_counts,
    walsh_blocks,
    walsh_magnitudes,
)
from hypermagic.symmetric import (
    MAX_REDUCED_N,
    closed_3complete,
    closed_ncomplete,
    complete_layer_sizes,
    reduced_magnitudes,
    reduced_traces,
)


def layered(n: int, sizes):
    """The union of the complete layers of the given edge sizes on n vertices."""
    return from_masks(n, [e for c in sizes for e in c_complete(n, c).edges])


def all_layer_sets(n: int):
    return [sizes for r in range(n + 1) for sizes in combinations(range(1, n + 1), r)]


def reduced_moment(g, alpha):
    return moment_from_magnitudes(reduced_magnitudes(g), g.n, alpha)


def closed_sre(family: str, n: int, alpha) -> float:
    closed = {"3complete": closed_3complete, "ncomplete": closed_ncomplete}[family]
    return sre_from_moment(closed(n, alpha), alpha, "closed-form").sre


def per_class_counts(g, layers=None):
    """|W| counts from the grids, one Python-int multiplicity per (m, m1, m0) class."""
    n = g.n
    counts = {}
    for m, grid in enumerate(reduced_traces(g, layers)):
        for (m1, m0), t in np.ndenumerate(grid):
            if t:
                mult = math.comb(n, m) * math.comb(m, m1) * math.comb(n - m, m0)
                counts[abs(int(t))] = counts.get(abs(int(t)), 0) + mult
    return counts


class TestSymmetryClasses:
    def test_structural_invariance_check(self):
        complete_layer_sizes(c_complete(5, 3))
        with pytest.raises(ValueError):
            complete_layer_sizes(build(4, [(1, 2, 3)]))


class TestReducedSpectrum:
    def test_identity_class_component_one(self):
        assert abs(reduced_traces(c_complete(4, 3))[0][0, 0]) == 2**4

    def test_ncomplete_m0_classes_vanish(self):
        assert not reduced_traces(c_complete(5, 5))[0][0, 1:].any()

    def test_class_weighted_moment_equals_full(self):
        g = c_complete(6, 3)
        full = full_spectrum(from_hypergraph(g))
        for alpha in (2, Fraction(1, 2)):
            assert reduced_moment(g, alpha) == pl_moment(full, alpha)

    def test_components_constant_within_class(self):
        # spot-check the symmetry observation itself: permuting positions
        # with fixed (m, m1, m0) does not change the component
        from hypermagic.verify import PauliIndex, component_induced

        g = c_complete(5, 3)
        # a scattered representative of class m=2, m1=1, m0=1:
        # x bits {1,4}; z with one bit inside x {4} and one outside {2}
        x = 0b10010
        z = (1 << 4) | (1 << 2)
        got = component_induced(g, PauliIndex(x, z))
        assert got == Fraction(int(reduced_traces(g)[2][1, 1]) ** 2, 4**5)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            reduced_traces(build(4, [(1, 2), (2, 3)]))


class TestKrawtchoukRoute:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_counts_equal_walsh_kernel(self, n):
        # every layer set up to n = 8; beyond, the 3-complete, n-complete and {2, 3} states
        for sizes in all_layer_sets(n) if n <= 8 else [(3,), (n,), (2, 3)]:
            g = layered(n, sizes)
            want = sparse_counts(walsh_magnitudes(from_hypergraph(g)))
            assert reduced_magnitudes(g) == want, sizes
            for alpha in (2, Fraction(1, 2), 3):
                moment = reduced_moment(g, alpha)
                assert isinstance(moment, Fraction)
                assert moment == moment_from_magnitudes(want, n, alpha), (sizes, alpha)

    @pytest.mark.parametrize("family", ["3complete", "ncomplete"])
    def test_moments_equal_closed_forms_to_n62(self, family):
        closed = {"3complete": closed_3complete, "ncomplete": closed_ncomplete}[family]
        for n in range(3, MAX_REDUCED_N + 1):
            g = c_complete(n, 3 if family == "3complete" else n)
            for alpha in (2, Fraction(1, 2)):
                assert reduced_moment(g, alpha) == closed(n, alpha), (n, alpha)

    def test_traces_are_signed_walsh_values(self):
        g = layered(5, (2, 3))
        w = np.vstack([block for _, block in walsh_blocks(from_hypergraph(g))])
        grids = reduced_traces(g)
        assert [grid.shape for grid in grids] == [(m + 1, 6 - m) for m in range(6)]
        for m, grid in enumerate(grids):
            for (m1, m0), t in np.ndenumerate(grid):
                # the class representative: X on the first m qubits, Z on m1 of them and m0 others
                x = (1 << m) - 1
                z = ((1 << m1) - 1) | (((1 << m0) - 1) << m)
                assert t == int(w[x, z]), (m, m1, m0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_equal_per_class_reference(self, n):
        for sizes in all_layer_sets(n):
            g = layered(n, sizes)
            assert reduced_magnitudes(g) == per_class_counts(g), sizes

    @pytest.mark.parametrize("sizes", [(2,), (3,), (MAX_REDUCED_N,), (2, 3), (1, 31)])
    def test_counts_equal_per_class_reference_at_n62(self, sizes):
        # the layers are passed, so no graph is built: a 31-layer has C(62, 31) edges
        g = empty(MAX_REDUCED_N)
        assert reduced_magnitudes(g, sizes) == per_class_counts(g, sizes)

    def test_beyond_int64_range_is_a_budget_error(self):
        with pytest.raises(BudgetError, match="exact only up to n=62"):
            reduced_traces(c_complete(MAX_REDUCED_N + 1, MAX_REDUCED_N + 1))


class TestClosedForms:
    def test_cross_formula_agreement_n3(self):
        for alpha in (2, Fraction(1, 2)):
            assert closed_3complete(3, alpha) == closed_ncomplete(3, alpha)

    def test_ccz_goldens(self):
        assert closed_ncomplete(3, 2) == Fraction(11, 32)
        assert closed_ncomplete(3, Fraction(1, 2)) == Fraction(15, 8)

    def test_n2_cz_is_clifford(self):
        assert closed_ncomplete(2, 2) == 1
        assert closed_ncomplete(2, Fraction(1, 2)) == 1
        assert closed_sre("ncomplete", 2, 2) == 0.0

    @pytest.mark.parametrize("n", range(3, 11))
    def test_3complete_matches_bruteforce(self, n):
        g = c_complete(n, 3)
        assert rank_moment(g, 2) == closed_3complete(n, 2)
        assert rank_moment(g, Fraction(1, 2)) == closed_3complete(n, Fraction(1, 2))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ncomplete_matches_bruteforce(self, n):
        spec = full_spectrum(from_hypergraph(c_complete(n, n)))
        assert pl_moment(spec, 2) == closed_ncomplete(n, 2)
        assert pl_moment(spec, Fraction(1, 2)) == closed_ncomplete(n, Fraction(1, 2))

    def test_3complete_closed_form_at_n17(self):
        # past the full-spectrum range: 131072 rank classes vs the formula
        g = c_complete(17, 3)
        assert rank_moment(g, 2) == closed_3complete(17, 2)
        assert rank_moment(g, Fraction(1, 2)) == closed_3complete(17, Fraction(1, 2))

    def test_3complete_m2_limit(self):
        # entropy tends to 3 from below as the moment tends to 1/8
        val = closed_sre("3complete", 40, 2)
        assert math.isclose(val, 3.0, abs_tol=1e-8)

    def test_ncomplete_half_limit(self):
        # M_{1/2} increases monotonically to 2 log2 3
        prev = -1.0
        for n in range(2, 31):
            cur = closed_sre("ncomplete", n, Fraction(1, 2))
            assert cur >= prev - 1e-12
            prev = cur
        assert abs(prev - 2 * math.log2(3)) < 1e-6

    def test_ncomplete_m2_decreasing_beyond_4(self):
        values = [closed_sre("ncomplete", n, 2) for n in range(4, 31)]
        for hi, lo in zip(values, values[1:]):
            assert lo < hi

    def test_sharp_gap(self):
        # for the 3-complete family the two entropy orders separate linearly
        for n in range(6, 31):
            m_half = closed_3complete(n, Fraction(1, 2))
            m_two = closed_3complete(n, 2)
            gap = 2 * log2_of(m_half) - (-log2_of(m_two))
            assert gap >= n - 8

    def test_rejects_unsupported_alpha(self):
        with pytest.raises(ValueError):
            closed_3complete(5, 3)
        with pytest.raises(ValueError):
            closed_ncomplete(5, Fraction(1, 3))

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            closed_3complete(2, 2)
        with pytest.raises(ValueError):
            closed_ncomplete(1, 2)
