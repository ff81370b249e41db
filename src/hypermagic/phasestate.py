"""Hypergraph states as dense +-1 phase tables over the computational basis.

A hypergraph state has amplitudes (-1)^{f(a)} / 2^{n/2} where f(a) is the
parity of the number of edges fully covered by the basis string a.  The
whole state is therefore one 2^n-bit integer; gates are XORs of tables,
and the generalized stabilizers act by table XOR plus an index relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import budget as _budget
from .bitops import iter_subsets, superset_table, table_to_bits, _bit_table
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class PhaseState:
    """Sign table of a phase state: bit a of `signs` is f(a)."""

    n: int
    signs: int

    def sign_bits(self) -> np.ndarray:
        """Unpacked 0/1 array of length 2^n."""
        return table_to_bits(self.signs, self.n)

    def pm_table(self) -> np.ndarray:
        """(-1)^{f(a)} as an int64 array."""
        return 1 - 2 * self.sign_bits().astype(np.int64)

    def amplitudes(self) -> np.ndarray:
        """Dense normalized statevector, for small-n cross checks."""
        return self.pm_table() / np.sqrt(2.0**self.n)


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


def from_hypergraph(g: Hypergraph, budget: int | None = None) -> PhaseState:
    """Apply every edge gate to the all-plus state."""
    _budget.check(g.n, _budget.sim_budget(budget), "phase table")
    signs = 0
    for e in g.edges:
        signs ^= superset_table(g.n, e)
    return PhaseState(g.n, signs)


def apply_cz(state: PhaseState, edge: int) -> PhaseState:
    """Flip the sign of every basis state covering the edge; involutive."""
    if edge == 0:
        raise ValueError("empty edge")
    if edge >> state.n:
        raise ValueError(f"edge mask {edge:#x} outside {state.n} bits")
    return PhaseState(state.n, state.signs ^ superset_table(state.n, edge))


def trace_of_state(state: PhaseState) -> int:
    """Trace of the diagonal unitary with these signs: 2^n - 2 * popcount."""
    return (1 << state.n) - 2 * state.signs.bit_count()


def phase_trace(g: Hypergraph, budget: int | None = None) -> int:
    """Signed trace of the phase unitary of g, an integer in [-2^n, 2^n]."""
    return trace_of_state(from_hypergraph(g, budget))


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
