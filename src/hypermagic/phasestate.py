"""Hypergraph states as dense +-1 phase tables over the computational basis.

A hypergraph state has amplitudes (-1)^{f(a)} / 2^{n/2} where f(a) is the
parity of the number of edges fully covered by the basis string a.  The
whole state is therefore one 2^n-bit integer, and gates are XORs of tables.
The generalized stabilizers, which act by table XOR plus an index
relabeling, and the trace of a phase unitary are checks, not routes: they
live in `hypermagic.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import budget as _budget
from .bitops import superset_table, table_to_bits
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
