"""Permutation-symmetric hypergraph states: reduced spectra and closed forms.

For a state invariant under every vertex permutation, a Pauli component
depends only on how many X positions it has (m), and how many Z flags sit
inside (m1) and outside (m0) the X support.  One representative per
(m, m1, m0) class with its multinomial multiplicity replaces the 4^n sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import budget as _budget
from .bitops import _bit_table, superset_table
from .hypergraph import Hypergraph, _edges_at_least_two, _one_edges_full
from .magic import METHOD_CLOSED, MagicReport, sre_from_moment
from .spectrum import moment_from_magnitudes

MAX_REDUCED_N = 40


@dataclass(frozen=True)
class SymmetryClass:
    m: int
    m1: int
    m0: int
    multiplicity: int


def symmetry_classes(n: int) -> list[SymmetryClass]:
    out = []
    for m in range(n + 1):
        for m1 in range(m + 1):
            for m0 in range(n - m + 1):
                mult = comb(n, m) * comb(m, m1) * comb(n - m, m0)
                out.append(SymmetryClass(m, m1, m0, mult))
    return out


def complete_layer_sizes(g: Hypergraph) -> tuple[int, ...]:
    """Edge sizes of g if it is a union of complete uniform layers.

    Raises ValueError otherwise; this is the structural permutation
    invariance check (no n! permutation sweep).
    """
    by_size: dict[int, int] = {}
    for e in g.edges:
        c = e.bit_count()
        by_size[c] = by_size.get(c, 0) + 1
    for c, count in by_size.items():
        if count != comb(g.n, c):
            raise ValueError(
                f"not permutation invariant: {count} edges of size {c}, "
                f"a complete layer needs {comb(g.n, c)}"
            )
    return tuple(sorted(by_size))


def reduced_traces(g: Hypergraph, budget: int | None = None) -> list[tuple[SymmetryClass, int]]:
    """Signed induced-graph trace per symmetry class at one representative."""
    complete_layer_sizes(g)
    if g.n > MAX_REDUCED_N:
        raise ValueError(f"reduced spectrum supports n <= {MAX_REDUCED_N}")
    _budget.check(g.n, _budget.sim_budget(budget), "reduced spectrum")
    n = g.n
    size_bits = 1 << n
    out: list[tuple[SymmetryClass, int]] = []
    for m in range(n + 1):
        x = (1 << m) - 1
        pair_table = 0
        for e2 in _edges_at_least_two(g, x):
            pair_table ^= superset_table(n, e2)
        delta = sum(_one_edges_full(g, x, 0))
        for m1 in range(m + 1):
            for m0 in range(n - m + 1):
                z = ((1 << m1) - 1) | (((1 << m0) - 1) << m)
                table = pair_table
                ones = z ^ delta
                for j in range(n):
                    if (ones >> j) & 1:
                        table ^= _bit_table(n, j)
                trace = size_bits - 2 * table.bit_count()
                mult = comb(n, m) * comb(m, m1) * comb(n - m, m0)
                out.append((SymmetryClass(m, m1, m0, mult), trace))
    return out


def reduced_spectrum(
    g: Hypergraph, budget: int | None = None
) -> list[tuple[SymmetryClass, Fraction]]:
    """Squared component per symmetry class, exact dyadic rationals."""
    denom = 4**g.n
    return [(cls, Fraction(t * t, denom)) for cls, t in reduced_traces(g, budget)]


def pl_moment_reduced(g: Hypergraph, alpha, budget: int | None = None):
    """Class-weighted PL-moment; must equal the full-spectrum moment."""
    counts: dict[int, int] = {}
    for cls, t in reduced_traces(g, budget):
        counts[abs(t)] = counts.get(abs(t), 0) + cls.multiplicity
    return moment_from_magnitudes(counts, g.n, alpha)


def _require_supported_alpha(alpha) -> Fraction:
    alpha = Fraction(alpha)
    if alpha not in (Fraction(2), Fraction(1, 2)):
        raise ValueError("closed forms are stated for alpha in {2, 1/2}")
    return alpha


def closed_3complete(n: int, alpha) -> Fraction:
    """Exact PL-moment of the 3-complete state for alpha in {2, 1/2}."""
    if n < 3:
        raise ValueError("the 3-complete family needs n >= 3")
    alpha = _require_supported_alpha(alpha)
    sign = (-1) ** n
    if alpha == 2:
        exponent = n + (3 - sign) // 2
        return Fraction(1, 8) + Fraction(7, 2**exponent)
    top = 2 * n - 7 - sign
    if top % 4 != 0:
        raise AssertionError("half-integer exponent should not occur per parity")
    lead = Fraction(2) ** (top // 4)
    tail = Fraction(2) ** (-n + (1 + sign) // 2)
    return lead + 1 - tail


def closed_ncomplete(n: int, alpha) -> Fraction:
    """Exact PL-moment of the n-complete (single full edge) state."""
    if n < 2:
        raise ValueError("the n-complete family needs n >= 2")
    alpha = _require_supported_alpha(alpha)
    h = Fraction(1, 2**n)
    if alpha == 2:
        return 1 - 16 * h + 112 * h**2 - 224 * h**3 + 128 * h**4
    return 3 - 10 * h + 8 * h**2


def closed_report(family: str, n: int, alpha) -> MagicReport:
    """MagicReport from a closed form; family is '3complete' or 'ncomplete'."""
    if family == "3complete":
        moment = closed_3complete(n, alpha)
    elif family == "ncomplete":
        moment = closed_ncomplete(n, alpha)
    else:
        raise ValueError(f"unknown symmetric family {family!r}")
    return sre_from_moment(moment, alpha, METHOD_CLOSED)
