"""Permutation-symmetric hypergraph states: reduced spectra and closed forms.

For a state invariant under every vertex permutation, a Pauli component
depends only on how many X positions it has (m), and how many Z flags sit
inside (m1) and outside (m0) the X support.  One representative per
(m, m1, m0) class with its multinomial multiplicity replaces the 4^n sweep.

Such a state is a union of complete layers L, so the phase of a basis state
depends only on its weight w: s(w) = (-1)^{sum_{c in L} C(w, c)}.  Split a
basis state at the X support into i ones inside and o ones outside.  The Z
character sums over the two parts are Krawtchouk polynomials (MacWilliams
and Sloane, The Theory of Error-Correcting Codes, 1977), K_i(t; m), the
coefficient of z^i in (1 - z)^t (1 + z)^{m-t}, so

    W(m, m1, m0) = sum_{i,o} K_i(m1; m) K_o(m0; n-m) s(i + o) s(m - i + o).

`reduced_traces` returns, per X weight m, the int64 grid K_m^T A K_{n-m},
with A[i, o] = s(i + o) s(m - i + o), row m1 and column m0: O(n^4) in all,
and no 2^n phase table, so no simulation budget applies.
`reduced_magnitudes` sums each grid's multiplicities C(m, m1) C(n-m, m0)
per |W| with one `np.unique` and one `np.add.at`, and scales them by
C(n, m) as Python ints, into the sparse counts that
`moment_from_magnitudes` takes: about 9 ms for `3complete:62` on a 2-core
Xeon VM.  `ensembles.state_counts` takes this route for every union of
complete layers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from . import budget as _budget
from .hypergraph import Hypergraph

# sum_i |K_i(t; m)| = 2^m, so no partial sum of K_m^T A K_{n-m} exceeds 2^n
# in size: the int64 products are exact up to n = 62
MAX_REDUCED_N = 62
_BINOMIAL = np.array([[comb(r, j) for j in range(MAX_REDUCED_N + 1)]
                      for r in range(MAX_REDUCED_N + 1)], dtype=np.int64)
_ALTERNATING = _BINOMIAL * (1 - 2 * (np.arange(MAX_REDUCED_N + 1) & 1))


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


@lru_cache(maxsize=None)
def _krawtchouk(m: int) -> np.ndarray:
    """Read-only int64 K[i, t] = K_i(t; m), the coefficient of z^i in (1 - z)^t (1 + z)^{m-t}."""
    k = np.empty((m + 1, m + 1), dtype=np.int64)
    for t in range(m + 1):
        k[:, t] = np.convolve(_ALTERNATING[t, :t + 1], _BINOMIAL[m - t, :m - t + 1])
    k.setflags(write=False)
    return k


def reduced_traces(g: Hypergraph, layers: tuple[int, ...] | None = None) -> list[np.ndarray]:
    """Signed W(m, m1, m0) as n + 1 int64 grids K_m^T A K_{n-m}, row m1 and column m0.

    W is 2^n times the Pauli component, up to the dropped global sign.
    `layers` are g's `complete_layer_sizes`, found here unless the caller
    has them.  Raises ValueError unless g is a union of complete layers,
    and BudgetError beyond n = 62, before any product.
    """
    if layers is None:
        layers = complete_layer_sizes(g)
    n = g.n
    if n > MAX_REDUCED_N:
        raise _budget.BudgetError(
            f"Krawtchouk spectrum at n={n} refused: its int64 sums are exact only up to "
            f"n={MAX_REDUCED_N}"
        )
    w = np.arange(n + 1)
    odd = np.zeros(n + 1, dtype=np.int64)
    for c in layers:
        odd ^= (w & c) == c  # Lucas: C(w, c) is odd iff the bits of c lie in w
    s = 1 - 2 * odd
    grids = []
    for m in range(n + 1):
        i = np.arange(m + 1)[:, None]
        o = np.arange(n - m + 1)
        grids.append(_krawtchouk(m).T @ (s[i + o] * s[m - i + o]) @ _krawtchouk(n - m))
    return grids


def reduced_magnitudes(g: Hypergraph, layers: tuple[int, ...] | None = None) -> dict[int, int]:
    """Sparse |W| counts of a union of complete layers, as `sparse_counts` gives them.

    Class multiplicities C(n, m) C(m, m1) C(n-m, m0) are summed per nonzero
    |W|; the counts satisfy Parseval's identity, sum_m counts[m] m^2 = 2^{3n}.
    `layers` as in `reduced_traces`.
    """
    n = g.n
    counts: dict[int, int] = {}
    for m, grid in enumerate(reduced_traces(g, layers)):
        # int64 is exact: each entry C(m, m1) C(n-m, m0) <= C(n, m1 + m0), and
        # the grid sums to 2^n <= 2^62 < 2^63; C(n, m) is applied as a Python int
        multiplicity = _BINOMIAL[m, :m + 1, None] * _BINOMIAL[n - m, None, :n - m + 1]
        values, where = np.unique(np.abs(grid), return_inverse=True)
        sums = np.zeros(values.size, dtype=np.int64)
        np.add.at(sums, where.ravel(), multiplicity.ravel())
        for value, total in zip(values.tolist(), sums.tolist()):
            if value:
                counts[value] = counts.get(value, 0) + comb(n, m) * total
    if sum(c * m * m for m, c in counts.items()) != 2 ** (3 * n):
        raise AssertionError("Krawtchouk magnitudes violate Parseval's identity")
    return counts


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
