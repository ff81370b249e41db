"""Shared fixtures and independent oracles.

The oracles deliberately avoid the package's bit-table machinery: states
are built by naive per-basis-state loops or dense matrix algebra, so route
agreement is evidence rather than tautology.  Two oracles that only the
tests run live here too: `induced_star`, the induced graph with the
simplified 1-edge layer, and `odd_triples_bruteforce`, which counts the
sign-flipping triples of a composition vector by labels.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hypermagic.hypergraph import Hypergraph, _edges_at_least_two, from_masks
from hypermagic.verify import PauliIndex


def naive_f(g: Hypergraph, a: int) -> int:
    """Parity of the number of edges fully covered by basis string a."""
    return sum(1 for e in g.edges if a & e == e) % 2


def naive_component(g: Hypergraph, x: int, z: int) -> Fraction:
    """Signed component by direct summation, pure Python."""
    n = g.n
    total = 0
    for a in range(1 << n):
        s = naive_f(g, a) ^ naive_f(g, a ^ x) ^ (bin(a & z).count("1") % 2)
        total += 1 - 2 * s
    return Fraction(total, 1 << n)


def dense_state(g: Hypergraph) -> np.ndarray:
    """Statevector from sequential diagonal gate application."""
    n = g.n
    amps = np.ones(1 << n) / np.sqrt(2.0**n)
    idx = np.arange(1 << n)
    for e in g.edges:
        amps = amps * np.where((idx & e) == e, -1.0, 1.0)
    return amps

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)


def dense_pauli(n: int, x: int, z: int) -> np.ndarray:
    """Kronecker-built X^x Z^z (phase convention irrelevant after squaring)."""
    out = np.array([[1.0 + 0j]])
    for b in reversed(range(n)):
        op = _I
        if (x >> b) & 1 and (z >> b) & 1:
            op = _X @ _Z
        elif (x >> b) & 1:
            op = _X
        elif (z >> b) & 1:
            op = _Z
        out = np.kron(out, op)
    return out


def random_graph(n: int, rng: np.random.Generator, max_edges: int = 6) -> Hypergraph:
    count = min(int(rng.integers(0, max_edges + 1)), (1 << n) - 1)
    masks = set()
    while len(masks) < count:
        masks.add(int(rng.integers(1, 1 << n)))
    return from_masks(n, masks)


def random_uniform3(n: int, rng: np.random.Generator, p: float = 0.5) -> Hypergraph:
    masks = []
    for combo in combinations(range(n), 3):
        if rng.random() < p:
            masks.append((1 << combo[0]) | (1 << combo[1]) | (1 << combo[2]))
    return from_masks(n, masks)


def induced_star(g: Hypergraph, p: PauliIndex) -> Hypergraph:
    """Induced graph with the simplified 1-edge layer: 1-edges exactly at z bits."""
    p.check(g.n)
    masks = [1 << j for j in range(g.n) if (p.z >> j) & 1]
    masks += _edges_at_least_two(g, p.x)
    return from_masks(g.n, masks)


_PAIR_ODD = np.array(
    [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]], dtype=np.uint8
)


def odd_triples_bruteforce(kappa: tuple[int, ...]) -> int:
    """Independent validator of composition_f: count odd triples by labels."""
    labels: list[tuple[int, int]] = []  # (class, x)
    for idx, count in enumerate(kappa):
        cls, xbit = idx // 2, 1 - idx % 2  # even slots are the + (x=1) parts
        labels.extend([(cls, xbit)] * count)
    total = 0
    for u, v, w in combinations(range(len(labels)), 3):
        cu, xu = labels[u]
        cv, xv = labels[v]
        cw, xw = labels[w]
        odd = (
            xu * int(_PAIR_ODD[cv, cw])
            + xv * int(_PAIR_ODD[cu, cw])
            + xw * int(_PAIR_ODD[cu, cv])
        ) % 2
        total += odd
    return total


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
