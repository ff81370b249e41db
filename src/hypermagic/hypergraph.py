"""Hypergraphs as bitmask edge sets, degree statistics, and induced graphs.

The induced hypergraphs are the engine behind every Pauli-component
formula in this package: the squared component of the Pauli indexed by
(x, z) on a hypergraph state equals (2^-n Tr U)^2 of the phase unitary of
the graph induced from the original one by (x, z).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import IO, Iterable

from .bitops import (
    iter_subsets,
    mask_from_vertices,
    vertices_from_mask,
)

MAX_VERTICES = 63  # edge masks are machine-word sized on simulation paths


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph: vertex count plus canonical (sorted) edge masks."""

    n: int
    edges: tuple[int, ...]

    def edge_vertex_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(vertices_from_mask(e) for e in self.edges)

    def max_edge_size(self) -> int:
        return max((e.bit_count() for e in self.edges), default=0)

    def __repr__(self) -> str:  # compact, 1-based
        sets = ",".join("{" + ",".join(map(str, vs)) + "}" for vs in self.edge_vertex_sets())
        return f"Hypergraph(n={self.n}, edges=[{sets}])"


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex neighbour counts and their exact average."""

    per_vertex: tuple[int, ...]
    average: Fraction


@dataclass(frozen=True)
class PauliIndex:
    """(x, z) bitmask pair labelling a Pauli string X^x Z^z (phase dropped)."""

    x: int
    z: int

    def check(self, n: int) -> None:
        if self.x < 0 or self.x >> n:
            raise ValueError(f"x mask {self.x:#x} does not fit in {n} bits")
        if self.z < 0 or self.z >> n:
            raise ValueError(f"z mask {self.z:#x} does not fit in {n} bits")


def _canonical(n: int, masks: Iterable[int]) -> tuple[int, ...]:
    seen = set()
    for m in masks:
        if m == 0:
            raise ValueError("empty hyperedge is not allowed")
        if m < 0 or m >> n:
            raise ValueError(f"edge mask {m:#x} has vertices outside 1..{n}")
        seen.add(m)
    return tuple(sorted(seen))


def from_masks(n: int, masks: Iterable[int]) -> Hypergraph:
    """Build from ready-made bitmasks (bit j-1 = vertex j)."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > MAX_VERTICES:
        raise ValueError(f"n={n} exceeds the {MAX_VERTICES}-bit mask representation")
    return Hypergraph(n, _canonical(n, masks))


def build(n: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Build from 1-based vertex index collections, deduplicating edges."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return from_masks(n, (mask_from_vertices(e, n) for e in edges))


@lru_cache(maxsize=16)
def _c_edges(n: int, c: int) -> tuple[int, ...]:
    """The C(n, c) edge masks of cardinality c in increasing order, built once per (n, c)."""
    if not 1 <= c <= n:
        raise ValueError(f"edge size c={c} must satisfy 1 <= c <= n={n}")
    return tuple(sorted(sum(1 << b for b in combo) for combo in combinations(range(n), c)))


def c_complete(n: int, c: int) -> Hypergraph:
    """All C(n, c) hyperedges of cardinality c."""
    return from_masks(n, _c_edges(n, c))


def empty(n: int) -> Hypergraph:
    return from_masks(n, [])


def degree_profile(g: Hypergraph) -> DegreeProfile:
    """Neighbour-set cardinalities; 1-edges contribute no neighbours."""
    reach = [0] * g.n  # union of the edges through each vertex: |edges| * c steps
    for e in g.edges:
        rest = e
        while rest:
            low = rest & -rest
            reach[low.bit_length() - 1] |= e
            rest ^= low
    per = [(r & ~(1 << j)).bit_count() for j, r in enumerate(reach)]
    return DegreeProfile(tuple(per), Fraction(sum(per), g.n))


def _edges_at_least_two(g: Hypergraph, x: int) -> list[int]:
    """Edge set of size >= 2 of the induced graph for index mask x.

    A candidate e2 (proper subset of some original edge, |e2| >= 2) is
    present iff the number of original edges e with e strictly containing
    e2 and all of e \\ e2 inside the support of x is odd.  Parities are
    accumulated per candidate mask; candidates outside every original edge
    can never fire.
    """
    acc: dict[int, int] = {}
    for e in g.edges:
        # e2 = e \ q with q nonempty, q subset of supp(x) and q != e; so e2
        # keeps every bit of e outside x and is a proper subset of e.
        free = e & x
        for q in iter_subsets(free):
            if q == 0 or q == e:
                continue
            e2 = e & ~q
            if e2.bit_count() < 2:
                continue
            acc[e2] = acc.get(e2, 0) ^ 1
    return [m for m, bitval in acc.items() if bitval]


def _one_edges_full(g: Hypergraph, x: int, z: int) -> list[int]:
    """1-edges of the fully induced graph: z_j plus edge-product parities."""
    out = []
    for j in range(g.n):
        bit = 1 << j
        t = (z >> j) & 1
        for e in g.edges:
            if e & bit and e != bit and (e & ~bit) & ~x == 0:
                t ^= 1
        if t:
            out.append(bit)
    return out


def induced_full(g: Hypergraph, p: PauliIndex) -> Hypergraph:
    """Induced hypergraph whose phase-unitary trace gives the (x, z) component."""
    p.check(g.n)
    masks = _one_edges_full(g, p.x, p.z) + _edges_at_least_two(g, p.x)
    return Hypergraph(g.n, _canonical(g.n, masks))


def induced_star(g: Hypergraph, p: PauliIndex) -> Hypergraph:
    """Induced graph with the simplified 1-edge layer: 1-edges exactly at z bits."""
    p.check(g.n)
    masks = [1 << j for j in range(g.n) if (p.z >> j) & 1]
    masks += _edges_at_least_two(g, p.x)
    return Hypergraph(g.n, _canonical(g.n, masks))


def cross_masks(g: Hypergraph) -> dict[tuple[int, int], int]:
    """For graphs with all edges of size <= 3: map (j, k) -> mask of third vertices.

    Entry (j, k), j < k 0-based, is the OR of the bits i such that
    {i, j, k} is a 3-edge; the 2-edge {j,k} of the induced graph is then
    present iff popcount(x & mask) is odd.
    """
    if g.max_edge_size() > 3:
        raise ValueError("cross_masks requires every edge to have at most 3 vertices")
    out: dict[tuple[int, int], int] = {}
    for e in g.edges:
        if e.bit_count() != 3:
            continue
        vs = [b - 1 for b in vertices_from_mask(e)]
        for a, b in combinations(range(3), 2):
            j, k = vs[a], vs[b]
            third = vs[3 - a - b]
            key = (j, k)
            out[key] = out.get(key, 0) ^ (1 << third)
    return {k: v for k, v in out.items() if v}


def to_text(g: Hypergraph) -> str:
    """Serialize: first line n, then one edge per line as 1-based indices."""
    lines = [str(g.n)]
    for vs in g.edge_vertex_sets():
        lines.append(" ".join(map(str, vs)))
    return "\n".join(lines) + "\n"


def from_text(stream: IO[str] | str) -> Hypergraph:
    """Parse the text format, rejecting duplicates and out-of-range indices."""
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream.read().splitlines()
    rows = [ln.strip() for ln in lines]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty hypergraph file")
    try:
        n = int(rows[0])
    except ValueError as exc:
        raise ValueError(f"first line must be the vertex count, got {rows[0]!r}") from exc
    if n < 1:
        raise ValueError("vertex count must be positive")
    masks = []
    for ln in rows[1:]:
        try:
            vs = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ValueError(f"bad edge line {ln!r}") from exc
        masks.append(mask_from_vertices(vs, n))
    if len(set(masks)) != len(masks):
        raise ValueError("duplicate edge lines in hypergraph file")
    return from_masks(n, masks)


__all__ = [
    "Hypergraph",
    "DegreeProfile",
    "PauliIndex",
    "MAX_VERTICES",
    "build",
    "from_masks",
    "c_complete",
    "empty",
    "degree_profile",
    "induced_full",
    "induced_star",
    "cross_masks",
    "to_text",
    "from_text",
]
