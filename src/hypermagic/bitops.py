"""Bit-level primitives shared across the package.

Vertices are 1-based at the API surface; internally vertex j occupies bit
j-1 of an integer mask.  Basis states of n qubits are indexed by integers
a in [0, 2^n) with bit b holding the value of qubit b+1.  Several routines
manipulate 2^n-bit Python integers as dense Boolean tables over the basis
(bit a of the table = value of the function at basis state a).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Iterable, List

import numpy as np


def mask_from_vertices(vertices: Iterable[int], n: int) -> int:
    """Build an edge mask from 1-based vertex indices, validating range."""
    mask = 0
    for v in vertices:
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} out of range 1..{n}")
        bit = 1 << (v - 1)
        if mask & bit:
            raise ValueError(f"vertex {v} repeated within an edge")
        mask |= bit
    return mask


def vertices_from_mask(mask: int) -> tuple[int, ...]:
    """1-based vertex indices of a mask, ascending."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def iter_subsets(mask: int):
    """All subsets of a mask, including 0 and the mask itself."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


@lru_cache(maxsize=None)
def _bit_table(n: int, b: int) -> int:
    """2^n-bit integer whose bit a is set iff bit b of a is set."""
    block = ((1 << (1 << b)) - 1) << (1 << b)  # pattern over a in [0, 2^{b+1})
    width = 1 << (b + 1)
    while width < (1 << n):
        block |= block << width
        width <<= 1
    return block


@lru_cache(maxsize=1 << 14)
def superset_table(n: int, edge: int) -> int:
    """2^n-bit integer whose bit a is set iff a covers every bit of edge.

    Bit a equals the product prod_{i in edge} a_i, i.e. the phase flip
    pattern of the generalized controlled-Z gate on that edge.
    """
    if edge == 0:
        raise ValueError("empty edge has no indicator table")
    tables = [_bit_table(n, b) for b in range(n) if (edge >> b) & 1]
    return reduce(lambda u, v: u & v, tables)


def table_to_bits(table: int, n: int) -> np.ndarray:
    """Unpack a 2^n-bit table integer to a uint8 0/1 array of length 2^n."""
    size = 1 << n
    nbytes = max(1, (size + 7) // 8)
    raw = np.frombuffer(table.to_bytes(nbytes, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    return bits[:size]


def bits_to_table(bits: np.ndarray) -> int:
    """Pack a 0/1 array back into a table integer."""
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def fwht(values: np.ndarray) -> np.ndarray:
    """In-place fast Walsh-Hadamard transform, natural (XOR) ordering.

    Output[z] = sum_a values[a] * (-1)^{popcount(z & a)}.  Exact for int64
    inputs bounded by +-1 as long as n <= 62.
    """
    v = values
    size = v.size
    h = 1
    while h < size:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        right = v[:, h:].copy()
        v[:, :h] = left + right
        v[:, h:] = left - right
        h *= 2
    return v.reshape(size)


def gf2_rank_fast(rows: List[int]) -> int:
    """Rank over GF(2), elimination by leading bit; faster on small dense rows."""
    pivot_of: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            piv = pivot_of.get(lead)
            if piv is None:
                pivot_of[lead] = row
                rank += 1
                break
            row ^= piv
    return rank
