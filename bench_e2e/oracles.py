"""Independent computations the benchmark checks the program's outputs by.

None of these call the planner or the engine: joins are nested loops,
graph patterns come from networkx, matrix products from numpy, and the
Hamming-distance-1 pairs are enumerated bit by bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import networkx as nx
import numpy as np


def chain_join(relations: Sequence) -> List[Tuple[int, ...]]:
    """Nested-loop join of a chain ``R1(A0,A1) ⋈ ... ⋈ Rk(A_{k-1},A_k)``.

    Rows come out as ``(A0, A1, ..., Ak)``, sorted.
    """
    rows: List[Tuple[int, ...]] = [tuple(row) for row in relations[0].tuples]
    for relation in relations[1:]:
        rows = [
            row + (right,)
            for row in rows
            for left, right in relation.tuples
            if left == row[-1]
        ]
    return sorted(rows)


def triangles(edges: Sequence[Tuple[int, int]]) -> Set[Tuple[int, int, int]]:
    """Every triangle as a sorted node triple."""
    graph = nx.Graph(edges)
    return {
        tuple(sorted(clique))
        for clique in nx.enumerate_all_cliques(graph)
        if len(clique) == 3
    }


def two_paths(edges: Sequence[Tuple[int, int]]) -> Set[Tuple[int, int, int]]:
    """Every path ``v - u - w`` of two edges as ``(v, u, w)`` with ``v < w``."""
    graph = nx.Graph(edges)
    paths = set()
    for middle in graph.nodes:
        ends = sorted(graph.neighbors(middle))
        for i, v in enumerate(ends):
            for w in ends[i + 1 :]:
                paths.add((v, middle, w))
    return paths


def hamming_one_pairs(b: int) -> Set[Tuple[int, int]]:
    """Every pair of ``b``-bit strings at Hamming distance 1, smaller first."""
    return {
        (word, word | (1 << bit))
        for word in range(1 << b)
        for bit in range(b)
        if not word & (1 << bit)
    }


def matmul(left: List[List[int]], right: List[List[int]]) -> np.ndarray:
    return np.array(left, dtype=float) @ np.array(right, dtype=float)


def records_matrix(records: Sequence[Tuple[int, int, float]], n: int) -> np.ndarray:
    """Dense matrix from ``(row, col, value)`` output records, summing repeats."""
    result = np.zeros((n, n))
    for i, k, value in records:
        result[i, k] += value
    return result


def group_sums(records: Sequence[Tuple[int, int]]) -> Dict[int, int]:
    sums: Dict[int, int] = {}
    for key, value in records:
        sums[key] = sums.get(key, 0) + value
    return sums
