"""Seeded input generators owned by the benchmark.

Every workload input is drawn here from a :class:`random.Random` seeded on
the command line, never from ``repro.datagen``: a change to the program's
own generators must not change what the benchmark measures.  Relations are
returned as the program's :class:`~repro.datagen.relations.RelationInstance`
container (name, attributes, tuples) because that is the shape its public
entry points take; only the container is borrowed, not the generation.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import List, Sequence, Tuple

from repro.datagen.relations import RelationInstance

Edge = Tuple[int, int]


def exact_counts(total: int, domain: int, skew: float) -> List[int]:
    """How often each of ``domain`` values occurs among ``total`` draws when
    the frequencies follow Zipf(``skew``) exactly (``skew`` 0: uniform).

    Value ``i`` gets ``total / (i + 1) ** skew`` normalised, rounded by
    largest remainder so the counts sum to ``total``.
    """
    weights = [1.0 / (value + 1) ** skew for value in range(domain)]
    scale = total / sum(weights)
    shares = [weight * scale for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(domain), key=lambda value: counts[value] - shares[value])
    for value in by_remainder[: total - sum(counts)]:
        counts[value] += 1
    return counts


def _distinct_pairing(rng: random.Random, left: List[int], right: List[int]) -> List[Tuple[int, int]]:
    """Pair two columns at random so that no tuple repeats."""
    rng.shuffle(right)
    rows = list(zip(left, right))
    for _ in range(100 * len(rows)):
        seen = Counter(rows)
        repeated = [index for index, row in enumerate(rows) if seen[row] > 1]
        if not repeated:
            return rows
        i, j = repeated[0], rng.randrange(len(rows))
        rows[i], rows[j] = (rows[i][0], rows[j][1]), (rows[j][0], rows[i][1])
    raise ValueError("no pairing without repeated tuples")


def chain_relations(
    rng: random.Random,
    num_relations: int,
    size: int,
    domain: int,
    skew: float,
) -> List[RelationInstance]:
    """A chain ``R1(A0,A1) ⋈ R2(A1,A2) ⋈ ...`` with a Zipf-skewed ``A1``.

    Every column's value frequencies are exact: ``A1`` follows
    Zipf(``skew``) in ``R1`` and ``R2``, every other attribute is uniform.
    The seed decides which values carry which frequency (one relabelling
    per attribute, shared by the relations that hold it, so the heavy
    ``A1`` value is the same on both sides of the join) and how each
    relation's two columns pair up; tuples are distinct.  Fixing the
    frequencies keeps the work per query steady across seeds while the
    instances still differ.
    """
    labels = [rng.sample(range(domain), domain) for _ in range(num_relations + 1)]
    columns = [
        [
            labels[attribute][value]
            for value, count in enumerate(
                exact_counts(size, domain, skew if attribute == 1 else 0.0)
            )
            for _ in range(count)
        ]
        for attribute in range(num_relations + 1)
    ]
    return [
        RelationInstance(
            name=f"R{index + 1}",
            attributes=(f"A{index}", f"A{index + 1}"),
            tuples=tuple(
                sorted(_distinct_pairing(rng, list(columns[index]), list(columns[index + 1])))
            ),
        )
        for index in range(num_relations)
    ]


def join_records(relations: Sequence[RelationInstance]) -> List[Tuple[str, Tuple[int, ...]]]:
    """Tagged ``(relation name, tuple)`` records, the join jobs' input."""
    return [(relation.name, row) for relation in relations for row in relation.tuples]


def random_graph(rng: random.Random, n: int, m: int) -> List[Edge]:
    """``m`` distinct undirected edges ``(u, v)``, ``u < v``, over ``n`` nodes."""
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def integer_matrix(rng: random.Random, n: int, low: int = 1, high: int = 5) -> List[List[int]]:
    """An ``n × n`` matrix of integers drawn uniformly from ``[low, high]``."""
    return [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]


def matmul_records(left: List[List[int]], right: List[List[int]]) -> List[Tuple[str, int, int, float]]:
    """Element records ``(matrix, row, col, value)`` of ``left @ right``."""
    return [
        (name, i, j, float(value))
        for name, matrix in (("R", left), ("S", right))
        for i, row in enumerate(matrix)
        for j, value in enumerate(row)
    ]


def group_records(rng: random.Random, groups: int, values: int, count: int) -> List[Tuple[int, int]]:
    """``count`` tuples ``(a, b)`` with ``a < groups`` and ``b < values``."""
    return [(rng.randrange(groups), rng.randrange(values)) for _ in range(count)]
