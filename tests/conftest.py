"""Shared builders for the test suite."""

import random
from itertools import permutations
from typing import Sequence

import pytest

from hoffman import Graph, complete_graph, cycle_graph


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def permutation_equivalent(b1: Sequence[Sequence[int]], b2: Sequence[Sequence[int]]) -> bool:
    """True when some permutation P satisfies P^T b1 P = b2 (brute force)."""
    n = len(b1)
    if len(b2) != n:
        return False
    for perm in permutations(range(n)):
        if all(b1[perm[i]][perm[j]] == b2[i][j] for i in range(n) for j in range(n)):
            return True
    return False


def graph6_encode(G: Graph) -> str:
    """Minimal graph6 encoder (n <= 62), used as a round-trip oracle."""
    assert G.n <= 62
    bits = []
    for j in range(1, G.n):
        for i in range(j):
            bits.append(1 if G.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(G.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val * 2 + b
        out.append(chr(val + 63))
    return "".join(out)


@pytest.fixture
def petersen() -> Graph:
    return petersen_graph()


@pytest.fixture
def k5() -> Graph:
    return complete_graph(5)


@pytest.fixture
def c5() -> Graph:
    return cycle_graph(5)
