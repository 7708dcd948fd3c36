"""Shared builders and dense reference oracles for the test suite."""

import random
import sys
from fractions import Fraction
from itertools import combinations, permutations
from typing import Sequence

import pytest

from hoffman import (
    Graph,
    HoffmanGraph,
    NotEquitable,
    RationalMatrix,
    complete_graph,
    cycle_graph,
    special_matrix,
)


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


def planted_twin_graph(rng: random.Random, k: int, p: float) -> Graph:
    """A random graph on k planted classes, relabelled at random.

    Each class is a clique or an independent set of 1 to 4 vertices, two
    classes are joined completely or not at all as a random base graph on k
    vertices says, and 0 to 2 isolated vertices are added.  The twin classes
    may be coarser than the planted ones.
    """
    base = random_graph(rng, k, p)
    classes, n = [], 0
    for _ in range(k):
        size = rng.randint(1, 4)
        classes.append((range(n, n + size), rng.random() < 0.5))
        n += size
    n += rng.randint(0, 2)
    edges = []
    for a, (block, closed) in enumerate(classes):
        if closed:
            edges += combinations(block, 2)
        for b in base.neighbors(a):
            if b > a:
                edges += [(u, v) for u in block for v in classes[b][0]]
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def line_graph_of_complete(m: int) -> Graph:
    pairs = list(combinations(range(m), 2))
    return Graph(len(pairs), [
        (i, j) for i in range(len(pairs)) for j in range(i + 1, len(pairs))
        if set(pairs[i]) & set(pairs[j])
    ])


def is_clique(G: Graph, vertices: Sequence[int]) -> bool:
    return all(G.has_edge(u, v) for u, v in combinations(vertices, 2))


def identity(n: int) -> RationalMatrix:
    return RationalMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def fraction_rows(M: RationalMatrix) -> list[list[Fraction]]:
    """The entries of M as fresh Fraction rows, for the dense references.

    Each call converts the whole matrix, so bind the result once per matrix.
    """
    den = M.den
    return [[Fraction(x, den) for x in row] for row in M.num.tolist()]


def adjacency_fraction(G: Graph) -> RationalMatrix:
    """Adjacency matrix built entry by entry from Fractions (the dense reference)."""
    return RationalMatrix([[Fraction(int(G.has_edge(u, v))) for v in range(G.n)]
                           for u in range(G.n)])


def quadratic_form(M: RationalMatrix, x: Sequence) -> Fraction:
    """x^T M x over the rationals, entry by entry (the dense reference)."""
    xs = [Fraction(v) for v in x]
    if len(xs) != M.order:
        raise ValueError("vector length mismatch")
    rows = fraction_rows(M)
    return sum((xs[i] * rows[i][j] * xs[j]
                for i in range(M.order) if xs[i]
                for j in range(M.order) if xs[j]), Fraction(0))


def quotient_matrix(M: RationalMatrix, blocks: Sequence[Sequence[int]]) -> RationalMatrix:
    """Quotient of M over an equitable partition into ``blocks`` (the dense reference).

    Equitability is verified: for blocks I, J the sum of row entries into J
    must be the same for every row of I, else :class:`NotEquitable` names
    the violating (row, block) pair.
    """
    if sum(len(block) for block in blocks) != M.order:
        raise ValueError("partition size does not match matrix order")
    rows = fraction_rows(M)
    q = []
    for block in blocks:
        qrow = []
        for jdx, other in enumerate(blocks):
            sums = [sum(rows[i][j] for j in other) for i in block]
            for offset, s in enumerate(sums):
                if s != sums[0]:
                    raise NotEquitable(block[offset], jdx)
            qrow.append(sums[0])
        q.append(qrow)
    return RationalMatrix(q)


def permutation_equivalent(b1: Sequence[Sequence[int]], b2: Sequence[Sequence[int]]) -> bool:
    """True when some permutation P satisfies P^T b1 P = b2 (brute force)."""
    n = len(b1)
    if len(b2) != n:
        return False
    for perm in permutations(range(n)):
        if all(b1[perm[i]][perm[j]] == b2[i][j] for i in range(n) for j in range(n)):
            return True
    return False


def induced_by_slim(h: HoffmanGraph, W) -> HoffmanGraph:
    """Induced Hoffman subgraph on the slim subset W and every fat vertex touching it."""
    ws = sorted(set(W))
    if any(not 0 <= w < h.n_slim for w in ws):
        raise ValueError(f"subset {ws} not contained in the slim vertex range")
    pos = {w: i for i, w in enumerate(ws)}
    edges = [(pos[u], pos[v]) for u, v in h.slim.edges() if u in pos and v in pos]
    fats = [inter for inter in (sorted(pos[s] for s in f if s in pos) for f in h.fat_neighbors)
            if inter]
    return HoffmanGraph(len(ws), edges, fats)


def decompose(h: HoffmanGraph) -> list:
    """Finest decomposition: the components of the special matrix's off-diagonal support.

    Pieces are induced by slim subsets and ordered by their smallest slim vertex.
    """
    S = special_matrix(h).num.tolist()
    comps, seen = [], set()
    for root in range(h.n_slim):
        if root in seen:
            continue
        seen.add(root)
        comp, stack = [], [root]
        while stack:
            i = stack.pop()
            comp.append(i)
            for j, x in enumerate(S[i]):
                if x and j not in seen:
                    seen.add(j)
                    stack.append(j)
        comps.append(comp)
    return [induced_by_slim(h, comp) for comp in comps]


def hoffman_isomorphic(h1: HoffmanGraph, h2: HoffmanGraph) -> bool:
    """Label-preserving isomorphism by brute force over slim bijections (small inputs).

    With the slim bijection fixed, the fat sides match iff the multisets of
    fat neighbourhoods coincide, since fat vertices are mutually non-adjacent.
    """
    if h1.n_slim != h2.n_slim or h1.n_fat != h2.n_fat:
        return False
    g1, g2 = h1.slim, h2.slim
    fats2 = sorted(sorted(f) for f in h2.fat_neighbors)
    for perm in permutations(range(h1.n_slim)):
        if all(g1.has_edge(u, v) == g2.has_edge(perm[u], perm[v])
               for u, v in combinations(range(h1.n_slim), 2)):
            if sorted(sorted(perm[s] for s in f) for f in h1.fat_neighbors) == fats2:
                return True
    return False


def graph6_encode(G: Graph) -> str:
    """Minimal graph6 encoder (n <= 258047), used as a round-trip oracle."""
    assert G.n <= 258047
    bits = []
    for j in range(1, G.n):
        for i in range(j):
            bits.append(1 if G.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    if G.n <= 62:
        out = [chr(G.n + 63)]
    else:
        out = [chr(126)] + [chr(63 + ((G.n >> shift) & 63)) for shift in (12, 6, 0)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val * 2 + b
        out.append(chr(val + 63))
    return "".join(out)


def parse_graph6_by_edges(text: str | bytes) -> Graph:
    """A graph6 decoder that lists every bit and every edge, the test oracle
    for :func:`hoffman.parse_graph6`; same errors, no vertex limit."""
    data = text.strip().encode("ascii") if isinstance(text, str) else text.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise ValueError("empty graph6 string")
    vals = [b - 63 for b in data]
    if any(v < 0 or v > 63 for v in vals):
        raise ValueError("invalid graph6 character")
    if vals[0] < 63:
        n, body = vals[0], vals[1:]
    elif len(vals) >= 4 and vals[1] < 63:
        n, body = (vals[1] << 12) | (vals[2] << 6) | vals[3], vals[4:]
    elif len(vals) >= 8:
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        body = vals[8:]
    else:
        raise ValueError("truncated graph6 header")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise ValueError("graph6 body too short")
    bits = [(v >> k) & 1 for v in body[:need] for k in range(5, -1, -1)]
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


@pytest.fixture
def petersen() -> Graph:
    return petersen_graph()


@pytest.fixture
def k5() -> Graph:
    return complete_graph(5)


@pytest.fixture
def c5() -> Graph:
    return cycle_graph(5)


def count_calls(monkeypatch, module, name, order):
    """Log ``order(first argument)`` of each call of ``module.name``, through
    every hoffman module that bound that function by name."""
    fn = getattr(module, name)
    log = []

    def counted(*args, **kwargs):
        log.append(order(args[0]))
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("hoffman") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return log
