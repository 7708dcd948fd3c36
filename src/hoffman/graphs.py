"""Ordinary simple graphs: bitset storage, clique search, and file I/O.

Graphs are immutable after construction, so values can be shared freely
across threads; every operation in this module is a pure function.  The
enumeration routines are exponential in the worst case and are guarded by an
input-size limit (:data:`MAX_VERTICES`), a count limit on maximal cliques
(:data:`MAX_CLIQUES`) and a node budget on the independent-set search
(:data:`MIS_NODE_BUDGET`); the intended instances are desk scale.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CliqueLimitExceeded, SearchBudgetExhausted

MAX_VERTICES = 10_000
# maximal cliques one maximal_cliques call may find
MAX_CLIQUES = 100_000
# search nodes one maximum_independent_set call may visit
MIS_NODE_BUDGET = 1_000_000


def _check_order(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"graphs with more than {MAX_VERTICES} vertices are not supported")


class Graph:
    """Simple undirected graph on vertices ``0..n-1`` with bitset adjacency."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        _check_order(n)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _from_bits(cls, adj: Sequence[int]) -> "Graph":
        """Graph on ``len(adj)`` vertices whose vertex v has neighborhood bitset ``adj[v]``.

        The caller builds ``adj`` symmetric: bit v of ``adj[u]`` is set exactly
        when bit u of ``adj[v]`` is.  That is not re-checked, so edges from
        outside the program go through ``Graph(n, edges)`` instead.  Raises
        ValueError on more than :data:`MAX_VERTICES` entries, on a bit at or
        above n (a negative entry included) and on a self-loop bit.
        """
        adj = tuple(adj)
        n = len(adj)
        _check_order(n)
        for v, bits in enumerate(adj):
            if bits >> n:
                raise ValueError(f"neighborhood of vertex {v} out of range for n={n}")
            if (bits >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        G = cls.__new__(cls)
        G.n = n
        G._adj = adj
        return G

    # -- basic accessors ---------------------------------------------------

    def bits(self, v: int) -> int:
        """Neighborhood of ``v`` as an integer bitset."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_iter_bits(self._adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1)
            for k in _iter_bits(rest):
                yield (u, u + 1 + k)

    def edge_count(self) -> int:
        return sum(self._adj[u].bit_count() for u in range(self.n)) // 2

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Subgraph induced by ``vertices`` (relabelled 0..k-1 in given order)."""
        idx = {v: i for i, v in enumerate(vertices)}
        edges = [
            (idx[u], idx[v])
            for i, u in enumerate(vertices)
            for v in vertices[i + 1:]
            if self.has_edge(u, v)
        ]
        return Graph(len(vertices), edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _iter_bits(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _bitset(vertices: Iterable[int]) -> int:
    b = 0
    for v in vertices:
        b |= 1 << v
    return b


# -- construction helpers --------------------------------------------------

def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


# -- mu parameter ----------------------------------------------------------

def mu_parameter(G: Graph) -> int:
    """Largest number of common neighbors over non-adjacent vertex pairs.

    Returns 0 when no non-adjacent pair exists (complete graphs).
    """
    best = 0
    for u in range(G.n):
        au = G.bits(u)
        for v in range(u + 1, G.n):
            if not (au >> v) & 1:
                common = (au & G.bits(v)).bit_count()
                if common > best:
                    best = common
    return best


# -- maximal clique enumeration --------------------------------------------

def maximal_cliques(G: Graph, min_size: int = 1) -> tuple[tuple[int, ...], ...]:
    """All inclusion-maximal cliques of order >= ``min_size``, each a sorted tuple.

    Bron-Kerbosch with pivoting over bitset candidate sets.  The output is
    sorted lexicographically by vertex list, so downstream indexings are
    reproducible.  Raises :class:`CliqueLimitExceeded` once more than
    :data:`MAX_CLIQUES` maximal cliques have been found.
    """
    if min_size < 1:
        raise ValueError("min_size must be positive")
    found: list[tuple[int, ...]] = []
    count = 0
    adj = G._adj

    def extend(r: list[int], p: int, x: int) -> None:
        nonlocal count
        if p == 0 and x == 0:
            count += 1
            if count > MAX_CLIQUES:
                raise CliqueLimitExceeded(f"more than {MAX_CLIQUES} maximal cliques")
            if len(r) >= min_size:
                found.append(tuple(sorted(r)))
            return
        # pivot: vertex of p|x with the most neighbors inside p
        pivot = -1
        best = -1
        for u in _iter_bits(p | x):
            cnt = (p & adj[u]).bit_count()
            if cnt > best:
                best = cnt
                pivot = u
        for v in _iter_bits(p & ~adj[pivot]):
            r.append(v)
            extend(r, p & adj[v], x & adj[v])
            r.pop()
            p &= ~(1 << v)
            x |= 1 << v

    if G.n:
        extend([], (1 << G.n) - 1, 0)
    return tuple(sorted(found))


# -- independent sets -------------------------------------------------------

def _mis_size(cand: int, adj: Sequence[int], nodes_left: list[int]) -> int:
    """Order of a maximum independent set inside the bitset ``cand``.

    Each node spends one unit of ``nodes_left[0]``, which the calling search
    shares across all its calls.
    """
    nodes_left[0] -= 1
    if nodes_left[0] < 0:
        raise SearchBudgetExhausted(
            f"no maximum independent set within {MIS_NODE_BUDGET} search nodes")
    if cand == 0:
        return 0
    # branch on a vertex of maximum degree within cand
    best_v = -1
    best_d = -1
    for v in _iter_bits(cand):
        d = (adj[v] & cand).bit_count()
        if d > best_d:
            best_d = d
            best_v = v
    if best_d == 0:
        return cand.bit_count()
    without = _mis_size(cand & ~(1 << best_v), adj, nodes_left)
    with_v = 1 + _mis_size(cand & ~adj[best_v] & ~(1 << best_v), adj, nodes_left)
    return max(without, with_v)


def maximum_independent_set(G: Graph, within: Optional[Iterable[int]] = None) -> tuple[int, ...]:
    """Lexicographically smallest maximum independent set.

    ``within`` restricts the search to a vertex subset (default: all).
    Raises :class:`SearchBudgetExhausted` once the search has visited
    :data:`MIS_NODE_BUDGET` nodes without a verdict.
    """
    cand = _bitset(within) if within is not None else (1 << G.n) - 1
    adj = G._adj
    nodes_left = [MIS_NODE_BUDGET]
    alpha = _mis_size(cand, adj, nodes_left)
    chosen: list[int] = []
    for v in range(G.n):
        if not (cand >> v) & 1:
            continue
        rest = cand & ~adj[v] & ~(1 << v)
        if len(chosen) + 1 + _mis_size(rest, adj, nodes_left) == alpha:
            chosen.append(v)
            cand = rest
    return tuple(chosen)


# -- file formats ------------------------------------------------------------

def _is_int(x) -> bool:
    # JSON yields no int subclass but bool, which this test excludes as well
    return type(x) is int


def _is_int_pairs(edges) -> bool:
    return isinstance(edges, (list, tuple)) and all(
        isinstance(e, (list, tuple)) and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
        for e in edges
    )


def graph_from_json(obj) -> Graph:
    """Build a graph from ``{"n": int, "edges": [[u, v], ...]}``.

    The vertex count and every endpoint must be JSON integers; anything else
    raises ValueError rather than being coerced or truncated.
    """
    if not isinstance(obj, dict) or "n" not in obj:
        raise ValueError("graph JSON must be an object with keys 'n' and 'edges'")
    n = obj["n"]
    if not _is_int(n):
        raise ValueError(f"graph JSON: 'n' must be an integer, got {n!r}")
    edges = obj.get("edges", [])
    if not _is_int_pairs(edges):
        raise ValueError("graph JSON: 'edges' must be a list of [u, v] integer pairs")
    return Graph(n, edges)


def parse_graph6(text: str | bytes) -> Graph:
    """Decode a graph6 string (standard format, optional ``>>graph6<<`` header)."""
    if isinstance(text, str):
        data = text.strip().encode("ascii")
    else:
        data = text.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise ValueError("empty graph6 string")
    vals = [b - 63 for b in data]
    if any(v < 0 or v > 63 for v in vals):
        raise ValueError("invalid graph6 character")
    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    elif len(vals) >= 4 and vals[1] < 63:
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    elif len(vals) >= 8:
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        body = vals[8:]
    else:
        raise ValueError("truncated graph6 header")
    _check_order(n)  # before the n(n-1)/2 bits are expanded
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise ValueError("graph6 body too short")
    bits = []
    for v in body[:need]:
        for k in range(5, -1, -1):
            bits.append((v >> k) & 1)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def load_graph(text: str) -> Graph:
    """Autodetect JSON (first byte ``{`` or ``[``) versus graph6 and parse.

    ``[`` and ``{`` are also the graph6 headers of 28 and 60 vertices, so
    such text that is not a JSON graph is tried as graph6 before the JSON
    error is reported.
    """
    stripped = text.lstrip()
    if not stripped.startswith(("{", "[")):
        return parse_graph6(stripped)
    try:
        return graph_from_json(json.loads(stripped))
    except ValueError as json_error:
        try:
            return parse_graph6(stripped)
        except ValueError:
            raise json_error from None


def load_graph_file(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return load_graph(fh.read())
