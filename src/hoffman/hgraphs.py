"""Hoffman graphs: construction, special matrices, expansions, and catalogs.

A Hoffman graph is a graph whose vertices are labelled fat or slim, with no
two fat vertices adjacent and every fat vertex adjacent to at least one slim
vertex.  We store the slim graph as a :class:`~hoffman.graphs.Graph`
(``h.slim``), which validates the slim edges and caps the slim count at
``MAX_VERTICES``, plus the slim neighborhood of each fat vertex; fat-fat
edges are unrepresentable by construction.

The eigenvalues of a Hoffman graph are those of its special matrix
S = A_slim - D^T D, where D is the fat-slim incidence matrix; S is returned
as an integer :class:`~hoffman.exact.RationalMatrix` (``den`` = 1), the
library's one exact matrix format.  Besides the special matrix, this module
builds the clique expansion G(h, p) with its equitable block layout
(:func:`expansion_blocks`); :func:`expand` writes the neighborhood bitsets of
those blocks directly, one clique mask per fat vertex, with no edge list.  It
also holds the forbidden templates m_1 .. m_9, the parametric families behind
the threshold expansions, and the named catalog.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ._numpy import np
from .errors import IndexOutOfFamily
from .exact import RationalMatrix, adjacency_bits
from .graphs import MAX_VERTICES, Graph, _NotAnEdge, _bitset, _is_int


class HoffmanGraph:
    """Immutable Hoffman graph given by its slim graph and fat neighborhoods."""

    __slots__ = ("slim", "fat_neighbors")

    def __init__(
        self,
        n_slim: int,
        slim_edges: Iterable[Sequence[int]] = (),
        fat_neighbors: Iterable[Iterable[int]] = (),
    ):
        self.slim = Graph(n_slim, slim_edges)
        fats = tuple(frozenset(f) for f in fat_neighbors)
        for f in fats:
            if not f:
                raise ValueError("every fat vertex needs at least one slim neighbor")
            if any(not 0 <= s < n_slim for s in f):
                raise ValueError("fat neighborhood out of slim range")
        self.fat_neighbors = fats

    @property
    def n_slim(self) -> int:
        return self.slim.n

    @property
    def n_fat(self) -> int:
        return len(self.fat_neighbors)

    def fat_degree(self, v: int) -> int:
        return sum(1 for f in self.fat_neighbors if v in f)

    def to_json(self) -> dict:
        return {
            "slim": self.n_slim,
            "fat": self.n_fat,
            "slim_edges": [list(e) for e in self.slim.edges()],
            "fat_adj": [sorted(f) for f in self.fat_neighbors],
        }

    @classmethod
    def from_json(cls, obj) -> "HoffmanGraph":
        """Build from ``{"slim": int, "fat": int, "slim_edges": [[u, v], ...],
        "fat_adj": [[s, ...], ...]}``; ``fat`` is optional.

        Counts and vertex indices must be JSON integers; anything else raises
        ValueError rather than being coerced or truncated.
        """
        if not isinstance(obj, dict) or not _is_int(obj.get("slim")):
            raise ValueError("Hoffman graph JSON must be an object with an integer 'slim'")
        edges = obj.get("slim_edges", [])
        edges_message = "Hoffman graph JSON: 'slim_edges' must be a list of [u, v] integer pairs"
        if not isinstance(edges, (list, tuple)):
            raise ValueError(edges_message)
        fat_adj = obj.get("fat_adj", [])
        if not isinstance(fat_adj, (list, tuple)) or not all(
            isinstance(f, (list, tuple)) and all(_is_int(s) for s in f) for f in fat_adj
        ):
            raise ValueError("Hoffman graph JSON: 'fat_adj' must be a list of integer lists")
        try:
            h = cls(obj["slim"], edges, fat_adj)
        except _NotAnEdge:
            raise ValueError(edges_message) from None
        if "fat" in obj and (not _is_int(obj["fat"]) or obj["fat"] != h.n_fat):
            raise ValueError("Hoffman graph JSON: 'fat' does not match the length of 'fat_adj'")
        return h

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HoffmanGraph)
            and self.slim == other.slim
            and sorted(self.fat_neighbors, key=sorted) == sorted(other.fat_neighbors, key=sorted)
        )

    def __hash__(self) -> int:
        return hash((self.slim, frozenset(self.fat_neighbors)))

    def __repr__(self) -> str:
        return f"HoffmanGraph(slim={self.n_slim}, fat={self.n_fat})"


def load_hoffman_file(path: str) -> HoffmanGraph:
    with open(path, "r", encoding="ascii") as fh:
        return HoffmanGraph.from_json(json.load(fh))


# -- special matrices ---------------------------------------------------------

def special_matrix(h: HoffmanGraph) -> RationalMatrix:
    """The integer matrix S = A_slim - D^T D over the slim vertices, in index order."""
    D = np.zeros((h.n_fat, h.n_slim), dtype=np.int64)
    for k, f in enumerate(h.fat_neighbors):
        D[k, list(f)] = 1
    return RationalMatrix.fraction_free(adjacency_bits(h.slim) - D.T @ D, 1)


# -- clique expansion --------------------------------------------------------

def expansion_blocks(h: HoffmanGraph, p: int) -> list[range]:
    """Vertex blocks of :func:`expand`: each slim vertex alone, then the
    p-clique of each fat vertex, in the order of ``h.fat_neighbors``.

    :func:`expand` numbers its vertices by these blocks, and they form an
    equitable partition of G(h, p).
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    slim = [range(v, v + 1) for v in range(h.n_slim)]
    fat = [range(h.n_slim + k * p, h.n_slim + (k + 1) * p) for k in range(h.n_fat)]
    return slim + fat


def expand(h: HoffmanGraph, p: int) -> Graph:
    """Replace each fat vertex by a slim p-clique joined to its neighbors.

    The neighborhood bitsets are built directly over :func:`expansion_blocks`:
    fat k's clique is one mask, which each of its slim neighbors ORs in and
    each clique vertex takes without its own bit, plus N(k).  An expansion
    with more than ``MAX_VERTICES`` vertices raises ValueError before
    anything is built.
    """
    n = h.n_slim + p * h.n_fat
    if n > MAX_VERTICES:
        raise ValueError(
            f"G(h, {p}) would have {n} vertices; at most {MAX_VERTICES} are supported")
    cliques = expansion_blocks(h, p)[h.n_slim:]
    adj = [h.slim.bits(v) for v in range(h.n_slim)] + [0] * (n - h.n_slim)
    full = (1 << p) - 1
    for f, block in zip(h.fat_neighbors, cliques):
        clique = full << block.start
        for s in f:
            adj[s] |= clique
        slims = _bitset(f)
        for i in block:
            adj[i] = (clique ^ (1 << i)) | slims
    return Graph._from_bits(adj)


def is_t_fat(h: HoffmanGraph, t: int) -> bool:
    """True when every slim vertex has at least t fat neighbors."""
    return all(h.fat_degree(v) >= t for v in range(h.n_slim))


# -- matrix families -------------------------------------------------------------

def m_matrix(kind: int, a: Optional[int] = None, t: int = 2) -> tuple[tuple[int, ...], ...]:
    """The order-1/2/3 matrix templates m_1..m_9 with parameter checks.

    Kinds 1 and 2 require a <= -2; kinds 3 and 4 require a = 1 or a <= -1;
    kinds 5..9 take no parameter.
    """
    if t < 1:
        raise IndexOutOfFamily("t must be a positive integer")
    if kind in (1, 2):
        if a is None or a > -2:
            raise IndexOutOfFamily(f"kind {kind} requires a <= -2, got {a}")
    elif kind in (3, 4):
        if a is None or (a != 1 and a > -1):
            raise IndexOutOfFamily(f"kind {kind} requires a = 1 or a <= -1, got {a}")
    elif kind in (5, 6, 7, 8, 9):
        if a is not None:
            raise IndexOutOfFamily(f"kind {kind} takes no parameter a")
    else:
        raise IndexOutOfFamily(f"unknown kind {kind}")
    if kind == 1:
        return ((-t + a,),)
    if kind == 2:
        return ((-t, a), (a, -t))
    if kind == 3:
        return ((-t - 1, a), (a, -t))
    if kind == 4:
        return ((-t - 1, a), (a, -t - 1))
    if kind == 5:
        return ((-t, -1, -1), (-1, -t, -1), (-1, -1, -t))
    if kind == 6:
        return ((-t, 1, 1), (1, -t, -1), (1, -1, -t))
    if kind == 7:
        return ((-t, 0, 1), (0, -t, -1), (1, -1, -t))
    if kind == 8:
        return ((-t, 0, 1), (0, -t, 1), (1, 1, -t))
    return ((-t, 0, -1), (0, -t, -1), (-1, -1, -t))


# -- parametric constructors -----------------------------------------------------

def slim_with_fats(t: int) -> HoffmanGraph:
    """One slim vertex with t fat neighbors; special matrix (-t)."""
    if t < 1:
        raise ValueError("t must be positive")
    return HoffmanGraph(1, [], [[0]] * t)


def clique_with_two_fats(s: int) -> HoffmanGraph:
    """s slim vertices forming a clique, each adjacent to the same two fats."""
    if s < 1:
        raise ValueError("s must be positive")
    edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
    return HoffmanGraph(s, edges, [list(range(s))] * 2)


def pendant_slim_pair(s: int) -> HoffmanGraph:
    """Two adjacent slims; the first has s fat neighbors, the other none."""
    if s < 1:
        raise ValueError("s must be positive")
    return HoffmanGraph(2, [(0, 1)], [[0]] * s)


# -- catalogs ----------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    id: str
    hoffman: HoffmanGraph


def _entry(id: str, n_slim: int, edges, fats) -> CatalogEntry:
    return CatalogEntry(id, HoffmanGraph(n_slim, edges, fats))


# The nine fixed Hoffman graphs whose special matrices realize the forbidden
# templates at t = 2.  Subscripts follow the matrix each one realizes; the
# two h_8 entries are the two distinct realizations of m_8(2).
_CATALOG_H: tuple[CatalogEntry, ...] = (
    _entry("h_{1,-2}", 1, [], [[0], [0], [0], [0]]),
    _entry("h_{3,1}", 2, [(0, 1)], [[0], [0], [0], [1], [1]]),
    _entry("h_{3,-1}", 2, [(0, 1)], [[0], [0, 1], [0, 1]]),
    _entry("h_{4,-2}", 2, [(0, 1)], [[0, 1], [0, 1], [0, 1]]),
    _entry("h_5", 3, [(0, 1), (0, 2), (1, 2)], [[0, 1, 2], [0, 1, 2]]),
    _entry("h_6", 3, [(0, 1), (0, 2), (1, 2)], [[0, 1], [0, 1], [2], [2]]),
    _entry("h_7", 3, [(0, 1), (1, 2)], [[0, 1], [0, 1], [2], [2]]),
    _entry("h_8^{(1)}", 3, [(0, 1), (1, 2)], [[0], [0], [1], [1], [2], [2]]),
    _entry("h_8^{(2)}", 3, [(0, 1), (0, 2), (1, 2)], [[0], [0, 1], [1], [2], [2]]),
)

# The five indecomposable 2-fat building blocks whose special matrices are
# (-3) or the two-block +/-1 pattern; "box" and "twin" share a special matrix
# but are non-isomorphic.
_CATALOG_G2: tuple[CatalogEntry, ...] = (
    _entry("fan3", 1, [], [[0], [0], [0]]),
    _entry("g2_quad", 4, [(0, 3), (1, 2)],
           [[0, 1], [0, 2], [1, 3], [2, 3]]),
    _entry("g2_triple", 3, [(0, 1)], [[0, 2], [0], [1], [1, 2]]),
    _entry("box", 2, [(0, 1)], [[0, 1], [0, 1]]),
    _entry("g2_twin", 2, [], [[0], [0, 1], [1]]),
)

_CATALOG_MISC: tuple[CatalogEntry, ...] = (
    _entry("path2fat", 1, [], [[0], [0]]),
)

_CATALOG_BY_ID = {e.id: e for e in _CATALOG_H + _CATALOG_G2 + _CATALOG_MISC}


def catalog(id: str):
    """Named Hoffman graphs; ``"H"`` and ``"G2"`` return the full families.

    Individual ids: the nine forbidden-template realizations ``h_{1,-2}``,
    ``h_{3,1}``, ``h_{3,-1}``, ``h_{4,-2}``, ``h_5`` .. ``h_7``,
    ``h_8^{(1)}``, ``h_8^{(2)}``; the five building blocks ``fan3``,
    ``g2_quad``, ``g2_triple``, ``box``, ``g2_twin``; and ``path2fat``.
    """
    if id == "H":
        return _CATALOG_H
    if id == "G2":
        return _CATALOG_G2
    try:
        return _CATALOG_BY_ID[id]
    except KeyError:
        raise IndexOutOfFamily(f"unknown catalog id {id!r}") from None
