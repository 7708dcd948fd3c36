"""Associated Hoffman graphs, clique extraction, and the structure check.

The associated Hoffman graph of a graph G at level q attaches one fat vertex
per maximal clique of order at least q.  Around it this module collects the
threshold formulas (n1, n2, c~, q, K), the independent-set-driven clique
extraction, and the check of the structure theorem's hypotheses and
conclusion-side invariants for a given graph.

Everything here is a pure function of its inputs and safe to run in
parallel; reports are plain dictionaries so the CLI can serialize them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BoundViolation
from .forbidden import _TwinSplit, certify_lambda_min_below, graph_lambda_min_float, scan_M_t
from .graphs import (
    Graph, _bitset, _cliques, _iter_bits, _maximal_cliques_in_order, maximal_cliques,
    maximum_independent_set, mu_parameter,
)
from .hgraphs import HoffmanGraph, is_t_fat, special_matrix


# -- associated Hoffman graphs -------------------------------------------------

def associated_hoffman(G: Graph, q: int) -> HoffmanGraph:
    """Associated Hoffman graph at level q.

    Fat vertices correspond to the maximal cliques of order >= q, in the
    deterministic (lexicographic) enumeration order; a fat vertex is adjacent
    precisely to its clique.  Zero fat vertices is allowed.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    return HoffmanGraph(G.n, G.edges(), maximal_cliques(G, min_size=q))


# -- threshold formulas ----------------------------------------------------------

def n1_threshold(lam: int) -> int:
    """Minimum clique order for the neighbor-count dichotomy."""
    return lam**4 - 2 * lam**3 + 3 * lam**2 - 3 * lam + 3


def n2_threshold(phi: int, sigma: int, p: int, c_tilde: int) -> int:
    """Clique order forcing an expansion to embed: c~(sigma-1)+c~(p+1)(phi-1)+p+1."""
    return c_tilde * (sigma - 1) + c_tilde * (p + 1) * (phi - 1) + p + 1


@dataclass(frozen=True)
class Thresholds:
    """The named constants for a (lambda, c) regime.

    ``q`` and ``K`` are the smallest-eigenvalue >= -3 regime constants and
    are only defined when ceil(lambda) == 3.
    """

    c: int
    c_tilde: int
    n1: int
    q: Optional[int]
    K: Optional[int]


def thresholds(lam, c: int) -> Thresholds:
    if lam < 1 or c < 1:
        raise ValueError("lambda >= 1 and c >= 1 required")
    ceil_l = math.ceil(lam)
    c_tilde = min(c, ceil_l * (ceil_l - 1))
    q = K = None
    if ceil_l == 3:
        q = max(c + 5, 50 * c_tilde + 16)
        K = max(36 * c + 400 * c_tilde + 83, 44 * c - 5)
    return Thresholds(c=c, c_tilde=c_tilde, n1=n1_threshold(ceil_l), q=q, K=K)


# -- clique extraction (independent-set pigeonhole) -------------------------------

@dataclass(frozen=True)
class CliqueExtraction:
    """Output of the neighborhood partition around a vertex x."""

    x: int
    independent_set: tuple[int, ...]
    w_set: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    clique1: tuple[int, ...]
    bound1: Fraction
    clique2: Optional[tuple[int, ...]]
    bound2: Optional[Fraction]
    second_hypothesis_holds: Optional[bool]


def bose_laskar(G: Graph, x: int, lam, c: int, r: Optional[int] = None) -> CliqueExtraction:
    """Extract one (or two) large maximal cliques through x.

    Requires the graph to have at most c common neighbors over non-adjacent
    pairs; the smallest-eigenvalue >= -lambda hypothesis is the caller's
    responsibility and is NOT checked.  If a certified bound fails,
    :class:`BoundViolation` is raised, which certifies that the eigenvalue
    hypothesis cannot hold for this graph.

    Construction: take a maximum independent set I inside N(x), remove the
    set W of neighbors seeing >= 2 vertices of I, and partition the rest by
    their unique neighbor in I; each part is a clique.  The largest part
    (ties by smallest minimum vertex), extended through x to a maximal
    clique, is the first output.  When ``r`` is given and every maximal
    clique containing x has order at most d(x) - r, the second-largest part
    gives the second output.

    Everything is read from G's neighborhood bitsets: with F = N(x) - W,
    the part of v in I is F ∩ N(v) ∪ {v}, and the largest clique through x
    comes from the maximal cliques of G through x, the clique enumeration
    from the one root ({x}, N(x), ∅); no induced subgraph is built.
    """
    if not 0 <= x < G.n:
        raise ValueError(f"vertex {x} out of range")
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    if c < 1:
        raise ValueError("c must be a positive integer")
    mu = mu_parameter(G)
    if mu > c:
        raise ValueError(f"graph has non-adjacent pairs with {mu} > c = {c} common neighbors")
    lam = Fraction(lam)
    floor_l2 = lam.numerator ** 2 // lam.denominator ** 2

    adj = G._adj
    nbrs = adj[x]
    ind = maximum_independent_set(G, G.neighbors(x))
    ind_bits = _bitset(ind)
    s = len(ind)

    w_bits = 0
    for y in _iter_bits(nbrs):
        if (adj[y] & ind_bits).bit_count() >= 2:
            w_bits |= 1 << y
    free = nbrs & ~w_bits
    # the parts are disjoint, so (size, smallest vertex) orders them totally
    part_bits = sorted((free & adj[v] | 1 << v for v in ind),
                       key=lambda part: (-part.bit_count(), part & -part))
    parts = tuple(tuple(_iter_bits(part)) for part in part_bits)

    d = nbrs.bit_count()
    denom = math.comb(floor_l2, 2) * (c - 1)
    bound1 = Fraction(d - denom, floor_l2) + 1 if floor_l2 else Fraction(1)

    clique1 = _extend_to_maximal(adj, (part_bits[0] if part_bits else 0) | 1 << x)
    if len(clique1) < bound1:
        raise BoundViolation(
            f"first clique through {x} has order {len(clique1)} < {bound1}"
        )

    clique2 = None
    bound2 = None
    hypothesis = None
    if r is not None:
        hypothesis = max(map(len, _cliques(adj, [(1 << x, nbrs, 0)]))) <= d - r
        if hypothesis and s >= 2:
            if floor_l2 < 2:
                raise BoundViolation(
                    f"independent set of order {s} in N({x}) with floor(lambda^2) = {floor_l2}"
                )
            bound2 = Fraction(r - denom + 1, floor_l2 - 1) + 1
            clique2 = _extend_to_maximal(adj, part_bits[1] | 1 << x)
            if len(clique2) < bound2:
                raise BoundViolation(
                    f"second clique through {x} has order {len(clique2)} < {bound2}"
                )
    return CliqueExtraction(
        x=x, independent_set=ind, w_set=tuple(_iter_bits(w_bits)), parts=parts,
        clique1=clique1, bound1=bound1, clique2=clique2, bound2=bound2,
        second_hypothesis_holds=hypothesis,
    )


def _extend_to_maximal(adj, clique: int) -> tuple[int, ...]:
    """The nonempty clique bitset ``clique``, extended greedily by its smallest
    common neighbor, as a sorted tuple."""
    common = -1
    for v in _iter_bits(clique):
        common &= adj[v]
    while common:
        low = common & -common
        clique |= low
        common &= adj[low.bit_length() - 1]
    return tuple(_iter_bits(clique))


# -- full structural condition check ------------------------------------------------------

def theorem_intro2_check(G: Graph, c: int) -> dict:
    """Evaluate the three structure-theorem hypotheses and, when they hold,
    the conclusion-side invariants of the associated Hoffman graph.

    Conditions: (i) at most c common neighbors over non-adjacent pairs;
    (ii) every maximal clique C has order at most min over x in C of
    d(x) - K; (iii) smallest eigenvalue >= -3, decided exactly, with a
    refutation re-checked on the graph.  When all three hold the associated
    Hoffman graph at level q is built, 2-fatness is asserted, and its special
    matrix is scanned for forbidden principal submatrices at t = 2.

    The violations of (ii) listed are the lexicographically first ten: the
    maximal cliques are walked in lexicographic order, one smallest vertex
    at a time, and the walk stops at the tenth violation, so
    :data:`~hoffman.graphs.MAX_CLIQUES` bounds the cliques of the groups it
    reached, not the whole enumeration.  K >= 519 for every c, so on a graph
    whose degrees are all at most K every maximal clique violates and the
    walk stops after ten cliques.
    """
    th = thresholds(3, c)
    report: dict = {"c": c, "c_tilde": th.c_tilde, "q": th.q, "K": th.K}

    mu = mu_parameter(G)
    report["condition_mu"] = {"passed": mu <= c, "mu": mu}

    violations = []
    for clique in _maximal_cliques_in_order(G):
        min_deg = min(G.degree(x) for x in clique)
        if len(clique) > min_deg - th.K:
            violations.append({"clique": list(clique), "min_degree": min_deg})
            if len(violations) == 10:  # the report lists the first ten
                break
    report["condition_clique_order"] = {"passed": not violations, "violations": violations}

    split = _TwinSplit(G)
    report["condition_lambda_min"] = {
        "passed": certify_lambda_min_below(G, 3, split) is None,
        "lambda_min_float": graph_lambda_min_float(G, split),
        "exact": True,
    }

    hypotheses = all(report[k]["passed"] for k in
                     ("condition_mu", "condition_clique_order", "condition_lambda_min"))
    report["associated"] = None
    if hypotheses:
        h = associated_hoffman(G, th.q)
        two_fat = is_t_fat(h, 2)
        hit = scan_M_t(special_matrix(h), 2)
        report["associated"] = {
            "fats": h.n_fat,
            "two_fat": two_fat,
            "forbidden_hit": None if hit is None else {
                "slim_subset": list(hit.slim_subset),
                "family_member": hit.family_member,
            },
            "passed": two_fat and hit is None,
        }
    report["passed"] = hypotheses and report["associated"]["passed"]
    return report
