"""Associated Hoffman graphs, clique extraction, and structural verifiers.

The associated Hoffman graph of a graph G at level q attaches one fat vertex
per maximal clique of order at least q.  Around it this module collects the
threshold formulas, the independent-set-driven clique extraction, the
neighbor-count dichotomy for vertices outside a large clique, and the
representation / clique-cover verifiers for slim graphs built from the
two-fat building blocks.

Everything here is a pure function of its inputs and safe to run in
parallel; reports are plain dictionaries so the CLI can serialize them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    BoundViolation,
    CliqueTooSmall,
    SearchBudgetExhausted,
)
from .exact import is_psd_exact
from .forbidden import adjacency_rational, graph_lambda_min_float, scan_M_t
from .graphs import (
    CliqueSet,
    Graph,
    max_independent_set_in_neighborhood,
    maximal_cliques,
    mu_parameter,
)
from .hgraphs import HoffmanGraph, is_t_fat, special_matrix


# -- associated Hoffman graphs -------------------------------------------------

@dataclass(frozen=True)
class AssociatedGraph:
    """A graph together with one fat vertex per large maximal clique."""

    hoffman: HoffmanGraph
    clique_of_fat: tuple[tuple[int, ...], ...]


def associated_hoffman(G: Graph, q: int, limit: int = 100_000) -> AssociatedGraph:
    """Associated Hoffman graph at level q.

    Fat vertices correspond to the maximal cliques of order >= q, in the
    deterministic (lexicographic) enumeration order; a fat vertex is adjacent
    precisely to its clique.  Zero fat vertices is allowed.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    cliques = maximal_cliques(G, min_size=q, limit=limit)
    h = HoffmanGraph(G.n, G.edges(), [list(c) for c in cliques])
    return AssociatedGraph(h, tuple(cliques))


# -- threshold formulas ----------------------------------------------------------

def n1_threshold(lam: int) -> int:
    """Minimum clique order for the neighbor-count dichotomy."""
    return lam**4 - 2 * lam**3 + 3 * lam**2 - 3 * lam + 3


def n2_threshold(phi: int, sigma: int, p: int, c_tilde: int) -> int:
    """Clique order forcing an expansion to embed: c~(sigma-1)+c~(p+1)(phi-1)+p+1."""
    return c_tilde * (sigma - 1) + c_tilde * (p + 1) * (phi - 1) + p + 1


@dataclass(frozen=True)
class Thresholds:
    """All named constants for a (lambda, c) regime.

    ``q`` and ``K`` are the smallest-eigenvalue >= -3 regime constants and
    are only defined when ceil(lambda) == 3; ``ell`` comes with its own
    internal level ``q_ell``; ``R`` is evaluated at the supplied q when given,
    else at ``q_ell``.
    """

    lam: float
    c: int
    c_tilde: int
    n1: int
    ell: int
    q_ell: int
    R: int
    q: Optional[int]
    K: Optional[int]
    n2: Optional[int]


def thresholds(
    lam,
    c: int,
    phi: Optional[int] = None,
    sigma: Optional[int] = None,
    p: Optional[int] = None,
    q: Optional[int] = None,
) -> Thresholds:
    if lam < 1 or c < 1:
        raise ValueError("lambda >= 1 and c >= 1 required")
    ceil_l = math.ceil(lam)
    floor_l2 = math.floor(Fraction(lam) ** 2) if not isinstance(lam, int) else lam * lam
    c_tilde = min(c, ceil_l * (ceil_l - 1))
    n1 = n1_threshold(ceil_l)
    q_ell = max(
        c + 1 + (ceil_l - 1) ** 2,
        n1,
        (ceil_l**2 - ceil_l + 2) * (c_tilde * ceil_l + 1),
    )
    ell = floor_l2 * (q_ell - 1) + math.comb(floor_l2, 2) * (c - 1) - 1
    q_for_r = q if q is not None else q_ell
    R = floor_l2 * (q_for_r - 1) + (c - 1) * math.comb(floor_l2, 2)
    q = K = None
    if ceil_l == 3:
        ct3 = min(c, 6)
        q = max(c + 5, 50 * ct3 + 16)
        K = max(36 * c + 400 * ct3 + 83, 44 * c - 5)
    n2 = None
    if phi is not None or sigma is not None or p is not None:
        if None in (phi, sigma, p):
            raise ValueError("phi, sigma, p must be given together")
        n2 = n2_threshold(phi, sigma, p, c_tilde)
    return Thresholds(
        lam=float(lam), c=c, c_tilde=c_tilde, n1=n1, ell=ell, q_ell=q_ell,
        R=R, q=q, K=K, n2=n2,
    )


def corep_degree_bound(eps, c: int) -> Fraction:
    """Heuristic upper bound 500/eps + 55c for the degree-gap constant."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return Fraction(500) / eps + 55 * c


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
    """
    if not 0 <= x < G.n:
        raise ValueError(f"vertex {x} out of range")
    if c < 1:
        raise ValueError("c must be a positive integer")
    mu = mu_parameter(G)
    if mu > c:
        raise ValueError(f"graph has non-adjacent pairs with {mu} > c = {c} common neighbors")
    floor_l2 = math.floor(Fraction(lam) ** 2)

    ind = max_independent_set_in_neighborhood(G, x)
    ind_bits = 0
    for v in ind:
        ind_bits |= 1 << v
    s = len(ind)

    w_set = tuple(
        y for y in G.neighbors(x) if (G.bits(y) & ind_bits).bit_count() >= 2
    )
    w_bits = 0
    for y in w_set:
        w_bits |= 1 << y

    parts = []
    for v in ind:
        members = {v} | {
            y for y in G.neighbors(x)
            if (G.bits(y) >> v) & 1 and not (w_bits >> y) & 1
        }
        parts.append(tuple(sorted(members)))
    parts.sort(key=lambda part: (-len(part), part[0]))
    parts = tuple(parts)

    d = G.degree(x)
    denom = math.comb(floor_l2, 2) * (c - 1)
    bound1 = Fraction(d - denom, floor_l2) + 1 if floor_l2 else Fraction(1)

    if parts:
        clique1 = _extend_to_maximal(G, set(parts[0]) | {x})
    else:
        clique1 = _extend_to_maximal(G, {x})
    if len(clique1) < bound1:
        raise BoundViolation(
            f"first clique through {x} has order {len(clique1)} < {bound1}"
        )

    clique2 = None
    bound2 = None
    hypothesis = None
    if r is not None:
        hypothesis = _max_clique_order_through(G, x) <= d - r
        if hypothesis and s >= 2:
            if floor_l2 < 2:
                raise BoundViolation(
                    f"independent set of order {s} in N({x}) with floor(lambda^2) = {floor_l2}"
                )
            bound2 = Fraction(r - denom + 1, floor_l2 - 1) + 1
            clique2 = _extend_to_maximal(G, set(parts[1]) | {x})
            if len(clique2) < bound2:
                raise BoundViolation(
                    f"second clique through {x} has order {len(clique2)} < {bound2}"
                )
    return CliqueExtraction(
        x=x, independent_set=ind, w_set=w_set, parts=parts,
        clique1=clique1, bound1=bound1, clique2=clique2, bound2=bound2,
        second_hypothesis_holds=hypothesis,
    )


def _extend_to_maximal(G: Graph, clique: set[int]) -> tuple[int, ...]:
    common = (1 << G.n) - 1
    for v in clique:
        common &= G.bits(v)
    while common:
        v = (common & -common).bit_length() - 1
        clique.add(v)
        common &= G.bits(v)
    return tuple(sorted(clique))


def _max_clique_order_through(G: Graph, x: int) -> int:
    nbrs = G.neighbors(x)
    if not nbrs:
        return 1
    sub = G.induced(list(nbrs))
    return 1 + max(len(c) for c in maximal_cliques(sub))


# -- dichotomy for vertices outside a large clique ----------------------------------

def hat_dichotomy(G: Graph, C: Sequence[int], lam: int) -> dict:
    """Classify vertices outside clique C by their neighbor count in C.

    ``low`` means at most lam(lam-1) neighbors, ``high`` at least
    |C| - (lam-1)^2; anything in between is recorded as a violation (which
    certifies that the graph's smallest eigenvalue is below -lam) rather
    than raised, so the operation doubles as a falsification probe.
    """
    C = sorted(C)
    if not G.is_clique(C):
        raise ValueError("C is not a clique")
    omega = len(C)
    if omega < n1_threshold(lam):
        raise CliqueTooSmall(f"|C| = {omega} < n1({lam}) = {n1_threshold(lam)}")
    cbits = 0
    for v in C:
        cbits |= 1 << v
    low, high, violations = [], [], []
    for v in range(G.n):
        if (cbits >> v) & 1:
            continue
        k = (G.bits(v) & cbits).bit_count()
        if k <= lam * (lam - 1):
            low.append(v)
        elif k >= omega - (lam - 1) ** 2:
            high.append(v)
        else:
            violations.append((v, k))
    return {"low": low, "high": high, "violations": violations}


# -- representation verifier ----------------------------------------------------------

def verify_representation(G: Graph, N: Sequence[Sequence[int]]) -> dict:
    """Check a {0,+1,-1} column representation N of A(G) + 3I.

    Clauses: (i) A + 3I = N^T N exactly; (ii) every column has squared norm 3
    and column sum 1 or 3; (iii) every column with sum 1 has a partner column
    with inner product 1 and identical support.  Failures are reported, not
    raised.
    """
    cols = _columns(N, G.n)
    report = {"clause_gram": True, "clause_columns": True, "clause_partners": True, "failures": []}
    for v in range(G.n):
        for u in range(v, G.n):
            want = 3 if u == v else (1 if G.has_edge(u, v) else 0)
            got = sum(a * b for a, b in zip(cols[v], cols[u]))
            if got != want:
                report["clause_gram"] = False
                report["failures"].append(f"gram entry ({v},{u}) = {got}, expected {want}")
    for v in range(G.n):
        norm = sum(a * a for a in cols[v])
        total = sum(cols[v])
        if norm != 3:
            report["clause_columns"] = False
            report["failures"].append(f"column {v} has norm {norm}")
        if total not in (1, 3):
            report["clause_columns"] = False
            report["failures"].append(f"column {v} has sum {total}")
    for v in range(G.n):
        if sum(cols[v]) != 1:
            continue
        support_v = [k for k, a in enumerate(cols[v]) if a]
        ok = any(
            u != v
            and sum(a * b for a, b in zip(cols[v], cols[u])) == 1
            and [k for k, a in enumerate(cols[u]) if a] == support_v
            for u in range(G.n)
        )
        if not ok:
            report["clause_partners"] = False
            report["failures"].append(f"column {v} (sum 1) has no partner")
    report["passed"] = (
        report["clause_gram"] and report["clause_columns"] and report["clause_partners"]
    )
    return report


def _columns(N: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    rows = [list(row) for row in N]
    if any(len(row) != n for row in rows):
        raise ValueError(f"representation must have exactly {n} columns")
    for row in rows:
        for x in row:
            if x not in (-1, 0, 1):
                raise ValueError(f"entry {x} outside {{0, +1, -1}}")
    return [[row[v] for row in rows] for v in range(n)]


# -- clique covers -------------------------------------------------------------------

def verify_clique_cover(G: Graph, cover: Iterable[Sequence[int]], q: int) -> dict:
    """Check the three clique-cover clauses for a candidate cover.

    (i) every edge lies in some cover clique; (ii) every vertex lies in at
    most three cover cliques, at least two of which are maximal cliques of G
    with order >= q; (iii) two cover cliques sharing >= 2 vertices share
    exactly 2, and those are the only cover cliques through either shared
    vertex.
    """
    cliques = [tuple(sorted(set(c))) for c in cover]
    report = {"clause_edges": True, "clause_vertex": True, "clause_pairs": True, "failures": []}
    for c in cliques:
        if not G.is_clique(c):
            report["clause_edges"] = False
            report["failures"].append(f"{c} is not a clique")
    covered = set()
    for c in cliques:
        covered.update((min(u, v), max(u, v)) for i, u in enumerate(c) for v in c[i + 1:])
    missing = [e for e in G.edges() if e not in covered]
    if missing:
        report["clause_edges"] = False
        report["failures"].append(f"uncovered edges: {missing[:5]}")

    containing = {v: [c for c in cliques if v in c] for v in range(G.n)}
    for v in range(G.n):
        mine = containing[v]
        if len(mine) > 3:
            report["clause_vertex"] = False
            report["failures"].append(f"vertex {v} lies in {len(mine)} cover cliques")
        big_maximal = sum(1 for c in mine if len(c) >= q and _is_maximal_clique(G, c))
        if big_maximal < 2:
            report["clause_vertex"] = False
            report["failures"].append(
                f"vertex {v} lies in {big_maximal} maximal cover cliques of order >= {q}"
            )
    for i, c1 in enumerate(cliques):
        for c2 in cliques[i + 1:]:
            inter = sorted(set(c1) & set(c2))
            if len(inter) < 2:
                continue
            if len(inter) > 2:
                report["clause_pairs"] = False
                report["failures"].append(f"{c1} and {c2} share {len(inter)} vertices")
                continue
            for v in inter:
                if len(containing[v]) != 2:
                    report["clause_pairs"] = False
                    report["failures"].append(
                        f"shared vertex {v} lies in {len(containing[v])} cover cliques"
                    )
    report["passed"] = report["clause_edges"] and report["clause_vertex"] and report["clause_pairs"]
    return report


def _is_maximal_clique(G: Graph, c: Sequence[int]) -> bool:
    common = (1 << G.n) - 1
    for v in c:
        common &= G.bits(v)
    return common == 0


def find_line_structure(G: Graph, q: int, node_budget: int = 10**6) -> Optional[CliqueSet]:
    """Search for a clique cover passing :func:`verify_clique_cover`.

    Candidates are the maximal cliques of G plus all single edges; the
    backtracking prefers larger cliques, so the first cover found is small.
    Success is certified by the verifier; ``None`` means the search space was
    exhausted, and budget exhaustion (inconclusive) raises
    :class:`SearchBudgetExhausted`.
    """
    maximal = list(maximal_cliques(G))
    candidates = sorted(set(maximal) | {tuple(e) for e in G.edges()},
                        key=lambda c: (-len(c), c))
    all_edges = list(G.edges())
    chosen: list[tuple[int, ...]] = []
    per_vertex = [0] * G.n
    nodes = 0
    best: list[Optional[tuple]] = [None]

    def edge_covered(e):
        return any(e[0] in c and e[1] in c for c in chosen)

    def compatible(c):
        cset = set(c)
        if any(per_vertex[v] >= 3 for v in c):
            return False
        for other in chosen:
            if len(cset & set(other)) > 2:
                return False
        return True

    def search() -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExhausted(f"no verdict within {node_budget} nodes")
        uncovered = next((e for e in all_edges if not edge_covered(e)), None)
        if uncovered is None:
            if verify_clique_cover(G, chosen, q)["passed"]:
                best[0] = tuple(chosen)
                return True
            return False
        for c in candidates:
            if uncovered[0] in c and uncovered[1] in c and c not in chosen and compatible(c):
                chosen.append(c)
                for v in c:
                    per_vertex[v] += 1
                if search():
                    return True
                chosen.pop()
                for v in c:
                    per_vertex[v] -= 1
        return False

    if G.edge_count() == 0:
        return None
    if search():
        return CliqueSet(tuple(sorted(best[0])))
    return None


# -- small common-neighborhood vertex ---------------------------------------------------

def lemma9_vertex(G: Graph) -> Optional[int]:
    """Smallest vertex whose common neighborhood with every non-neighbor is <= 9."""
    for u in range(G.n):
        au = G.bits(u)
        if all(
            (au & G.bits(v)).bit_count() <= 9
            for v in range(G.n)
            if v != u and not (au >> v) & 1
        ):
            return u
    return None


# -- full structural condition check ------------------------------------------------------

def theorem_intro2_check(G: Graph, c: int, limit: int = 100_000) -> dict:
    """Evaluate the three structure-theorem hypotheses and, when they hold,
    the conclusion-side invariants of the associated Hoffman graph.

    Conditions: (i) at most c common neighbors over non-adjacent pairs;
    (ii) every maximal clique C has order at most min over x in C of
    d(x) - K; (iii) smallest eigenvalue >= -3, decided exactly.  When all
    three hold the associated Hoffman graph at level q is built, 2-fatness is
    asserted, and its special matrix is scanned for forbidden principal
    submatrices at t = 2.
    """
    th = thresholds(3, c)
    report: dict = {"c": c, "c_tilde": th.c_tilde, "q": th.q, "K": th.K}

    mu = mu_parameter(G)
    report["condition_mu"] = {"passed": mu <= c, "mu": mu}

    violations = []
    for clique in maximal_cliques(G, limit=limit):
        min_deg = min(G.degree(x) for x in clique)
        if len(clique) > min_deg - th.K:
            violations.append({"clique": list(clique), "min_degree": min_deg})
    report["condition_clique_order"] = {"passed": not violations, "violations": violations[:10]}

    report["condition_lambda_min"] = {
        "passed": is_psd_exact(adjacency_rational(G).shifted(3)),
        "lambda_min_float": graph_lambda_min_float(G),
        "exact": True,
    }

    if all(report[k]["passed"] for k in
           ("condition_mu", "condition_clique_order", "condition_lambda_min")):
        assoc = associated_hoffman(G, th.q, limit=limit)
        two_fat = is_t_fat(assoc.hoffman, 2)
        hit = scan_M_t(special_matrix(assoc.hoffman), 2)
        report["associated"] = {
            "fats": assoc.hoffman.n_fat,
            "two_fat": two_fat,
            "forbidden_hit": None if hit is None else {
                "slim_subset": list(hit.slim_subset),
                "family_member": hit.family_member,
            },
            "passed": two_fat and hit is None,
        }
    else:
        report["associated"] = None
    report["passed"] = all(
        report[k]["passed"] for k in
        ("condition_mu", "condition_clique_order", "condition_lambda_min")
    ) and (report["associated"] is None or report["associated"]["passed"])
    return report
