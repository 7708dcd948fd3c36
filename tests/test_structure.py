"""Associated Hoffman graphs, thresholds, clique extraction, the structure check."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from hoffman import (
    BoundViolation,
    CliqueExtraction,
    Graph,
    adjacency_rational,
    associated_hoffman,
    bose_laskar,
    complete_graph,
    cycle_graph,
    maximal_cliques,
    maximum_independent_set,
    mu_parameter,
    n1_threshold,
    n2_threshold,
    psd_witness,
    theorem_intro2_check,
    thresholds,
)
from .conftest import is_clique, line_graph_of_complete, petersen_graph, random_graph


# -- associated Hoffman graphs -----------------------------------------------------

def test_assoc_complete_graph():
    h = associated_hoffman(complete_graph(5), 3)
    assert h.n_fat == 1
    assert [sorted(f) for f in h.fat_neighbors] == [[0, 1, 2, 3, 4]]


def test_assoc_two_triangles_shared_vertex():
    G = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    h = associated_hoffman(G, 3)
    assert h.n_fat == 2
    assert h.fat_degree(0) == 2


def test_assoc_cycle_has_no_fats():
    assert associated_hoffman(cycle_graph(5), 3).n_fat == 0


def test_assoc_requires_q_at_least_two():
    with pytest.raises(ValueError):
        associated_hoffman(complete_graph(3), 1)


def test_assoc_invariants_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(40):
        G = random_graph(rng, rng.randint(3, 11), rng.uniform(0.2, 0.8))
        q = rng.choice([2, 3, 4])
        h = associated_hoffman(G, q)
        assert h.slim == G
        maximal = set(maximal_cliques(G, min_size=q))
        for f in h.fat_neighbors:
            clique = tuple(sorted(f))
            assert clique in maximal
            assert len(clique) >= q
        for f in h.fat_neighbors:
            for u in f:
                for v in f:
                    if u != v:
                        assert G.has_edge(u, v)


# -- thresholds -------------------------------------------------------------------------

def test_n1_value():
    assert n1_threshold(3) == 48


def test_intro2_constants():
    th = thresholds(3, 1)
    assert (th.q, th.K) == (66, 519)
    th6 = thresholds(3, 6)
    assert (th6.q, th6.K) == (316, 2699)


def test_n2_value():
    assert n2_threshold(4, 1, 7, 6) == 152


def test_c_tilde_general_lambda():
    th = thresholds(4, 100)
    assert th.c_tilde == 12
    assert th.q is None and th.K is None


# -- clique extraction ---------------------------------------------------------------------

def test_bose_laskar_complete_graph():
    res = bose_laskar(complete_graph(6), 0, 2, 1)
    assert res.clique1 == (0, 1, 2, 3, 4, 5)
    assert len(res.clique1) >= res.bound1


def test_bose_laskar_c5():
    res = bose_laskar(cycle_graph(5), 0, 2, 1)
    assert res.independent_set == (1, 4)
    assert res.bound1 == Fraction(3, 2)
    assert len(res.clique1) == 2


def test_bose_laskar_petersen():
    G = petersen_graph()
    res = bose_laskar(G, 0, 2, 1)
    assert res.bound1 == Fraction(3, 4) + 1
    assert len(res.clique1) == 2  # triangle-free: maximal cliques are edges


def test_bose_laskar_second_clique_on_petersen():
    G = petersen_graph()
    # every maximal clique through 0 has order 2 = d(0) - 1, so r = 1 applies
    res = bose_laskar(G, 0, 2, 1, r=1)
    assert res.second_hypothesis_holds
    assert res.clique2 is not None and len(res.clique2) == 2
    assert len(res.clique2) >= res.bound2
    assert res.clique2 != res.clique1


def test_bose_laskar_rejects_mu_above_c():
    G = complete_graph(6)
    # K6 minus an edge has mu = 4
    H = Graph(6, [e for e in G.edges() if e != (0, 1)])
    with pytest.raises(ValueError):
        bose_laskar(H, 2, 2, 1)


def test_bose_laskar_rejects_negative_lambda():
    # floor(lambda^2) would drop the sign, so -2 would act as 2
    with pytest.raises(ValueError, match="lambda must be non-negative"):
        bose_laskar(cycle_graph(5), 0, -2, 1)


def test_bose_laskar_w_bound_and_partition():
    rng = random.Random(31)
    done = 0
    while done < 60:
        G = random_graph(rng, rng.randint(4, 12), rng.uniform(0.2, 0.6))
        if psd_witness(adjacency_rational(G).shifted(3)) is not None:
            continue
        done += 1
        c = max(1, mu_parameter(G))
        x = rng.randrange(G.n)
        res = bose_laskar(G, x, 3, c)
        s = len(res.independent_set)
        assert len(res.w_set) <= math.comb(9, 2) * (c - 1)
        assert len(res.w_set) <= math.comb(s, 2) * (c - 1) if s >= 2 else len(res.w_set) == 0
        # partition covers N(x) exactly
        union = set(res.w_set)
        for part in res.parts:
            assert is_clique(G, part)
            assert union.isdisjoint(part)
            union.update(part)
        assert union == set(G.neighbors(x))


def _bose_laskar_by_sets(G, x, lam, c, r=None):
    """bose_laskar's construction on vertex sets: W, the parts and the
    largest clique through x from G.induced(N(x)), as the reference."""
    floor_l2 = math.floor(Fraction(lam) ** 2)
    nbrs = G.neighbors(x)
    ind = maximum_independent_set(G, nbrs)
    w_set = tuple(y for y in nbrs if sum(G.has_edge(y, v) for v in ind) >= 2)
    parts = sorted(
        (tuple(sorted({v} | {y for y in nbrs if G.has_edge(y, v) and y not in w_set}))
         for v in ind),
        key=lambda part: (-len(part), part[0]))

    def extend(clique):
        clique = set(clique)
        while True:
            common = [v for v in range(G.n)
                      if v not in clique and all(G.has_edge(v, u) for u in clique)]
            if not common:
                return tuple(sorted(clique))
            clique.add(common[0])

    d = len(nbrs)
    denom = math.comb(floor_l2, 2) * (c - 1)
    bound1 = Fraction(d - denom, floor_l2) + 1 if floor_l2 else Fraction(1)
    clique1 = extend((parts[0] if parts else ()) + (x,))
    if len(clique1) < bound1:
        raise BoundViolation("first clique")
    clique2 = bound2 = hypothesis = None
    if r is not None:
        largest = 1 + max((len(k) for k in maximal_cliques(G.induced(list(nbrs)))), default=0)
        hypothesis = largest <= d - r
        if hypothesis and len(ind) >= 2:
            if floor_l2 < 2:
                raise BoundViolation("independent set")
            bound2 = Fraction(r - denom + 1, floor_l2 - 1) + 1
            clique2 = extend(parts[1] + (x,))
            if len(clique2) < bound2:
                raise BoundViolation("second clique")
    return CliqueExtraction(
        x=x, independent_set=ind, w_set=w_set, parts=tuple(parts), clique1=clique1,
        bound1=bound1, clique2=clique2, bound2=bound2, second_hypothesis_holds=hypothesis)


def test_bose_laskar_matches_the_set_construction():
    rng = random.Random(57)
    outcomes = {"second clique": 0, "no second clique": 0, "violation": 0}
    for _ in range(120):
        G = random_graph(rng, rng.randint(1, 16), rng.uniform(0.1, 0.8))
        c = max(1, mu_parameter(G))
        lam = rng.choice((1, Fraction(3, 2), 2, Fraction(5, 2), 3, 3.5, 10))
        for x in range(G.n):
            for r in (None, rng.randint(1, max(1, G.degree(x)))):
                try:
                    expected = _bose_laskar_by_sets(G, x, lam, c, r)
                except BoundViolation:
                    with pytest.raises(BoundViolation):
                        bose_laskar(G, x, lam, c, r)
                    outcomes["violation"] += 1
                    continue
                assert bose_laskar(G, x, lam, c, r) == expected, (G, x, lam, c, r)
                if r is not None:
                    outcomes["no second clique" if expected.clique2 is None
                             else "second clique"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_bose_laskar_isolated_vertex():
    G = Graph(3, [(1, 2)])
    res = bose_laskar(G, 0, 2, 1)
    assert res.clique1 == (0,)


# -- full condition check --------------------------------------------------------------------

def test_intro2_eigenvalue_failure_is_exact():
    star = Graph(11, [(0, i) for i in range(1, 11)])  # lambda_min = -sqrt(10) < -3
    report = theorem_intro2_check(star, 1)
    assert not report["condition_lambda_min"]["passed"]
    assert report["condition_lambda_min"]["exact"]
    assert not report["passed"]


def test_intro2_desk_scale_clique_condition_fails():
    report = theorem_intro2_check(cycle_graph(5), 1)
    assert report["condition_mu"]["passed"]
    assert report["condition_lambda_min"]["passed"]
    assert not report["condition_clique_order"]["passed"]
    assert report["associated"] is None


def _clique_violations(G: Graph, K: int) -> list[dict]:
    """Every violation of condition (ii), over the full enumeration."""
    violations = []
    for clique in maximal_cliques(G):
        min_deg = min(G.degree(x) for x in clique)
        if len(clique) > min_deg - K:
            violations.append({"clique": list(clique), "min_degree": min_deg})
    return violations


def test_intro2_clique_condition_matches_the_full_enumeration(monkeypatch):
    import hoffman.structure as structure

    rng = random.Random(37)
    graphs = [Graph(0), Graph(3), cycle_graph(5), petersen_graph(), complete_graph(5)]
    graphs += [line_graph_of_complete(m) for m in (4, 5, 6, 7)]
    graphs += [random_graph(rng, n, p) for n in (8, 14, 20) for p in (0.1, 0.3, 0.6, 0.9)]
    kinds = set()
    # a small K leaves few violations or none; K >= 519 makes every clique one
    for K in (0, 1, 2, 3, 5, 8, 519):
        monkeypatch.setattr(structure, "thresholds",
                            lambda lam, c, K=K: dataclasses.replace(thresholds(lam, c), K=K))
        for G in graphs:
            violations = _clique_violations(G, K)
            report = theorem_intro2_check(G, 1)
            assert report["K"] == K
            assert report["condition_clique_order"] == {
                "passed": not violations, "violations": violations[:10]}, (G, K)
            total = len(violations)
            kinds.add("none" if total == 0 else "few" if total < 10 else "ten or more")
    assert kinds == {"none", "few", "ten or more"}


def test_intro2_constants_for_c6():
    report = theorem_intro2_check(complete_graph(3), 6)
    assert report["q"] == 316
    assert report["K"] == 2699


def test_intro2_vacuous_pass_on_empty_graph():
    report = theorem_intro2_check(Graph(0), 1)
    assert report["passed"]
    assert report["associated"]["fats"] == 0


def test_bose_laskar_bound_violation_when_hypothesis_fails():
    # C5 has smallest eigenvalue ~ -1.618 < -1; with lambda = 1 the certified
    # bound cannot hold and the violation is surfaced as a structured error
    with pytest.raises(BoundViolation):
        bose_laskar(cycle_graph(5), 0, 1, 1)


def test_forbidden_threshold_table_at_saturated_c():
    # with c~ = 6 the nine embedding thresholds evaluate to these values and
    # their maximum is exactly the 50*c~+16 leg of q
    values = {
        (4, 1, 7): 152, (5, 2, 7): 206, (3, 2, 13): 188, (3, 2, 5): 84,
        (2, 3, 11): 96, (4, 3, 5): 126, (4, 3, 15): 316, (6, 3, 8): 291,
        (5, 3, 11): 312,
    }
    for (phi, sigma, p), expected in values.items():
        assert n2_threshold(phi, sigma, p, 6) == expected
    assert max(values.values()) == 50 * 6 + 16


def test_bose_laskar_outputs_are_maximal_cliques():
    rng = random.Random(88)
    done = 0
    while done < 30:
        G = random_graph(rng, rng.randint(4, 11), rng.uniform(0.2, 0.6))
        if psd_witness(adjacency_rational(G).shifted(3)) is not None:
            continue
        done += 1
        c = max(1, mu_parameter(G))
        x = rng.randrange(G.n)
        res = bose_laskar(G, x, 3, c)
        assert x in res.clique1
        assert is_clique(G, res.clique1)
        outside = set(range(G.n)) - set(res.clique1)
        assert not any(
            all(G.has_edge(v, w) for w in res.clique1) for v in outside
        )


def test_bose_laskar_past_the_recursion_limit():
    # the independent-set search in N(0) and the clique search through 0 each
    # follow one path of about 1100 frames; the one clique has order
    # 1100 > d(0) - r = 1098, so the second clique's hypothesis fails
    res = bose_laskar(complete_graph(1100), 0, 3, 1, r=1)
    assert res.independent_set == (1,)
    assert res.clique1 == tuple(range(1100))
    assert res.second_hypothesis_holds is False
    assert res.clique2 is None
