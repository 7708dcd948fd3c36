"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 2 and 5 assert published claims that exact computation
contradicts (one extra scan survivor at the boundary, and one out-of-range
value of the degree-regime bound); they are implemented as stated and fail
honestly rather than being loosened.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from hoffman import (
    RationalMatrix,
    adjacency_rational,
    associated_hoffman,
    bose_laskar,
    catalog,
    eigenvalues_float,
    expand,
    feasibility_scan,
    maximal_cliques,
    mu_parameter,
    n1_threshold,
    n2_threshold,
    p66_leading_constant,
    prop215,
    psd_witness,
    scan_M_t,
    special_matrix,
    theorem_beta_bounds,
    verify_proposition_cal,
)
from .conftest import random_graph

FIVE_CHECKS = ((7, 7), (6, 6), (5, 5), (4, 4), (3, 3))
FORBIDDEN_N2_ARGS = (
    (4, 1, 7), (5, 2, 7), (3, 2, 13), (3, 2, 5), (2, 3, 11),
    (4, 3, 5), (4, 3, 15), (6, 3, 8), (5, 3, 11),
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    print(f"[criterion {number}] PASS  {description}")


def full_catalog():
    return [e.hoffman for e in catalog("H") + catalog("G2") + (catalog("path2fat"),)]


def test_criterion_1_nine_expansion_inequalities():
    with criterion(1, "nine expansion inequalities certified exactly, < 60 s"):
        t0 = time.perf_counter()
        results = verify_proposition_cal()
        elapsed = time.perf_counter() - t0
        assert len(results) == 9
        for entry in results:
            assert entry["exact_verdict"], entry["pair"]
            assert entry["lambda_min_float"] < -3 + 1e-7, entry["pair"]
        assert max(r["vertices"] for r in results) == 63
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_2_single_check_scan_survivors():
    with criterion(2, "b=2, D=12, alpha <= 9 single-check scan survivor set"):
        t0 = time.perf_counter()
        survivors = [str(a) for a in feasibility_scan(2, 12, 9, [(6, 6)])]
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.1f} s"
        assert survivors == ["0", "1/3", "2/3", "1", "4/3", "2"], (
            f"exact scan returned {survivors}"
        )


def test_criterion_3_leading_constant():
    with criterion(3, "leading constant of the b=2 twelfth-level ratio"):
        assert p66_leading_constant(2) == 230674393235


def test_criterion_4_desk_scale_alpha_slice():
    with criterion(4, "alpha bounds for b in {2,3,4,5,9,16,25} at D=14, < 10 min"):
        t0 = time.perf_counter()
        for b in (2, 3, 4, 5, 9, 16, 25):
            survivors = feasibility_scan(b, 14, b * b * (b + 1), FIVE_CHECKS)
            root = math.isqrt(b)
            square = root * root == b
            for a in survivors:
                assert a <= b or (square and a == b + root), (b, str(a))
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"took {elapsed:.1f} s"


def test_criterion_5_degree_regime_bound_checks():
    with criterion(5, "degree-regime bound: range, tail, and monotonicity checks"):
        t0 = time.perf_counter()
        tail = 101 * theorem_beta_bounds(100, 10, 0).f
        assert tail < 1
        assert theorem_beta_bounds(2, 9, 0).f > theorem_beta_bounds(2, 10, 0).f
        assert theorem_beta_bounds(2, 9, 0).f > theorem_beta_bounds(3, 9, 0).f
        for b in range(2, 100):
            f = theorem_beta_bounds(b, 9, 0).f
            assert f < 6, f"f(9,{b}) = {f} >= 6"
        assert time.perf_counter() - t0 < 1.0


def test_criterion_6_threshold_formulas():
    with criterion(6, "threshold formulas and the q >= n2 inequality for c in 1..20"):
        assert n1_threshold(3) == 48
        for c in range(1, 21):
            ct = min(c, 6)
            q = max(c + 5, 50 * ct + 16)
            assert 50 * ct + 16 >= n1_threshold(3)
            worst = max(n2_threshold(phi, sigma, p, ct) for phi, sigma, p in FORBIDDEN_N2_ARGS)
            assert q >= worst, (c, q, worst)


def test_criterion_7a_expansion_monotonicity():
    with criterion(7, "(a) expansion eigenvalues: lower bound and monotone in p"):
        for h in full_catalog():
            base = eigenvalues_float(special_matrix(h))[0]
            previous = None
            for p in range(1, 21):
                lm = eigenvalues_float(adjacency_rational(expand(h, p)))[0]
                assert lm >= base - 1e-7
                if previous is not None:
                    assert lm <= previous + 1e-9
                previous = lm


def test_criterion_7b_clique_extraction_bounds():
    with criterion(7, "(b) extraction bounds on 1000 filtered random graphs"):
        rng = random.Random(20240809)
        accepted = 0
        while accepted < 1000:
            G = random_graph(rng, rng.randint(4, 14), rng.uniform(0.15, 0.55))
            if psd_witness(adjacency_rational(G).shifted(3)) is not None:
                continue
            accepted += 1
            c = max(1, mu_parameter(G))
            for x in range(G.n):
                res = bose_laskar(G, x, 3, c)  # raises BoundViolation on failure
                assert len(res.clique1) >= res.bound1
                # exercise the second-clique branch with the largest valid r
                d = G.degree(x)
                nbrs = G.neighbors(x)
                if nbrs:
                    biggest = 1 + max(
                        len(cl) for cl in maximal_cliques(G.induced(list(nbrs))))
                    r = d - biggest
                    if r >= 1:
                        res2 = bose_laskar(G, x, 3, c, r=r)
                        if res2.clique2 is not None:
                            assert len(res2.clique2) >= res2.bound2


def test_criterion_7c_scan_hits_and_clders():
    with criterion(7, "(c) forbidden scan hits all nine, clears all five"):
        for entry in catalog("H"):
            assert scan_M_t(special_matrix(entry.hoffman), 2) is not None, entry.id
        for entry in catalog("G2"):
            assert scan_M_t(special_matrix(entry.hoffman), 2) is None, entry.id


def test_criterion_7d_exact_float_agreement():
    with criterion(7, "(d) exact PSD agrees with the floating solver, 500 matrices"):
        rng = random.Random(424242)
        for _ in range(500):
            n = rng.randint(1, 8)
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    rows[i][j] = rows[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            M = RationalMatrix(rows)
            assert (psd_witness(M) is None) == (eigenvalues_float(M)[0] >= -1e-7)


def test_criterion_7e_associated_invariants():
    with criterion(7, "(e) associated Hoffman graph invariants, 200 random graphs"):
        rng = random.Random(777)
        for _ in range(200):
            G = random_graph(rng, rng.randint(3, 12), rng.uniform(0.2, 0.8))
            q = rng.choice([2, 3, 4])
            h = associated_hoffman(G, q)
            assert h.slim == G
            maximal = set(maximal_cliques(G, min_size=q))
            assert len(h.fat_neighbors) == len(maximal)
            for f in h.fat_neighbors:
                assert tuple(sorted(f)) in maximal
                for u in f:
                    for v in f:
                        if u != v:
                            assert G.has_edge(u, v)


def test_criterion_8_threshold_expansion_closed_forms():
    with criterion(8, "threshold expansions for s in 2..6: closed forms and certificates"):
        for s in range(2, 7):
            r = prop215(s)
            p1, p2, p3 = r["p1"], r["p2"], r["p3"]
            assert (p1, p2, p3) == (
                s * (s - 1) + 1, (s - 1) * (2 * s - 1) + 1, (s + 1) * (s - 1) ** 2 + 1)
            hub, clique, pendant = r["checks"]
            for chk in (hub, clique, pendant):
                assert chk["exact_verdict"]
                assert chk["det_shifted"] == "-1"
            assert hub["quotient"] == [["0", str((s + 1) * p1)], ["1", str(p1 - 1)]]
            assert clique["quotient"] == [
                [str(s - 1), str(2 * p2)], [str(s), str(p2 - 1)]]
            assert pendant["quotient"] == [
                ["0", "1", str(s * p3)], ["1", "0", "0"], ["1", "0", str(p3 - 1)]]
            lm1 = (p1 - 1 - math.sqrt((p1 + 1) ** 2 + 4 * s * p1)) / 2
            assert abs(hub["quotient_lambda_min"] - lm1) < 1e-9
            assert lm1 < -s
            lm2 = (s + p2 - 2 - math.sqrt((s + p2) ** 2 + 4 * p2 * s)) / 2
            assert abs(clique["quotient_lambda_min"] - lm2) < 1e-9
            assert lm2 < -s
