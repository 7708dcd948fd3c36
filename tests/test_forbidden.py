"""Forbidden-submatrix scanning and the exact expansion certificates."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hoffman import (
    ForbiddenHit,
    Graph,
    NotEquitable,
    RationalMatrix,
    VerificationError,
    adjacency_rational,
    associated_hoffman,
    catalog,
    certify_lambda_min_below,
    clique_with_two_fats,
    complete_graph,
    cycle_graph,
    eigenvalues_float,
    expand,
    expansion_blocks,
    graph_lambda_min_float,
    graph_quadratic_form,
    graph_quotient_matrix,
    m_matrix,
    pendant_slim_pair,
    prop215,
    psd_witness,
    scan_M_t,
    slim_with_fats,
    special_matrix,
    twin_classes,
    verify_proposition_cal,
)
from hoffman.forbidden import PROP_CAL_PAIRS, _lift_quotient_witness, _Quotient, _TwinSplit
from hoffman.hgraphs import HoffmanGraph

from .conftest import (
    count_calls,
    fraction_rows,
    line_graph_of_complete,
    permutation_equivalent,
    petersen_graph,
    planted_twin_graph,
    quadratic_form,
    quotient_matrix,
    random_graph,
)


# -- permutation equivalence ---------------------------------------------------

def test_permutation_equivalence_basic():
    a = ((-2, 1, 0), (1, -2, 1), (0, 1, -2))
    assert permutation_equivalent(a, m_matrix(8, t=2))
    assert not permutation_equivalent(a, m_matrix(9, t=2))
    assert not permutation_equivalent(((0,),), ((0, 0), (0, 0)))


# -- scanning ----------------------------------------------------------------------

def test_scan_order_one_hit():
    hit = scan_M_t(RationalMatrix(((-4,),)), 2)
    assert hit is not None
    assert hit.family_member == "m_{1,-2}"
    assert hit.slim_subset == (0,)


def test_scan_no_hit_on_minus_three():
    assert scan_M_t(RationalMatrix(((-3,),)), 2) is None


def test_scan_order_three_hit():
    S = ((-2, 0, 1), (0, -2, -1), (1, -1, -2))
    hit = scan_M_t(RationalMatrix(S), 2)
    assert hit is not None
    assert hit.family_member == "m_7"
    assert hit.witness_matrix == S


def test_scan_order_two_families():
    assert scan_M_t(RationalMatrix(((-2, -2), (-2, -2))), 2).family_member == "m_{2,-2}"
    assert scan_M_t(RationalMatrix(((-3, 1), (1, -2))), 2).family_member == "m_{3,1}"
    assert scan_M_t(RationalMatrix(((-3, -4), (-4, -3))), 2).family_member == "m_{4,-4}"
    assert scan_M_t(RationalMatrix(((-2, -1), (-1, -2))), 2) is None
    assert scan_M_t(RationalMatrix(((-2, 1), (1, -2))), 2) is None


def test_scan_deterministic_first_hit():
    # two possible hits; the lexicographically first index set wins
    S = RationalMatrix(((-4, 0, 0), (0, -4, 0), (0, 0, -2)))
    hit = scan_M_t(S, 2)
    assert hit.slim_subset == (0,)


def test_scan_requires_positive_t():
    with pytest.raises(ValueError):
        scan_M_t(RationalMatrix(((-4,),)), 0)


def test_scan_hits_every_h_catalog_member():
    for entry in catalog("H"):
        hit = scan_M_t(special_matrix(entry.hoffman), 2)
        assert hit is not None, entry.id


def test_scan_clears_every_g2_member():
    for entry in catalog("G2"):
        assert scan_M_t(special_matrix(entry.hoffman), 2) is None, entry.id


# -- the brute-force scan as oracle --------------------------------------------------

def _brute_scan_M_t(S, t):
    """The scan with its order-3 step tried permutation by permutation."""
    entries = tuple(tuple(int(x) for x in row) for row in S)
    n = len(entries)
    for i in range(n):
        d = entries[i][i]
        if d <= -t - 2:
            return ForbiddenHit((i,), f"m_{{1,{d + t}}}", ((d,),))
    for i in range(n):
        for j in range(i + 1, n):
            d1, d2 = entries[i][i], entries[j][j]
            off = entries[i][j]
            sub = ((d1, off), (off, d2))
            if d1 == -t and d2 == -t and off <= -2:
                return ForbiddenHit((i, j), f"m_{{2,{off}}}", sub)
            if {d1, d2} == {-t - 1, -t} and (off == 1 or off <= -1):
                return ForbiddenHit((i, j), f"m_{{3,{off}}}", sub)
            if d1 == -t - 1 and d2 == -t - 1 and (off == 1 or off <= -1):
                return ForbiddenHit((i, j), f"m_{{4,{off}}}", sub)
    templates = [(k, m_matrix(k, t=t)) for k in (5, 6, 7, 8, 9)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                sub = tuple(tuple(entries[a][b] for b in (i, j, k)) for a in (i, j, k))
                for kind, tmpl in templates:
                    if permutation_equivalent(sub, tmpl):
                        return ForbiddenHit((i, j, k), f"m_{kind}", sub)
    return None


def _random_symmetric(rng, n, t):
    # diagonals mostly -t so that order 3 is reached; off-diagonals mostly
    # in {-1, 0, 1}, the entries of the order-3 templates
    diag = [-t - 2, -t - 1, -t + 1, 0] + [-t] * rng.randint(2, 40)
    off = [-1, 0, 1] * rng.randint(1, 12) + [-2, 2]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice(diag)
        for j in range(i):
            rows[i][j] = rows[j][i] = rng.choice(off)
    return rows


def _random_sparse_symmetric(rng, n, t):
    # mostly -t on the diagonal and 0 off it, so that orders up to 30 still
    # reach order 3, with many -t rows and every value class of the templates
    diag = [-t - 2, -t - 1, -t + 1, 0] + [-t] * rng.randint(20, 400)
    off = [-2, 2, -1, 1] + [-1, 1] * rng.randint(0, 6) + [0] * rng.randint(20, 800)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice(diag)
        for j in range(i):
            rows[i][j] = rows[j][i] = rng.choice(off)
    return rows


def test_scan_matches_brute_oracle_on_random_matrices():
    rng = random.Random(2024)
    orders = {1: 0, 2: 0, 3: 0, None: 0}
    for _ in range(3000):
        t = rng.choice((1, 2, 3))
        S = _random_symmetric(rng, rng.randint(1, 9), t)
        expected = _brute_scan_M_t(S, t)
        assert scan_M_t(RationalMatrix(S), t) == expected, (S, t)
        orders[expected and len(expected.slim_subset)] += 1
    # no hit, and a first hit of each order, all occur at least 100 times
    assert min(orders.values()) >= 100, orders

    wide = {1: 0, 2: 0, 3: 0, None: 0}
    minus_t_rows = []
    for _ in range(100):
        t = rng.choice((1, 2, 3))
        S = _random_sparse_symmetric(rng, rng.randint(10, 30), t)
        expected = _brute_scan_M_t(S, t)
        assert scan_M_t(RationalMatrix(S), t) == expected, (S, t)
        wide[expected and len(expected.slim_subset)] += 1
        if expected is None or len(expected.slim_subset) == 3:
            minus_t_rows.append(sum(S[i][i] == -t for i in range(len(S))))
    # at orders 10..30 each outcome occurs too, and the order-3 step sees
    # many -t rows: about 17 on average
    assert min(wide.values()) >= 10, wide
    assert sum(minus_t_rows) >= 12 * len(minus_t_rows), minus_t_rows


def test_scan_matches_brute_oracle_on_catalog():
    for family in ("H", "G2"):
        for entry in catalog(family):
            S = special_matrix(entry.hoffman)
            for t in (1, 2, 3):
                assert scan_M_t(S, t) == _brute_scan_M_t(S.num.tolist(), t), (entry.id, t)


def _line_graph(base: Graph) -> Graph:
    edges = list(base.edges())
    return Graph(len(edges), [
        (a, b) for a in range(len(edges)) for b in range(a)
        if set(edges[a]) & set(edges[b])
    ])


def test_scan_matches_brute_oracle_on_associated_line_graphs():
    rng = random.Random(31)
    for _ in range(8):
        base = random_graph(rng, rng.randint(6, 10), 0.45)
        S = special_matrix(associated_hoffman(_line_graph(base), 4))
        for t in (1, 2, 3):
            assert scan_M_t(S, t) == _brute_scan_M_t(S.num.tolist(), t), t


def test_scan_order_three_first_hit_among_other_diagonals():
    # diagonal -t at 0, 2, 4, 5 with -t + 1 and 0 interleaved; m_7 on
    # (0, 2, 4) comes before m_8 on (0, 4, 5) and m_6 on (2, 4, 5)
    t = 2
    S = [[0] * 6 for _ in range(6)]
    for i, d in enumerate((-t, -t + 1, -t, 0, -t, -t)):
        S[i][i] = d
    for (i, j), v in {(0, 4): 1, (2, 4): -1, (2, 5): 1, (4, 5): 1, (1, 3): 1}.items():
        S[i][j] = S[j][i] = v
    hit = scan_M_t(RationalMatrix(S), t)
    assert hit == _brute_scan_M_t(S, t)
    assert hit.slim_subset == (0, 2, 4)
    assert hit.family_member == "m_7"
    assert hit.witness_matrix == ((-2, 0, 1), (0, -2, -1), (1, -1, -2))


@pytest.mark.parametrize("t", [1, 2, 3])
def test_scan_order_three_needs_every_diagonal_minus_t(t):
    for kind in (5, 6, 7, 8, 9):
        for pos in range(3):
            for d in (-t + 1, 0, 1):
                S = [list(row) for row in m_matrix(kind, t=t)]
                S[pos][pos] = d
                assert scan_M_t(RationalMatrix(S), t) is None, (kind, pos, d)
                assert _brute_scan_M_t(S, t) is None


@pytest.mark.parametrize("t", range(1, 7))
def test_order_three_templates_are_keyed_by_sorted_off_diagonal(t):
    keys = set()
    for kind in (5, 6, 7, 8, 9):
        m = m_matrix(kind, t=t)
        assert (m[0][0], m[1][1], m[2][2]) == (-t, -t, -t)
        keys.add(tuple(sorted((m[0][1], m[0][2], m[1][2]))))
    assert keys == {(-1, -1, -1), (-1, 1, 1), (-1, 0, 1), (0, 1, 1), (-1, -1, 0)}


# -- exact certificates ----------------------------------------------------------------

def test_certificate_on_small_expansion():
    G = expand(catalog("h_{4,-2}").hoffman, 5)
    w = certify_lambda_min_below(G, 3)
    assert graph_quadratic_form(G, 3, w) < 0


def test_certificate_refuses_when_psd():
    assert certify_lambda_min_below(complete_graph(5), 1) is None


@pytest.mark.parametrize("t", [0, 1, Fraction(3, 2), 2, 3])
def test_certificate_verdict_matches_full_ldlt(t):
    # the graph-level decision agrees with LDL^T on the full A + tI, and each
    # refutation it returns is a witness on the graph
    rng = random.Random(f"verdict {t}")
    verdicts = set()
    for _ in range(40):
        G = random_graph(rng, rng.randint(0, 14), rng.random())
        w = certify_lambda_min_below(G, t)
        assert (w is None) == (psd_witness(adjacency_rational(G).shifted(t)) is None)
        if w is not None:
            assert graph_quadratic_form(G, t, w) < 0
        verdicts.add(w is None)
    assert verdicts == {True, False}


TWIN_SHIFTS = (Fraction(-1, 2), 0, Fraction(1, 2), 1, 2, 3)


def _twinned_graphs():
    """Planted-twin random graphs and the expansions of every catalog entry."""
    rng = random.Random("twinned graphs")
    for _ in range(40):
        yield planted_twin_graph(rng, rng.randint(0, 6), rng.random())
    for entry in (*catalog("H"), *catalog("G2"), catalog("path2fat")):
        for p in (1, 2, 5):
            yield expand(entry.hoffman, p)


def test_certificate_with_twins_matches_full_ldlt():
    # a class of two gives e_u - e_v below t = 1 (closed) or t = 0 (open);
    # otherwise the quotient's block form decides, and its lift refutes
    kinds = set()
    for G in _twinned_graphs():
        for t in TWIN_SHIFTS:
            w = certify_lambda_min_below(G, t)
            assert (w is None) == (psd_witness(adjacency_rational(G).shifted(t)) is None)
            if w is None:
                kinds.add("psd")
                continue
            assert graph_quadratic_form(G, t, w) < 0
            support = [v for v, x in enumerate(w) if x]
            if len(support) == 2 and w[support[0]] == -w[support[1]] == 1:
                kinds.add("closed" if G.has_edge(*support) else "open")
            else:
                kinds.add("lifted")
    assert kinds == {"psd", "closed", "open", "lifted"}


def test_certificate_with_a_huge_denominator():
    # n_I times a shift denominator of 2^70 does not fit in int64, even on an
    # edgeless graph, whose quotient is zero
    for G in (Graph(3), Graph(1), complete_graph(4), expand(catalog("box").hoffman, 3)):
        for t in (Fraction(1, 2**70), Fraction(-1, 2**70), Fraction(2**70 + 1, 2**69)):
            w = certify_lambda_min_below(G, t)
            assert (w is None) == (psd_witness(adjacency_rational(G).shifted(t)) is None)
            if w is not None:
                assert graph_quadratic_form(G, t, w) < 0


def test_certificate_with_a_threshold_outside_the_float_range():
    # the certificate's estimate is formed only for an int64 block form, in
    # exact rationals, so no conversion to float can overflow
    assert certify_lambda_min_below(complete_graph(4), 10**400) is None
    for G in (complete_graph(4), Graph(1), line_graph_of_complete(6)):
        for t in (10**400, -10**400, Fraction(1, 10**400), Fraction(-1, 10**400)):
            w = certify_lambda_min_below(G, t)
            assert (w is None) == (psd_witness(adjacency_rational(G).shifted(t)) is None)
            if w is not None:
                assert graph_quadratic_form(G, t, w) < 0


def test_certificate_at_a_threshold_that_dominates_every_row():
    # A + tI is diagonally dominant, so PSD holds without elimination on
    # Python ints of the size of t
    G = line_graph_of_complete(14)
    for t in (2**62, 10**19, 10**40):
        assert certify_lambda_min_below(G, t) is None


def _one_pass_block_form(quotient, t, sizes):
    """diag(sizes)(Q + tI) in one pass over Q, with its own overflow bound:
    the builder the block form used before it scaled Q.shifted(t), kept
    as the oracle of the two-step build."""
    from hoffman.exact import _amax

    t = Fraction(t)
    den = math.lcm(quotient.den, t.denominator)
    scale = den // quotient.den
    shift = t.numerator * (den // t.denominator)
    num = quotient.num
    wide = num.dtype == object or (
        max(sizes, default=1) * (max(_amax(num), 1) * scale + abs(shift)) >= 2**63)
    dtype = object if wide else np.int64
    rows = np.array([n * scale for n in sizes], dtype=dtype)
    num = rows[:, None] * num.astype(dtype, copy=False)
    diagonal = np.arange(len(num))
    num[diagonal, diagonal] += np.array([n * shift for n in sizes], dtype=dtype)
    return RationalMatrix.fraction_free(num, den)


def test_block_form_matches_the_one_pass_builder(monkeypatch):
    import hoffman.forbidden as forbidden

    seen = []
    monkeypatch.setattr(forbidden, "psd_witness", lambda T, estimate: seen.append((T, estimate)))
    rng = random.Random(22)

    def entry():
        magnitude = rng.choice((0, 1, 2, 3, 2**31, 2**62, 2**62 + 1, 2**63 - 1, 2**63,
                                2**70, rng.randrange(100), rng.randrange(2**63),
                                rng.randrange(2**70)))
        return rng.choice((1, -1)) * magnitude

    kinds = {"int64": 0, "object": 0, "promoted by the sizes": 0, "estimate": 0}
    for _ in range(2400):
        r = rng.randint(1, 4)
        qden = rng.choice((1, 1, 2, 3, 2**63, rng.randrange(1, 2**64)))
        Q = RationalMatrix([[Fraction(entry(), qden) for _ in range(r)] for _ in range(r)])
        tden = rng.choice((1, 2, 2**62, 2**63, 2**64 + 1, rng.randrange(1, 2**65)))
        t = Fraction(entry(), tden)
        sizes = [rng.choice((1, 1, 2, 3, 2**10, rng.randint(1, 2**10))) for _ in range(r)]
        starts = [sum(sizes[:i]) for i in range(r)]
        blocks = [range(a, a + n) for a, n in zip(starts, sizes)]
        lambda_min = rng.choice((None, 0.5, -3.0))
        seen.clear()
        q = forbidden._Quotient(Graph(sum(sizes)), blocks, Q)
        q.lambda_min = lambda_min
        assert q.witness(t) is None
        (T, estimate), = seen
        expected = _one_pass_block_form(Q, t, sizes)
        assert T.den == expected.den
        assert T.num.dtype == expected.num.dtype
        assert np.array_equal(T.num, expected.num)
        assert (estimate is None) == (lambda_min is None or T.num.dtype == object)
        if estimate is not None:
            assert math.isfinite(estimate)
            kinds["estimate"] += 1
        kinds["int64" if T.num.dtype == np.int64 else "object"] += 1
        if Q.shifted(t).num.dtype == np.int64 and T.num.dtype == object:
            kinds["promoted by the sizes"] += 1
    assert min(kinds.values()) > 20, kinds


@pytest.mark.parametrize("G", [
    *(line_graph_of_complete(m) for m in (5, 6, 7)),
    *(cycle_graph(n) for n in (5, 6, 7, 8, 9)),
    petersen_graph(),
], ids=lambda G: repr(G))
def test_twin_free_witness_is_the_full_matrix_one(G):
    assert twin_classes(G) == tuple((v,) for v in range(G.n))
    refuted = 0
    for t in (*TWIN_SHIFTS, Fraction(3, 2)):
        full = psd_witness(adjacency_rational(G).shifted(t))
        assert certify_lambda_min_below(G, t) == full
        refuted += full is not None
    assert refuted


def _threshold_expansions(s):
    """The three Prop. 2.15 expansions at s with their stated partitions."""
    p1 = s * (s - 1) + 1
    p2 = (s - 1) * (2 * s - 1) + 1
    p3 = (s + 1) * (s - 1) ** 2 + 1
    g1 = expand(slim_with_fats(s + 1), p1)
    g2 = expand(clique_with_two_fats(s), p2)
    g3 = expand(pendant_slim_pair(s), p3)
    return [
        (g1, [[0], list(range(1, g1.n))]),
        (g2, [list(range(s)), list(range(s, g2.n))]),
        (g3, [[0], [1], list(range(2, g3.n))]),
    ]


def _expansion_cases():
    for name, p in PROP_CAL_PAIRS:
        h = catalog(name).hoffman
        yield f"{name}, p={p}", expand(h, p), 3, expansion_blocks(h, p)
    for s in (2, 3, 4):
        for k, (G, P) in enumerate(_threshold_expansions(s)):
            yield f"prop215 s={s} #{k + 1}", G, s, P


def _lift(G, t, blocks):
    """The witness lifted from a stated partition, as prop215 forms it."""
    return _lift_quotient_witness(_Quotient(G, blocks, graph_quotient_matrix(G, blocks)), t)


def test_lifted_witness_agrees_with_dense_ldlt():
    # the lifted witness is checked against the dense matrix form, and LDL^T
    # on the full A + tI (the route the lift replaced) must refute PSD too
    for label, G, t, P in _expansion_cases():
        x = _lift(G, t, P)
        A = adjacency_rational(G).shifted(t)
        assert quadratic_form(A, x) < 0, label
        assert quadratic_form(A, x) == graph_quadratic_form(G, t, x), label
        assert psd_witness(A) is not None, label


def test_lift_refuses_when_psd():
    # A + 3I is exactly PSD for (h_5, p = 10): no witness of any kind exists
    h = catalog("h_5").hoffman
    G, P = expand(h, 10), expansion_blocks(h, 10)
    with pytest.raises(VerificationError):
        _lift(G, 3, P)


def test_expansion_blocks_are_equitable():
    # the blocks follow expand's vertex numbering: singletons, then p-cliques
    for name in ("h_{3,1}", "h_6", "h_7", "h_8^{(2)}"):
        h = catalog(name).hoffman
        assert h.n_fat >= 2, name
        for p in (1, 2, 5):
            G = expand(h, p)
            P = expansion_blocks(h, p)
            assert [len(b) for b in P] == [1] * h.n_slim + [p] * h.n_fat
            Q = graph_quotient_matrix(G, P)
            assert Q == quotient_matrix(adjacency_rational(G), P), (name, p)
            rows = fraction_rows(Q)
            for k, f in enumerate(h.fat_neighbors):
                clique = h.n_slim + k
                assert rows[clique][clique] == p - 1
                assert [rows[v][clique] for v in range(h.n_slim)] == [
                    p if v in f else 0 for v in range(h.n_slim)
                ]


def test_graph_quotient_matches_dense_quotient():
    G = expand(slim_with_fats(3), 3)
    P = [[0], list(range(1, G.n))]
    assert graph_quotient_matrix(G, P) == quotient_matrix(adjacency_rational(G), P)
    assert graph_quotient_matrix(G, P) == RationalMatrix([[0, 9], [1, 2]])
    with pytest.raises(NotEquitable):
        graph_quotient_matrix(cycle_graph(4), [[0], [1, 2, 3]])


# -- the nine expansion inequalities ------------------------------------------------------

def test_prop_cal_pairs_fixed():
    assert PROP_CAL_PAIRS == (
        ("h_{1,-2}", 7), ("h_{3,1}", 7), ("h_{3,-1}", 13), ("h_{4,-2}", 5),
        ("h_5", 11), ("h_6", 5), ("h_7", 15), ("h_8^{(1)}", 8), ("h_8^{(2)}", 11),
    )


def test_verify_proposition_cal_certifies_all_nine():
    results = verify_proposition_cal()
    assert len(results) == 9
    for entry in results:
        assert entry["exact_verdict"]
        assert entry["lambda_min_float"] < -3 + 1e-7


def test_cal_pairs_are_refuted_by_the_twin_split_and_by_the_expansion_quotient():
    # the twin split that cal decides on, and the stated expansion partition
    # that it lifted from before, refute lambda_min >= -3 on each pair
    for name, p in PROP_CAL_PAIRS:
        h = catalog(name).hoffman
        G = expand(h, p)
        w = certify_lambda_min_below(G, 3)
        assert w is not None and graph_quadratic_form(G, 3, w) < 0, name
        P = expansion_blocks(h, p)
        x = _lift(G, 3, P)
        assert graph_quadratic_form(G, 3, x) < 0, name


def _count_certificate_work(monkeypatch):
    import hoffman.exact as exact
    import hoffman.forbidden as forbidden
    import hoffman.graphs as graphs

    def order(M):
        return M.order if hasattr(M, "order") else len(M)

    return {
        "eigensolves": count_calls(monkeypatch, exact, "eigenvalues_float", order),
        "twin splits": count_calls(monkeypatch, graphs, "twin_classes", lambda G: G.n),
        "quotients": count_calls(monkeypatch, forbidden, "graph_quotient_matrix",
                                 lambda G: G.n),
        "lifts": count_calls(monkeypatch, forbidden, "_lift_quotient_witness", lambda q: q.G.n),
    }


def test_cal_splits_once_and_solves_once_per_pair(monkeypatch):
    work = _count_certificate_work(monkeypatch)
    results = verify_proposition_cal()
    assert {k: len(v) for k, v in work.items()} == {
        "eigensolves": 9, "twin splits": 9, "quotients": 0, "lifts": 0}
    assert work["twin splits"] == [entry["vertices"] for entry in results]


def test_prop215_solves_twice_per_expansion(monkeypatch):
    # the stated quotient's float and the graph's float; the lift's block form
    # takes its estimate from the stated quotient's float and does not solve again
    work = _count_certificate_work(monkeypatch)
    for s in range(2, 6):
        prop215(s)
    assert len(work["eigensolves"]) == 24
    assert len(work["lifts"]) == 12
    assert len(work["quotients"]) == 12


# -- threshold expansions ------------------------------------------------------------------

def test_prop215_values_and_quotients():
    r = prop215(2)
    assert (r["p1"], r["p2"], r["p3"]) == (3, 4, 4)
    hub = r["checks"][0]
    assert hub["quotient"] == [["0", "9"], ["1", "2"]]
    assert hub["det_shifted"] == "-1"
    # closed-form smallest quotient eigenvalue: (p1 - 1 - sqrt((p1+1)^2 + 4 s p1)) / 2
    expected = (3 - 1 - math.sqrt(16 + 24)) / 2
    assert abs(hub["quotient_lambda_min"] - expected) < 1e-9

    r3 = prop215(3)
    assert (r3["p1"], r3["p2"], r3["p3"]) == (7, 11, 17)
    clique = r3["checks"][1]
    s, p2 = 3, 11
    expected2 = (s + p2 - 2 - math.sqrt((s + p2) ** 2 + 4 * p2 * s)) / 2
    assert abs(clique["quotient_lambda_min"] - expected2) < 1e-9


def test_prop215_quotient_minimum_not_below_graph_minimum():
    # the quotient's eigenvalues are eigenvalues of the graph, so the floating
    # evidence must agree; the exact verdict rests on det_shifted and the witness
    compared = 0
    for s in range(2, 7):
        for chk in prop215(s)["checks"]:
            if chk["graph_lambda_min"] is not None:
                assert chk["quotient_lambda_min"] >= chk["graph_lambda_min"] - 1e-7, (s, chk)
                compared += 1
    assert compared > 0


def test_prop215_rejects_small_s():
    with pytest.raises(ValueError):
        prop215(1)


def test_prop215_second_construction_matches_h5():
    # the s = 3 clique-with-two-fats expansion at p2 = 11 is the same graph
    # as the catalog pair (h_5, 11)
    assert expand(catalog("h_5").hoffman, 11) == expand(clique_with_two_fats(3), 11)


# -- minimal expansion parameter -------------------------------------------------------------

def find_min_p_below(h, threshold: float, p_max: int):
    """Smallest p <= p_max with lambda_min(G(h, p)) < threshold - 1e-9, by the floating solver."""
    for p in range(1, p_max + 1):
        lm = graph_lambda_min_float(expand(h, p))
        if lm is None:
            raise ValueError(f"G(h, {p}) is empty or above the floating solver's limit")
        if lm < threshold - 1e-9:
            return p
    return None


def test_find_min_p_below_never_for_single_fat():
    assert find_min_p_below(slim_with_fats(1), -2, 50) is None


def test_find_min_p_below_minimal_values():
    assert find_min_p_below(catalog("h_{4,-2}").hoffman, -3, 20) == 5
    assert find_min_p_below(catalog("h_6").hoffman, -3, 20) == 5
    # at p = 10 the clique-with-two-fats expansion has -3 as an exact
    # eigenvalue (A + 3I is PSD), so the strict inequality starts at 11
    assert psd_witness(adjacency_rational(expand(catalog("h_5").hoffman, 10)).shifted(3)) is None
    assert find_min_p_below(catalog("h_5").hoffman, -3, 20) == 11


def test_find_min_p_below_irrational_threshold():
    # frozen from the eigensolver: first p with lambda_min < -2 - sqrt(2) + 1/10
    threshold = -2 - math.sqrt(2) + 0.1
    assert find_min_p_below(catalog("h_7").hoffman, threshold, 100) == 77


def test_find_min_p_below_raises_beyond_float_limit(monkeypatch):
    import hoffman.exact as exact

    # G(h_5, p) has 2p + 3 vertices and first drops below -3 at p = 11, so a
    # limit of 13 vertices runs out at p = 6, before the threshold is crossed
    monkeypatch.setattr(exact, "FLOAT_ORDER_LIMIT", 13)
    with pytest.raises(ValueError, match=r"G\(h, 6\)"):
        find_min_p_below(catalog("h_5").hoffman, -3, 20)


def test_scan_rejects_non_integer_matrix():
    # truncating -9/2 to -4 would report an m_{1,-2} hit whose witness
    # matrix ((-4,),) is not a submatrix of the input
    with pytest.raises(ValueError, match="integer"):
        scan_M_t(RationalMatrix([[Fraction(-9, 2)]]), 2)
    with pytest.raises(ValueError, match="integer"):
        scan_M_t(RationalMatrix([[-2, Fraction(1, 2)], [Fraction(1, 2), -2]]), 2)


def _edge_quadratic_form(G, t, x):
    """x^T (A + tI) x as the plain integer sum over the edges (the oracle)."""
    xs = [Fraction(v) for v in x]
    t = Fraction(t)
    scale = math.lcm(*(v.denominator for v in xs))
    ys = [v.numerator * (scale // v.denominator) for v in xs]
    edge_sum = sum(ys[u] * ys[v] for u, v in G.edges())
    square_sum = sum(y * y for y in ys)
    return Fraction(2 * t.denominator * edge_sum + t.numerator * square_sum,
                    t.denominator * scale * scale)


# negative shifts and shifts with a denominator other than 1 among them
FORM_SHIFTS = (Fraction(3), Fraction(0), Fraction(-2), Fraction(-5, 3), Fraction(7, 4))


def _form_vector(rng, n, values):
    """A vector of length n whose entries are all distinct, repeat a few values, or vanish."""
    if values == "zero":
        return [Fraction(0)] * n
    if values == "distinct":
        x = [Fraction(v, 6) for v in rng.sample(range(-4 * n - 4, 4 * n + 4), n)]
        assert len(set(x)) == n
        return x
    pool = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            for _ in range(3)] + [Fraction(0)]
    return [rng.choice(pool) for _ in range(n)]


def test_graph_form_matches_matrix_form():
    # orders up to 130, so the neighborhood bitsets span several machine words
    rng = random.Random(12)
    for trial in range(24):
        G = random_graph(rng, rng.randint(0, 130), rng.random())
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        x = _form_vector(rng, G.n, ("zero", "distinct", "repeated")[trial % 3])
        value = graph_quadratic_form(G, t, x)
        assert isinstance(value, Fraction)
        assert value == quadratic_form(adjacency_rational(G).shifted(t), x)


@pytest.mark.parametrize("values", ["distinct", "repeated", "zero"])
def test_graph_form_matches_edge_sum(values):
    rng = random.Random(f"form {values}")
    orders = [0, 1, 2, 63, 64, 65, 127, 128, 129, 130] + [rng.randint(0, 130) for _ in range(10)]
    for n in orders:
        G = random_graph(rng, n, rng.random())
        x = _form_vector(rng, n, values)
        for t in FORM_SHIFTS:
            assert graph_quadratic_form(G, t, x) == _edge_quadratic_form(G, t, x), (n, t)


def test_graph_form_matches_edge_sum_on_lifted_witnesses():
    # block-constant vectors on expansions of up to 2025 vertices
    for s in (5, 6, 7):
        for G, P in _threshold_expansions(s):
            x = _lift(G, s, P)
            value = graph_quadratic_form(G, s, x)
            assert value < 0
            assert value == _edge_quadratic_form(G, s, x), (s, G.n)


# -- the block-level re-check of a lifted witness ----------------------------------------------

def _assert_block_form_agrees(monkeypatch, q, t, y=None, label=None):
    """The value q.witness(t)'s re-check computed on the value classes, once
    it equals graph_quadratic_form and the dense form on the lift that
    q.witness returns.  With ``y`` the block form's witness is replaced by
    ``y``, and a nonnegative value is let through so that the lift can still
    be compared."""
    import hoffman.forbidden as forbidden

    original = forbidden._form_by_class
    values = []

    def recorded(G, t, classes, scale):
        values.append(original(G, t, classes, scale))
        return values[-1] if y is None else Fraction(-1)

    with monkeypatch.context() as m:
        m.setattr(forbidden, "_form_by_class", recorded)
        if y is not None:
            m.setattr(forbidden, "psd_witness", lambda T, estimate: list(y))
        x = q.witness(t)
    [value] = values
    assert value == graph_quadratic_form(q.G, t, x), label
    assert value == quadratic_form(adjacency_rational(q.G).shifted(t), x), label
    return value


def test_block_recheck_agrees_on_the_expansions(monkeypatch):
    # the nine cal pairs through their twin split and their stated partition,
    # and the three prop215 expansions at s = 2..5
    cases = [(f"{name}, p={p}", expand(catalog(name).hoffman, p), 3,
              expansion_blocks(catalog(name).hoffman, p)) for name, p in PROP_CAL_PAIRS]
    cases += [(f"prop215 s={s} #{k + 1}", G, s, P)
              for s in (2, 3, 4, 5) for k, (G, P) in enumerate(_threshold_expansions(s))]
    for label, G, t, P in cases:
        for q in (_Quotient(G, P, graph_quotient_matrix(G, P)), _TwinSplit(G)):
            assert _assert_block_form_agrees(monkeypatch, q, t, label=label) < 0, label


def _random_expansion(rng):
    """A random Hoffman graph's expansion with its equitable expansion blocks."""
    n_slim = rng.randint(1, 5)
    edges = [(u, v) for u in range(n_slim) for v in range(u + 1, n_slim) if rng.random() < 0.5]
    fats = [rng.sample(range(n_slim), rng.randint(1, n_slim)) for _ in range(rng.randint(0, 4))]
    h = HoffmanGraph(n_slim, edges, fats)
    p = rng.randint(1, 6)
    return expand(h, p), expansion_blocks(h, p)


def test_block_recheck_agrees_with_repeated_and_zero_block_values(monkeypatch):
    # random equitable partitions, from expansions and from twin splits, with
    # block values drawn from two nonzero values and zero, so value classes
    # merge blocks and skip the zero ones
    rng = random.Random("block re-check")
    merged = zeros = 0
    for trial in range(120):
        if trial % 2:
            G, P = _random_expansion(rng)
            q = _Quotient(G, P, graph_quotient_matrix(G, P))
        else:
            q = _TwinSplit(planted_twin_graph(rng, rng.randint(1, 6), rng.random()))
        pool = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                for _ in range(2)] + [Fraction(0)]
        y = [rng.choice(pool) for _ in q.blocks]
        merged += len({v for v in y if v}) < sum(map(bool, y))
        zeros += y.count(0) > 0
        t = Fraction(rng.randint(-3, 5), rng.randint(1, 3))
        _assert_block_form_agrees(monkeypatch, q, t, y, label=trial)
    assert merged > 10 and zeros > 10


def test_block_recheck_refuses_a_tampered_block_value(monkeypatch):
    # one block value of the genuine witness scaled by 10^6: the block form
    # is dominated by its positive diagonal entry there, so the re-check on
    # the graph must refuse it
    import hoffman.forbidden as forbidden

    G = expand(catalog("h_5").hoffman, 11)
    q = _TwinSplit(G)
    genuine = forbidden.psd_witness
    sent = []

    def tampered(T, estimate):
        y = genuine(T, estimate)
        i = next(i for i, v in enumerate(y) if v)
        y[i] *= 10**6
        sent.append(y)
        return y

    monkeypatch.setattr(forbidden, "psd_witness", tampered)
    with pytest.raises(VerificationError, match="witness failed re-verification"):
        q.witness(3)
    x = [Fraction(0)] * G.n
    for block, v in zip(q.blocks, sent[0]):
        for u in block:
            x[u] = v
    assert graph_quadratic_form(G, 3, x) >= 0


def test_twin_gap_witness_is_rechecked(monkeypatch):
    # K_3 has one closed class, so e_0 - e_1 refutes below t = 1 before any
    # block form is decided; that witness is re-checked on the graph too
    import hoffman.forbidden as forbidden

    G = complete_graph(3)
    assert certify_lambda_min_below(G, Fraction(1, 2)) == [1, -1, 0]
    monkeypatch.setattr(forbidden, "_form_by_class", lambda G, t, classes, scale: 0)
    with pytest.raises(VerificationError, match="witness failed re-verification"):
        certify_lambda_min_below(G, Fraction(1, 2))


# -- floating evidence -----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
def test_graph_float_matches_rational_route(n):
    # orders around the byte boundaries of the bitset unpacking
    rng = random.Random(n)
    for p in (0.2, 0.5, 0.9):
        G = random_graph(rng, n, p)
        expected = eigenvalues_float(adjacency_rational(G))[0]
        assert abs(graph_lambda_min_float(G) - expected) < 1e-9


def test_graph_float_with_twins_matches_the_dense_route():
    # the twin quotient's smallest eigenvalue, with -1 and 0 for classes of two
    graphs = list(_twinned_graphs())
    graphs += [G for s in range(2, 7) for G, _ in _threshold_expansions(s)]
    for G in graphs:
        if G.n == 0:
            assert graph_lambda_min_float(G) is None
            continue
        expected = eigenvalues_float(adjacency_rational(G))[0]
        assert abs(graph_lambda_min_float(G) - expected) < 1e-9, G


def test_prop215_float_evidence_is_null_above_the_limit(monkeypatch):
    import hoffman.exact as exact

    monkeypatch.setattr(exact, "FLOAT_ORDER_LIMIT", 3)
    checks = prop215(2)["checks"]
    assert [c["vertices"] for c in checks] == [10, 10, 10]
    assert all(c["graph_lambda_min"] is None for c in checks)
    assert all(c["exact_verdict"] and c["det_shifted"] == "-1" for c in checks)
    # the quotients have at most three blocks, so their floating value stays
    assert all(c["quotient_lambda_min"] < -2 for c in checks)
