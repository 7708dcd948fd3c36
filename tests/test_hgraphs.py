"""Hoffman graphs: special matrices, expansion, catalogs."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from hoffman import (
    Graph,
    HoffmanGraph,
    IndexOutOfFamily,
    RationalMatrix,
    adjacency_rational,
    catalog,
    clique_with_two_fats,
    complete_graph,
    eigenvalues_float,
    expand,
    expansion_blocks,
    is_t_fat,
    m_matrix,
    pendant_slim_pair,
    psd_witness,
    slim_with_fats,
    special_matrix,
)

from hoffman.graphs import MAX_VERTICES

from .conftest import decompose, hoffman_isomorphic, induced_by_slim, permutation_equivalent

GOLDEN_RATIO_SHIFT = -2 - (1 + math.sqrt(5)) / 2  # smallest root of the 2x2 +1 pattern


# -- construction and validation ------------------------------------------------

def test_fat_needs_slim_neighbor():
    with pytest.raises(ValueError):
        HoffmanGraph(1, [], [[]])


def test_axioms_hold_in_underlying_graph():
    h = catalog("h_5").hoffman
    # the p = 1 expansion is the underlying graph, fat vertex k at n_slim + k
    G = expand(h, 1)
    # no two fat vertices adjacent
    for i in range(h.n_slim, G.n):
        for j in range(i + 1, G.n):
            assert not G.has_edge(i, j)


def test_json_roundtrip():
    h = catalog("h_7").hoffman
    assert HoffmanGraph.from_json(h.to_json()) == h
    with pytest.raises(ValueError):
        HoffmanGraph.from_json({"slim": 1, "fat": 2, "slim_edges": [], "fat_adj": [[0]]})


@pytest.mark.parametrize("slim_edges", [
    [[0, True]], [[0, 1.0]], [[0, "1"]], [[0]], [[0, 1, 2]], [0, 1], {"0": 1},
])
def test_json_rejects_slim_edges_that_are_not_integer_pairs(slim_edges):
    with pytest.raises(ValueError, match="'slim_edges' must be a list of"):
        HoffmanGraph.from_json({"slim": 3, "slim_edges": slim_edges, "fat_adj": [[0, 1]]})


def test_json_reports_an_integer_pair_out_of_range_as_such():
    with pytest.raises(ValueError, match="out of range"):
        HoffmanGraph.from_json({"slim": 3, "slim_edges": [[0, 3]], "fat_adj": [[0, 1]]})


def test_slim_edges_are_stored_as_a_graph():
    # repeated and reversed edges collapse; to_json lists the edges sorted
    h = HoffmanGraph(3, [(2, 1), (1, 2), (0, 1)], [[0]])
    same = HoffmanGraph(3, [(0, 1), (1, 2)], [[0]])
    assert h == same
    assert hash(h) == hash(same)
    assert h.slim == Graph(3, [(0, 1), (1, 2)])
    assert h.to_json()["slim_edges"] == [[0, 1], [1, 2]]
    assert h != HoffmanGraph(3, [(0, 1)], [[0]])


# -- special matrices --------------------------------------------------------------

def test_special_matrix_one_slim_many_fats():
    for t in (1, 2, 5):
        assert special_matrix(slim_with_fats(t)) == RationalMatrix([[-t]])


def test_special_matrix_box_and_fan():
    assert special_matrix(catalog("box").hoffman) == RationalMatrix(((-2, -1), (-1, -2)))
    assert special_matrix(catalog("fan3").hoffman) == RationalMatrix(((-3,),))


H_INTENDED_MATRICES = {
    "h_{1,-2}": m_matrix(1, -2, 2),
    "h_{3,1}": m_matrix(3, 1, 2),
    "h_{3,-1}": m_matrix(3, -1, 2),
    "h_{4,-2}": m_matrix(4, -2, 2),
    "h_5": m_matrix(5, t=2),
    "h_6": m_matrix(6, t=2),
    "h_7": m_matrix(7, t=2),
    "h_8^{(1)}": m_matrix(8, t=2),
    "h_8^{(2)}": m_matrix(8, t=2),
}


def test_catalog_transcription_matches_intended_matrices():
    for entry in catalog("H"):
        S = special_matrix(entry.hoffman).num.tolist()
        assert permutation_equivalent(S, H_INTENDED_MATRICES[entry.id]), entry.id


def _isomorphism_invariant(h):
    """Equal for isomorphic Hoffman graphs, so distinct values prove non-isomorphism."""
    return h.n_slim, h.n_fat, h.slim.edge_count(), sorted(len(f) for f in h.fat_neighbors)


def test_catalog_h_members_pairwise_nonisomorphic():
    members = catalog("H")
    for i, e1 in enumerate(members):
        for e2 in members[i + 1:]:
            assert _isomorphism_invariant(e1.hoffman) != _isomorphism_invariant(e2.hoffman)


def test_catalog_g2_special_matrices():
    expected = {
        "fan3": ((-3,),),
        "box": ((-2, -1), (-1, -2)),
        "g2_twin": ((-2, -1), (-1, -2)),
    }
    for name, matrix in expected.items():
        assert special_matrix(catalog(name).hoffman) == RationalMatrix(matrix)
    # the quad and triple members realize the +/-1 two-block pattern
    quad = special_matrix(catalog("g2_quad").hoffman).num.tolist()
    tmpl = tuple(
        tuple((1 if (i < 2) == (j < 2) else -1) - (3 if i == j else 0) for j in range(4))
        for i in range(4)
    )
    assert permutation_equivalent(quad, tmpl)


def _support_connected(S) -> bool:
    """True when the off-diagonal nonzeros of S join all its indices."""
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j, x in enumerate(S[i]):
            if x and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(S)


def test_g2_members_are_two_fat_indecomposable():
    # a Hoffman graph is decomposable exactly when the off-diagonal support of
    # its special matrix splits into blocks
    for entry in catalog("G2"):
        assert is_t_fat(entry.hoffman, 2)
        assert _support_connected(special_matrix(entry.hoffman).num.tolist()), entry.id
    # two fan3 pieces side by side: block diagonal, so decomposable
    assert not _support_connected(((-3, 0), (0, -3)))


def test_h_members_slims_sharing_fat_are_adjacent():
    for entry in catalog("H"):
        h = entry.hoffman
        slim = h.slim
        for f in h.fat_neighbors:
            for u in f:
                for v in f:
                    if u != v:
                        assert slim.has_edge(u, v), entry.id


def test_catalog_unknown_id():
    with pytest.raises(IndexOutOfFamily):
        catalog("nope")


# -- eigenvalues --------------------------------------------------------------------

def test_lambda_min_examples():
    def lambda_min(name):
        return eigenvalues_float(special_matrix(catalog(name).hoffman))[0]

    assert lambda_min("fan3") == -3.0
    assert abs(lambda_min("box") + 3.0) < 1e-12
    assert abs(lambda_min("h_{3,1}") - GOLDEN_RATIO_SHIFT) < 1e-9


def test_at_least_exact_threshold():
    box = catalog("box").hoffman
    assert psd_witness(special_matrix(box).shifted(3)) is None
    assert psd_witness(special_matrix(box).shifted(Fraction(29, 10))) is not None


# -- expansion -----------------------------------------------------------------------

def test_expand_single_fat_gives_complete_graph():
    for p in (1, 2, 5):
        assert expand(slim_with_fats(1), p) == complete_graph(p + 1)


def test_expand_box_p1_is_k4_minus_edge():
    G = expand(catalog("box").hoffman, 1)
    expected = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert G == expected
    # frozen from the eigensolver: (1 - sqrt(17)) / 2
    assert abs(eigenvalues_float(adjacency_rational(G))[0] - (1 - math.sqrt(17)) / 2) < 1e-9


def test_expand_three_fats_drops_below_minus_two():
    G = expand(slim_with_fats(3), 3)
    assert psd_witness(adjacency_rational(G).shifted(2)) is not None


def test_expand_structure_counts():
    h = catalog("h_7").hoffman
    p = 4
    G = expand(h, p)
    assert G.n == h.n_slim + p * h.n_fat
    # no edges between distinct fat cliques
    for a in range(h.n_fat):
        for b in range(a + 1, h.n_fat):
            for i in range(p):
                for j in range(p):
                    assert not G.has_edge(h.n_slim + a * p + i, h.n_slim + b * p + j)


def test_expand_requires_positive_p():
    with pytest.raises(ValueError):
        expand(catalog("box").hoffman, 0)


def _expand_by_edges(h, p):
    """G(h, p) from its edge list: slim edges, clique edges, clique-to-N(k) edges (the oracle)."""
    cliques = expansion_blocks(h, p)[h.n_slim:]
    edges = list(h.slim.edges())
    for f, block in zip(h.fat_neighbors, cliques):
        edges.extend(combinations(block, 2))
        edges.extend((s, i) for s in f for i in block)
    return Graph(h.n_slim + p * h.n_fat, edges)


@pytest.mark.parametrize("p", [1, 2, 5])
def test_expand_matches_edge_list_oracle_on_catalog(p):
    for entry in catalog("H") + catalog("G2") + (catalog("path2fat"),):
        assert expand(entry.hoffman, p)._adj == _expand_by_edges(entry.hoffman, p)._adj, entry.id


def test_expand_matches_edge_list_oracle_on_threshold_expansions():
    for s in range(2, 8):
        for h, p in ((slim_with_fats(s + 1), s * (s - 1) + 1),
                     (clique_with_two_fats(s), (s - 1) * (2 * s - 1) + 1),
                     (pendant_slim_pair(s), (s + 1) * (s - 1) ** 2 + 1)):
            assert expand(h, p)._adj == _expand_by_edges(h, p)._adj, (s, h)


def test_expand_matches_edge_list_oracle_on_random_hoffman_graphs():
    # every fourth graph has no fat vertex, one fat on every slim vertex, or
    # an isolated slim vertex, besides the plain random ones
    rng = random.Random(97)
    for trial in range(200):
        ns = rng.randint(1, 9)
        edges = [(i, j) for i in range(ns) for j in range(i + 1, ns) if rng.random() < 0.4]
        fats = [rng.sample(range(ns), rng.randint(1, ns)) for _ in range(rng.randint(1, 5))]
        kind = trial % 4
        if kind == 0:
            fats = []
        elif kind == 1:
            fats.append(list(range(ns)))
        elif kind == 2 and ns > 1:
            lone = rng.randrange(ns)
            edges = [e for e in edges if lone not in e]
            fats = [[v for v in f if v != lone] for f in fats]
            fats = [f for f in fats if f]
        h = HoffmanGraph(ns, edges, fats)
        p = rng.randint(1, 6)
        G = expand(h, p)
        assert G.n == ns + p * len(fats)
        assert G._adj == _expand_by_edges(h, p)._adj, (trial, ns, edges, fats, p)


def test_expand_over_the_vertex_limit_raises_before_building(monkeypatch):
    import hoffman.hgraphs as hgraphs

    # MAX_VERTICES + 1 vertices; the layout is never computed, so nothing is built
    def unreachable(h, p):
        raise AssertionError("expansion built past the vertex limit")

    with monkeypatch.context() as m:
        m.setattr(hgraphs, "expansion_blocks", unreachable)
        with pytest.raises(ValueError, match="10001 vertices"):
            expand(slim_with_fats(1), MAX_VERTICES)
    # the largest expansion allowed is K_{MAX_VERTICES}
    G = expand(slim_with_fats(1), MAX_VERTICES - 1)
    assert G.n == MAX_VERTICES
    assert G.edge_count() == MAX_VERTICES * (MAX_VERTICES - 1) // 2


def test_ostrowski_lower_bound_smoke():
    for entry in catalog("H")[:4]:
        base = eigenvalues_float(special_matrix(entry.hoffman))[0]
        for p in (1, 3, 6):
            G = expand(entry.hoffman, p)
            assert eigenvalues_float(adjacency_rational(G))[0] >= base - 1e-7


# -- t-fatness --------------------------------------------------------------------------

def test_is_t_fat_examples():
    assert is_t_fat(catalog("fan3").hoffman, 2)
    assert not is_t_fat(slim_with_fats(1), 2)
    assert is_t_fat(catalog("box").hoffman, 2)


# -- induced subgraphs --------------------------------------------------------------------

def test_induced_single_slim_of_box_is_path2fat():
    got = induced_by_slim(catalog("box").hoffman, [0])
    assert hoffman_isomorphic(got, catalog("path2fat").hoffman)


def test_induced_full_and_empty():
    h = catalog("h_6").hoffman
    assert induced_by_slim(h, range(h.n_slim)) == h
    empty = induced_by_slim(h, [])
    assert empty.n_slim == 0 and empty.n_fat == 0


def test_induced_lambda_min_never_smaller():
    rng = random.Random(17)
    for entry in catalog("H"):
        h = entry.hoffman
        host = eigenvalues_float(special_matrix(h))[0]
        for _ in range(4):
            k = rng.randint(1, h.n_slim)
            W = rng.sample(range(h.n_slim), k)
            sub = induced_by_slim(h, W)
            assert eigenvalues_float(special_matrix(sub))[0] >= host - 1e-7


# -- decomposition -----------------------------------------------------------------------

def test_decompose_examples():
    assert len(decompose(slim_with_fats(4))) == 1
    assert len(decompose(catalog("box").hoffman)) == 1
    two = HoffmanGraph(2, [], [[0], [0], [0], [1], [1], [1]])
    parts = decompose(two)
    assert len(parts) == 2
    assert all(hoffman_isomorphic(p, catalog("fan3").hoffman) for p in parts)


def test_decompose_blocks_reassemble_special_matrix():
    # two box pieces glued along nothing: block diagonal special matrix
    h = HoffmanGraph(
        4,
        [(0, 1), (2, 3)],
        [[0, 1], [0, 1], [2, 3], [2, 3]],
    )
    parts = decompose(h)
    assert len(parts) == 2
    S = special_matrix(h).num.tolist()
    off = [[S[i][j] for j in range(2, 4)] for i in range(0, 2)]
    assert all(v == 0 for row in off for v in row)
    assert special_matrix(parts[0]) == RationalMatrix(((-2, -1), (-1, -2)))


# -- isomorphism --------------------------------------------------------------------------

def test_isomorphic_under_fat_permutation():
    a = HoffmanGraph(1, [], [[0], [0], [0]])
    b = HoffmanGraph(1, [], [[0], [0], [0]])
    assert hoffman_isomorphic(a, b)


def test_non_isomorphic_different_shapes():
    fan3, path2fat = catalog("fan3").hoffman, catalog("path2fat").hoffman
    assert _isomorphism_invariant(fan3) != _isomorphism_invariant(path2fat)


def test_same_special_matrix_non_isomorphic_pair():
    box = catalog("box").hoffman
    twin = catalog("g2_twin").hoffman
    assert special_matrix(box) == special_matrix(twin)
    assert _isomorphism_invariant(box) != _isomorphism_invariant(twin)


# -- matrix families -----------------------------------------------------------------------

def test_m_matrix_examples():
    assert m_matrix(5, t=2) == ((-2, -1, -1), (-1, -2, -1), (-1, -1, -2))
    assert m_matrix(3, 1, 2) == ((-3, 1), (1, -2))
    assert m_matrix(1, -2, 2) == ((-4,),)


def test_m_matrix_index_validation():
    with pytest.raises(IndexOutOfFamily):
        m_matrix(1, -1, 2)
    with pytest.raises(IndexOutOfFamily):
        m_matrix(3, 0, 2)
    with pytest.raises(IndexOutOfFamily):
        m_matrix(5, 1, 2)
    with pytest.raises(IndexOutOfFamily):
        m_matrix(10, t=2)
    with pytest.raises(IndexOutOfFamily):
        m_matrix(2, -2, 0)


def test_parametric_constructors():
    assert special_matrix(clique_with_two_fats(3)) == RationalMatrix((
        (-2, -1, -1), (-1, -2, -1), (-1, -1, -2)))
    assert special_matrix(pendant_slim_pair(3)) == RationalMatrix(((-3, 1), (1, 0)))


def _disjoint_union(parts):
    slim_offset = 0
    edges = []
    fats = []
    for h in parts:
        edges += [(u + slim_offset, v + slim_offset) for u, v in h.slim.edges()]
        fats += [[s + slim_offset for s in f] for f in h.fat_neighbors]
        slim_offset += h.n_slim
    return HoffmanGraph(slim_offset, edges, fats)


def test_decompose_reassembles_special_matrix():
    rng = random.Random(5)
    pool = [e.hoffman for e in catalog("H")] + [catalog("box").hoffman]
    for _ in range(10):
        parts = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        h = _disjoint_union(parts)
        comps = decompose(h)
        S = special_matrix(h).num.tolist()
        # components come back ordered by smallest slim index, which for a
        # disjoint union is the original order; reassemble block-diagonally
        offset = 0
        rebuilt = [[0] * h.n_slim for _ in range(h.n_slim)]
        for comp in comps:
            block = special_matrix(comp).num.tolist()
            k = len(block)
            for i in range(k):
                for j in range(k):
                    rebuilt[offset + i][offset + j] = block[i][j]
            offset += k
        assert offset == h.n_slim
        assert rebuilt == S


def test_exact_thresholds_bracket_irrational_minimum():
    # lambda_min(h_7) = -2 - sqrt(2) = -3.41421356...; exact PSD decisions
    # must separate rationals on either side of it
    h7 = catalog("h_7").hoffman
    assert psd_witness(special_matrix(h7).shifted(Fraction(341422, 100000))) is None
    assert psd_witness(special_matrix(h7).shifted(Fraction(341421, 100000))) is not None
    # lambda_min(h_{3,1}) = -2 - (1 + sqrt(5))/2 = -3.61803398...
    h31 = catalog("h_{3,1}").hoffman
    assert psd_witness(special_matrix(h31).shifted(Fraction(361804, 100000))) is None
    assert psd_witness(special_matrix(h31).shifted(Fraction(361803, 100000))) is not None


def test_exact_boundaries_of_two_by_two_templates():
    from hoffman import RationalMatrix

    # m_{2,a}: smallest eigenvalue -t - |a|, hit exactly
    m = RationalMatrix(m_matrix(2, -3, 2))
    assert psd_witness(m.shifted(5)) is None
    assert psd_witness(m.shifted(Fraction(4999, 1000))) is not None
    # m_{4,a}: smallest eigenvalue -t - 1 - |a|
    m4 = RationalMatrix(m_matrix(4, -2, 2))
    assert psd_witness(m4.shifted(5)) is None
    assert psd_witness(m4.shifted(Fraction(4999, 1000))) is not None


def test_ostrowski_bound_on_random_hoffman_graphs():
    from hoffman import graph_lambda_min_float

    rng = random.Random(61)
    for _ in range(25):
        ns = rng.randint(1, 4)
        edges = [(i, j) for i in range(ns) for j in range(i + 1, ns) if rng.random() < 0.5]
        fats = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, ns)
            fats.append(rng.sample(range(ns), size))
        h = HoffmanGraph(ns, edges, fats)
        base = eigenvalues_float(special_matrix(h))[0]
        for p in (1, 2, 4, 6):
            assert graph_lambda_min_float(expand(h, p)) >= base - 1e-7


def test_isomorphism_invariant_under_relabeling():
    rng = random.Random(43)
    for _ in range(30):
        ns = rng.randint(1, 5)
        edges = [(i, j) for i in range(ns) for j in range(i + 1, ns) if rng.random() < 0.5]
        fats = [rng.sample(range(ns), rng.randint(1, ns)) for _ in range(rng.randint(1, 4))]
        h = HoffmanGraph(ns, edges, fats)
        perm = list(range(ns))
        rng.shuffle(perm)
        relabeled = HoffmanGraph(
            ns,
            [(perm[u], perm[v]) for u, v in edges],
            [[perm[s] for s in f] for f in rng.sample(fats, len(fats))],
        )
        assert hoffman_isomorphic(h, relabeled)
        # dropping a fat vertex must break the isomorphism
        if len(fats) >= 2:
            smaller = HoffmanGraph(ns, edges, fats[:-1])
            assert not hoffman_isomorphic(h, smaller)
