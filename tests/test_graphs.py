"""Graph storage, mu parameter, clique enumeration, and file formats."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoffman import (
    CliqueLimitExceeded,
    Graph,
    SearchBudgetExhausted,
    complete_graph,
    cycle_graph,
    graph_from_json,
    load_graph,
    maximal_cliques,
    maximum_independent_set,
    mu_parameter,
    parse_graph6,
)
from hoffman.graphs import MAX_VERTICES

from .conftest import graph6_encode, is_clique, petersen_graph, random_graph


# -- construction ---------------------------------------------------------------

def test_rejects_self_loops_and_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_rejects_oversized_graphs():
    with pytest.raises(ValueError):
        Graph(10_001)


def test_from_bits_stores_the_given_neighborhoods():
    rng = random.Random(5)
    for n in (0, 1, 7, 64, 65, 130):
        G = random_graph(rng, n, 0.4)
        H = Graph._from_bits(list(G._adj))
        assert H == G and hash(H) == hash(G)
        assert list(H.edges()) == list(G.edges())


def test_from_bits_rejects_too_many_vertices():
    with pytest.raises(ValueError, match="more than 10000 vertices"):
        Graph._from_bits([0] * (MAX_VERTICES + 1))


@pytest.mark.parametrize("adj", [(0b10, 0b101), (0b10, 0b1, 0b1000), (0b10, -1)])
def test_from_bits_rejects_a_bit_out_of_range(adj):
    # bit n or above, a far bit, and a negative entry whose bits never end
    with pytest.raises(ValueError, match="out of range for n="):
        Graph._from_bits(adj)


def test_from_bits_rejects_a_self_loop_bit():
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph._from_bits((0b10, 0b11))


def test_basic_accessors():
    G = Graph(4, [(0, 1), (1, 2)])
    assert G.degree(1) == 2
    assert G.neighbors(1) == (0, 2)
    assert G.has_edge(0, 1) and not G.has_edge(0, 2)
    assert sorted(G.edges()) == [(0, 1), (1, 2)]
    assert G.edge_count() == 2


# -- mu parameter -----------------------------------------------------------------

def test_mu_complete_graph_is_zero():
    assert mu_parameter(complete_graph(5)) == 0


def test_mu_cycle():
    assert mu_parameter(cycle_graph(5)) == 1


def test_mu_petersen():
    assert mu_parameter(petersen_graph()) == 1


def _mu_bruteforce(G: Graph) -> int:
    best = 0
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if not G.has_edge(u, v):
                nu = set(G.neighbors(u))
                best = max(best, len(nu.intersection(G.neighbors(v))))
    return best


def test_mu_matches_bruteforce_on_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        G = random_graph(rng, rng.randint(2, 12), rng.random())
        assert mu_parameter(G) == _mu_bruteforce(G)
        if any(not G.has_edge(u, v) for u in range(G.n) for v in range(u + 1, G.n)):
            assert mu_parameter(G) <= G.n - 2


# -- maximal cliques ----------------------------------------------------------------

def test_k4_single_maximal_clique():
    out = maximal_cliques(complete_graph(4), min_size=2)
    assert out == ((0, 1, 2, 3),)


def test_c5_maximal_cliques_are_edges():
    out = maximal_cliques(cycle_graph(5), min_size=2)
    assert out == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))


def test_two_triangles_sharing_a_vertex():
    G = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    out = maximal_cliques(G, min_size=3)
    assert out == ((0, 1, 2), (0, 3, 4))


def test_clique_limit_raises(monkeypatch):
    import hoffman.graphs as graphs

    # C5 has five maximal cliques, its edges
    monkeypatch.setattr(graphs, "MAX_CLIQUES", 5)
    assert len(maximal_cliques(cycle_graph(5))) == 5
    monkeypatch.setattr(graphs, "MAX_CLIQUES", 3)
    with pytest.raises(CliqueLimitExceeded, match="more than 3 maximal cliques"):
        maximal_cliques(cycle_graph(5))


def _all_maximal_cliques_bruteforce(G: Graph):
    found = set()
    verts = range(G.n)
    for r in range(1, G.n + 1):
        for sub in combinations(verts, r):
            if not is_clique(G, sub):
                continue
            if any(all(G.has_edge(v, w) for w in sub) for v in verts if v not in sub):
                continue
            found.add(sub)
    return found


def test_maximal_cliques_match_bruteforce():
    rng = random.Random(11)
    for _ in range(25):
        G = random_graph(rng, rng.randint(1, 9), rng.random())
        got = set(maximal_cliques(G))
        assert got == _all_maximal_cliques_bruteforce(G)


def test_clique_set_json_is_sorted_lists():
    out = maximal_cliques(cycle_graph(4), min_size=2)
    assert [list(c) for c in out] == [[0, 1], [0, 3], [1, 2], [2, 3]]


# -- independent sets ------------------------------------------------------------------

def test_star_center_neighborhood():
    G = Graph(5, [(0, i) for i in range(1, 5)])
    assert maximum_independent_set(G, G.neighbors(0)) == (1, 2, 3, 4)


def test_complete_graph_neighborhood_lex_first():
    G = complete_graph(5)
    assert maximum_independent_set(G, G.neighbors(2)) == (0,)


def test_c5_neighborhood():
    G = cycle_graph(5)
    assert maximum_independent_set(G, G.neighbors(0)) == (1, 4)


def test_independent_set_maximum_by_bruteforce():
    rng = random.Random(23)
    for _ in range(30):
        G = random_graph(rng, rng.randint(2, 11), rng.random())
        x = rng.randrange(G.n)
        got = maximum_independent_set(G, G.neighbors(x))
        nbrs = G.neighbors(x)
        assert set(got) <= set(nbrs)
        assert all(not G.has_edge(u, v) for u, v in combinations(got, 2))
        best = 0
        for r in range(len(nbrs), 0, -1):
            if any(
                all(not G.has_edge(u, v) for u, v in combinations(sub, 2))
                for sub in combinations(nbrs, r)
            ):
                best = r
                break
        assert len(got) == best


def test_independent_set_search_node_budget(monkeypatch):
    import hoffman.graphs as graphs

    # the search visits 62 nodes on the Petersen graph, counted per call
    G = petersen_graph()
    monkeypatch.setattr(graphs, "MIS_NODE_BUDGET", 62)
    assert maximum_independent_set(G) == (0, 2, 8, 9)
    assert maximum_independent_set(G) == (0, 2, 8, 9)
    monkeypatch.setattr(graphs, "MIS_NODE_BUDGET", 61)
    with pytest.raises(SearchBudgetExhausted, match="within 61 search nodes"):
        maximum_independent_set(G)


# -- file formats ------------------------------------------------------------------------

def test_graph6_known_strings():
    assert parse_graph6("D~{") == complete_graph(5)
    assert parse_graph6("Dhc") == cycle_graph(5)
    assert parse_graph6("IheA@GUAo") == petersen_graph()


def test_graph6_header_and_bytes():
    assert parse_graph6(">>graph6<<Dhc") == cycle_graph(5)
    assert parse_graph6(b"Dhc\n") == cycle_graph(5)


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("D")  # truncated body


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.random_module())
def test_graph6_roundtrip(n, rnd):
    rng = random.Random(rnd.seed)
    G = random_graph(rng, n, rng.random())
    assert parse_graph6(graph6_encode(G)) == G


def test_json_graph_roundtrip():
    G = Graph(5, [(0, 1), (2, 4)])
    assert graph_from_json({"n": G.n, "edges": [list(e) for e in G.edges()]}) == G
    assert graph_from_json(json.loads('{"n": 3, "edges": [[0, 2]]}')) == Graph(3, [(0, 2)])
    with pytest.raises(ValueError):
        graph_from_json([1, 2])


@pytest.mark.parametrize("text", [
    '{"n": 2, "edges": [[0, true]]}',
    '{"n": 2, "edges": [[true, 1]]}',
    '{"n": 2, "edges": [[0, 1.0]]}',
    '{"n": 2, "edges": [[0, "1"]]}',
    '{"n": true, "edges": []}',
    '{"n": 3, "edges": [[0, 1, 2]]}',
    '{"n": 2, "edges": [[0]]}',
    '{"n": 2, "edges": [0, 1]}',
    '{"n": 2, "edges": {"0": 1}}',
])
def test_json_graph_rejects_non_integer_input(text):
    with pytest.raises(ValueError, match="graph JSON"):
        graph_from_json(json.loads(text))


def test_load_graph_autodetects():
    assert load_graph('{"n": 5, "edges": [[0,1],[1,2],[2,3],[3,4],[0,4]]}') == cycle_graph(5)
    assert load_graph("Dhc") == cycle_graph(5)


@pytest.mark.parametrize("n", [28, 60])
def test_load_graph_accepts_graph6_with_json_like_header(n):
    # the one-byte graph6 headers of n = 28 and n = 60 are '[' and '{'
    rng = random.Random(n)
    for G in (Graph(n, []), random_graph(rng, n, 0.5), complete_graph(n)):
        text = graph6_encode(G)
        assert text[0] == chr(n + 63)
        assert load_graph(text) == G
        assert load_graph(text + "\n") == G


def test_graph6_three_byte_header():
    # n = 63 uses the 126-prefixed three-byte length form
    n = 63
    body_len = (n * (n - 1) // 2 + 5) // 6
    text = chr(126) + chr(63 + 0) + chr(63 + 0) + chr(63 + 63) + "?" * body_len
    G = parse_graph6(text)
    assert G.n == 63 and G.edge_count() == 0


def test_graph6_empty_graph():
    assert parse_graph6("?") == Graph(0)


def test_graph6_oversized_header_is_rejected_before_the_body():
    # n = MAX_VERTICES + 1 in the three-byte header form; the one-byte body is
    # far too short, but the vertex limit is the error, read off the header
    n = MAX_VERTICES + 1
    header = chr(126) + "".join(chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0))
    with pytest.raises(ValueError, match=f"more than {MAX_VERTICES} vertices"):
        parse_graph6(header + "?")
