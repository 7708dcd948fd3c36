"""The benchmark workloads: their inputs, operations and pinned results.

Every operation is one call of ``hoffman.cli.main(argv)``.  Its report is
reduced by an ``observe`` function to a small dictionary that is compared with
the pinned ``expected`` dictionary; any difference counts the operation as
failed.  Expected values are either pinned constants of the paper's claims or
computed here, independently of the library, from the generated inputs.

Only ``extract`` draws its inputs from the seed; the inputs of ``certify``
and ``scan-psd`` are the same for every seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

SEEDED = {"extract"}


@dataclass
class Op:
    """One CLI invocation and the result it must produce."""

    argv: list[str]
    expected: dict
    observe: Callable[[int, Optional[dict]], dict]


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """Generate and write the workload's inputs; return its operations."""
    builders = {"certify": _certify, "scan-psd": _scan_psd, "extract": _extract}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    return builders[workload](random.Random(seed), workdir, tiny)


def _results(report: Optional[dict]):
    return None if report is None else report.get("results")


# -- certify: witnesses for lambda_min < -t ---------------------------------------

# (pair, p, vertices of the expansion G(h, p)) for the nine catalog pairs
CAL_PAIRS = [
    ["h_{1,-2}", 7, 29], ["h_{3,1}", 7, 37], ["h_{3,-1}", 13, 41],
    ["h_{4,-2}", 5, 17], ["h_5", 11, 25], ["h_6", 5, 23],
    ["h_7", 15, 63], ["h_8^{(1)}", 8, 51], ["h_8^{(2)}", 11, 58],
]
# vertices of the three threshold expansions at s = 2..5; s = 4 holds the
# 186-vertex graph certified by direct LDL^T, s = 5 the 487-vertex graph
# certified by the lifted quotient witness.  s = 6 (218 and 1058 vertices)
# alone takes about 12 s, too long for several passes in one run.
PROP215_S_MAX = 5
PROP215_VERTICES = {
    2: [10, 10, 10], 3: [29, 25, 53], 4: [66, 48, 186], 5: [127, 79, 487],
}


def _observe_cal(code, report):
    res = _results(report) or {}
    checks = res.get("checks", [])
    return {
        "exit": code,
        "ok": res.get("ok"),
        "pairs": [[c["pair"], c["p"], c["vertices"]] for c in checks],
        "exact_verdicts": [c["exact_verdict"] for c in checks],
        "float_below_-3": [c["lambda_min_float"] < -3 for c in checks],
        "certificates": len(report["exact_certificates"]) if report else None,
    }


def _observe_prop215(code, report):
    res = _results(report) or {}
    per_s = res.get("s_values", [])
    checks = [(entry["s"], c) for entry in per_s for c in entry.get("checks", [])]
    return {
        "exit": code,
        "ok": res.get("ok"),
        "vertices": {entry["s"]: [c["vertices"] for c in entry.get("checks", [])]
                     for entry in per_s},
        "det_shifted": [c["det_shifted"] for _, c in checks],
        "exact_verdicts": [c["exact_verdict"] for _, c in checks],
        "float_below_-s": [c["graph_lambda_min"] < -s for s, c in checks],
        "certificates": len(report["exact_certificates"]) if report else None,
    }


def _certify(rng, workdir, tiny):
    s_max = 3 if tiny else PROP215_S_MAX
    n_checks = 3 * (s_max - 1)
    ops = [Op(
        ["verify-paper", "prop215", "--s-max", str(s_max)],
        {
            "exit": 0, "ok": True,
            "vertices": {s: PROP215_VERTICES[s] for s in range(2, s_max + 1)},
            "det_shifted": ["-1"] * n_checks,
            "exact_verdicts": [True] * n_checks,
            "float_below_-s": [True] * n_checks,
            "certificates": n_checks,
        },
        _observe_prop215,
    )]
    if not tiny:
        ops.insert(0, Op(
            ["verify-paper", "cal"],
            {
                "exit": 0, "ok": True, "pairs": CAL_PAIRS,
                "exact_verdicts": [True] * 9, "float_below_-3": [True] * 9,
                "certificates": 9,
            },
            _observe_cal,
        ))
    return ops


# -- scan-psd, first half: integer alpha-scans and exact bounds -----------------------

DESK_BS = (2, 3, 4, 5, 9, 16, 25)
LARGE_BS = (30, 33, 36)
# survivors of the five p-number checks at D = 14, alpha <= b^2(b+1)
ALPHAB_SURVIVORS = {
    2: ["0", "1/3", "2/3", "1", "4/3", "2"],
    3: ["0", "1/2", "1", "3/2", "2", "9/4", "3"],
    4: ["0", "3/5", "1", "2", "12/5", "3", "16/5", "4", "6"],
    5: ["0", "2/3", "2", "10/3", "4", "25/6", "5"],
    9: ["0", "4/5", "2", "4", "6", "36/5", "8", "81/10", "9", "12"],
    16: ["0", "15/17", "3", "12", "240/17", "15", "256/17", "16", "20"],
    25: ["0", "12/13", "4", "12", "20", "300/13", "24", "625/26", "25", "30"],
    30: ["0", "29/31", "870/31", "29", "900/31", "30"],
    33: ["0", "16/17", "16", "528/17", "32", "1089/34", "33"],
    36: ["0", "35/37", "5", "30", "1260/37", "35", "1296/37", "36", "42"],
}
# the single-check scan at b = 2, D = 12 keeps alpha = 9, which the paper's
# claimed survivor set omits, so the suite exits 2 by design
PROP5_SURVIVORS = ["0", "1/3", "2/3", "1", "4/3", "2", "9"]


def _observe_alphab(code, report):
    res = _results(report) or {}
    return {
        "exit": code,
        "ok": res.get("ok"),
        "survivors": {e["b"]: e["survivors"] for e in res.get("per_b", [])},
    }


def _observe_prop5(code, report):
    res = _results(report) or {}
    return {
        "exit": code,
        "survivors": res.get("survivors"),
        "extra": res.get("extra_survivors"),
        "leading_constant": res.get("leading_constant"),
    }


def _observe_beta(code, report):
    res = _results(report) or {}
    return {
        "exit": code,
        "f_violations": res.get("f_violations"),
        "tail_bound_below_1": res.get("tail_bound_below_1"),
        "monotonic": res.get("monotonic_spot_checks"),
    }


def _observe_thresholds(code, report):
    res = _results(report) or {}
    return {"exit": code, "ok": res.get("ok"), "n1_3": res.get("n1_3")}


def _alphab_op(bs):
    return Op(
        ["verify-paper", "alphab", "--bs", ",".join(str(b) for b in bs)],
        {"exit": 0, "ok": True, "survivors": {b: ALPHAB_SURVIVORS[b] for b in bs}},
        _observe_alphab,
    )


def _scan_psd(rng, workdir, tiny):
    return _scan(tiny) + _psd(workdir, tiny)


def _scan(tiny):
    ops = [_alphab_op((2, 3) if tiny else DESK_BS)]
    if not tiny:
        ops += [_alphab_op((b,)) for b in LARGE_BS]
    ops += [
        Op(["verify-paper", "prop5"],
           {"exit": 2, "survivors": PROP5_SURVIVORS, "extra": ["9"],
            "leading_constant": 230674393235},
           _observe_prop5),
        Op(["verify-paper", "beta"],
           {"exit": 2, "f_violations": [{"b": 2, "f": "2187/175"}],
            "tail_bound_below_1": True, "monotonic": True},
           _observe_beta),
        Op(["verify-paper", "thresholds"],
           {"exit": 0, "ok": True, "n1_3": 48},
           _observe_thresholds),
    ]
    return ops


# -- scan-psd, second half: exact lambda_min >= -t decisions on L(K_m) ----------------

PSD_MS = (10, 14, 18)
INTRO2_M = 14
# lambda_min(L(K_m)) = -2 exactly: PSD holds at -2 (singular) and -3 (definite)
PSD_THRESHOLDS = (("-2", True), ("-3", True), ("-1", False))


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="ascii")
    return str(path)


def _line_graph(n_base: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Edges of the line graph; vertex i is ``edges[i]``."""
    at = [[] for _ in range(n_base)]
    for i, (u, v) in enumerate(edges):
        at[u].append(i)
        at[v].append(i)
    return sorted({(min(i, j), max(i, j)) for star in at for i, j in combinations(star, 2)})


def _observe_lambda_min(code, report):
    res = _results(report) or {}
    at = res.get("at_least") or {}
    lm = res.get("lambda_min_float")
    return {
        "exit": code,
        "n": res.get("n"),
        "holds": at.get("holds"),
        "float_is_-2": lm is not None and abs(lm + 2) < 1e-7,
    }


def _observe_intro2(code, report):
    res = _results(report) or {}
    return {
        "exit": code,
        "mu": (res.get("condition_mu") or {}).get("mu"),
        "conditions": [(res.get(k) or {}).get("passed") for k in
                       ("condition_mu", "condition_clique_order", "condition_lambda_min")],
        "associated": res.get("associated", "missing"),
    }


def _psd(workdir, tiny):
    ms = (5, 6) if tiny else PSD_MS
    intro2_m = 6 if tiny else INTRO2_M
    ops = []
    for m in ms:
        edges = list(combinations(range(m), 2))
        path = _write_json(workdir / f"line_K{m}.json",
                           {"n": len(edges), "edges": _line_graph(m, edges)})
        for t, holds in PSD_THRESHOLDS:
            ops.append(Op(
                ["lambda-min", "--graph", path, "--at-least", t],
                {"exit": 0, "n": len(edges), "holds": holds, "float_is_-2": True},
                _observe_lambda_min,
            ))
        if m == intro2_m:
            # mu(L(K_m)) = 4; K = 1827 at c = 4 exceeds every degree, so the
            # clique-order condition fails and the report exits 2
            ops.append(Op(
                ["check-intro2", "--graph", path, "--c", "4"],
                {"exit": 2, "mu": 4, "conditions": [True, False, True], "associated": None},
                _observe_intro2,
            ))
    return ops


# -- extract: clique extraction and forbidden scans on random line graphs --------------

# (vertices, edges) of the base graphs G(n, M), M about 0.2 * C(n, 2); a fixed
# edge count keeps the cost of a pass nearly independent of the seed
EXTRACT_SHAPES = ((14, 18), (16, 24), (18, 31), (20, 38), (22, 46))
EXTRACT_SHAPES_TINY = ((8, 8), (10, 12))
ASSOC_Q = 4
LAM = 2  # line graphs have lambda_min >= -2


@dataclass
class _LineGraph:
    base_edges: list[tuple[int, int]]
    base_adj: list[set[int]]
    edges: list[tuple[int, int]]
    adj: list[set[int]]
    mu: int


def _make_line_graph(rng: random.Random, n: int, m: int) -> _LineGraph:
    base = sorted(rng.sample(list(combinations(range(n), 2)), m))
    base_adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in base:
        base_adj[u].add(v)
        base_adj[v].add(u)
    edges = _line_graph(n, base)
    adj: list[set[int]] = [set() for _ in base]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    mu = max((len(adj[i] & adj[j]) for i, j in combinations(range(m), 2)
              if j not in adj[i]), default=0)
    return _LineGraph(base, base_adj, edges, adj, mu)


def _bose_laskar_expected(lg: _LineGraph, x: int, c: int, r: Optional[int]) -> dict:
    """The report of ``bose-laskar`` at x, derived from the base graph.

    Vertex x of L(H) is the base edge uv, and N(x) is the clique of the other
    edges at u joined to the clique of the other edges at v, edge uw to edge
    vw exactly for common neighbours w.  So a maximum independent set of N(x)
    has order 2 when some a in N(u)-v and b in N(v)-u differ, else order 1
    (or 0 when N(x) is empty).  The maximal cliques through x are the stars
    at u and at v and the triangles uvw, which gives the largest one.
    """
    u, v = lg.base_edges[x]
    at_u, at_v = lg.base_adj[u] - {v}, lg.base_adj[v] - {u}
    if any(a != b for a in at_u for b in at_v):
        mis = 2
    else:
        mis = 1 if at_u or at_v else 0
    d = len(at_u) + len(at_v)
    floor_l2 = LAM * LAM
    denom = math.comb(floor_l2, 2) * (c - 1)
    expected = {
        "exit": 0, "x": x, "mis_order": mis, "independent_set_valid": True,
        "bound1": str(Fraction(d - denom, floor_l2) + 1),
        "hypothesis": None, "bound2": None, "clique2_present": False,
        "cliques_maximal_and_large": True,
    }
    if r is not None:
        largest = max(len(at_u) + 1, len(at_v) + 1, 3 if at_u & at_v else 0)
        expected["hypothesis"] = largest <= d - r
        if expected["hypothesis"] and mis >= 2:
            expected["bound2"] = str(Fraction(r - denom + 1, floor_l2 - 1) + 1)
            expected["clique2_present"] = True
    return expected


def _bose_laskar_observer(lg: _LineGraph, x: int, bound1: str, bound2: Optional[str]):
    """Check the report's independent set and cliques on the graph itself.

    Each returned clique must contain x and be a maximal clique of at least
    the expected bound; whether clique2 should be there is pinned separately.
    """

    def maximal_clique_through_x(vs, bound):
        members = set(vs)
        common = set.intersection(*(lg.adj[a] for a in members)) if members else set()
        return (x in members and len(members) == len(vs)
                and all(b in lg.adj[a] for a, b in combinations(vs, 2))
                and not common and len(vs) >= Fraction(bound))

    def observe(code, report):
        res = _results(report) or {}
        ind = res.get("independent_set", [])
        cliques = [(res.get("clique1"), bound1)]
        if res.get("clique2") is not None:
            cliques.append((res["clique2"], bound2 or 0))
        return {
            "exit": code,
            "x": res.get("x"),
            "mis_order": len(ind),
            "independent_set_valid": (
                all(v in lg.adj[x] for v in ind)
                and not any(b in lg.adj[a] for a, b in combinations(ind, 2))),
            "bound1": res.get("bound1"),
            "hypothesis": res.get("second_hypothesis_holds"),
            "bound2": res.get("bound2"),
            "clique2_present": res.get("clique2") is not None,
            "cliques_maximal_and_large": all(
                clique is not None and maximal_clique_through_x(clique, bound)
                for clique, bound in cliques),
        }

    return observe


def _observe_assoc(code, report):
    res = _results(report) or {}
    return {"exit": code, "hoffman": res.get("hoffman")}


def _observe_scan_forbidden(code, report):
    res = _results(report) or {}
    return {"exit": code, "hit": res.get("hit", "missing")}


def _extract(rng, workdir, tiny):
    ops = []
    for k, (n, m) in enumerate(EXTRACT_SHAPES_TINY if tiny else EXTRACT_SHAPES):
        lg = _make_line_graph(rng, n, m)
        graph = _write_json(workdir / f"line_{k}.json", {"n": m, "edges": lg.edges})
        c = max(1, lg.mu)
        degree = [0] * n
        for u, v in lg.base_edges:
            degree[u] += 1
            degree[v] += 1
        for x, (u, v) in enumerate(lg.base_edges):
            argv = ["bose-laskar", "--graph", graph, "--x", str(x),
                    "--lam", str(LAM), "--c", str(c)]
            r = max(1, min(degree[u], degree[v]) - 2) if x % 3 == 0 else None
            if r is not None:
                argv += ["--r", str(r)]
            expected = _bose_laskar_expected(lg, x, c, r)
            ops.append(Op(argv, expected, _bose_laskar_observer(
                lg, x, expected["bound1"], expected["bound2"])))
        # the maximal cliques of order >= 4 of a line graph are exactly the
        # stars of base vertices of degree >= 4, so g(G, 4) is known in advance
        stars = sorted(
            sorted(i for i, e in enumerate(lg.base_edges) if w in e)
            for w in range(n) if degree[w] >= ASSOC_Q
        )
        hoffman = {"slim": m, "fat": len(stars),
                   "slim_edges": [list(e) for e in lg.edges], "fat_adj": stars}
        hpath = _write_json(workdir / f"assoc_{k}.json", hoffman)
        ops.append(Op(["assoc", "--graph", graph, "--q", str(ASSOC_Q)],
                      {"exit": 0, "hoffman": hoffman}, _observe_assoc))
        ops.append(Op(["scan-forbidden", "--hoffman", hpath],
                      {"exit": 0, "hit": None}, _observe_scan_forbidden))
    return ops


def corrupt(ops: list[Op]) -> None:
    """Replace the first pinned value of the first operation (self-check)."""
    key = next(iter(ops[0].expected))
    ops[0].expected[key] = "<corrupted>"


def why_seed_matters(workload: str) -> str:
    if workload in SEEDED:
        return "inputs drawn from the seed"
    return "inputs do not depend on the seed"

