"""Command-line entry point.

One executable exposes the library operations and the verification suite for
the published computational claims.  Every subcommand emits a single Report
(JSON by default) that validates against :data:`REPORT_SCHEMA`.

Exit codes: 0 success, 1 usage or input error, 2 a claimed result failed to
reproduce under exact verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from fractions import Fraction

from .errors import HoffmanError, VerificationError
from .forbidden import (
    PROP_CAL_PAIRS,
    certify_lambda_min_below,
    graph_lambda_min_float,
    load_matrix_file,
    prop215,
    scan_M_t,
    verify_proposition_cal,
)
from .graphs import load_graph_file
from .hgraphs import catalog, load_hoffman_file, special_matrix
from .structure import (
    associated_hoffman,
    bose_laskar,
    n1_threshold,
    n2_threshold,
    theorem_intro2_check,
    thresholds,
)
from .drg import (
    ClassicalParams,
    delsarte_bound,
    check_ie1,
    eigenvalues,
    feasibility_scan,
    intersection_array,
    local_graph_params,
    p66_leading_constant,
    theorem_beta_bounds,
)

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "hoffman CLI report",
    "type": "object",
    "required": ["command", "inputs", "results", "exact_certificates", "timings_ms"],
    "properties": {
        "command": {"type": "string"},
        "inputs": {"type": "object"},
        "results": {},
        "exact_certificates": {"type": "array", "items": {"type": "string"}},
        "timings_ms": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
    "additionalProperties": False,
}

PROP5_CLAIMED = ("0", "1/3", "2/3", "1", "4/3", "2")
ALPHAB_DESK_BS = (2, 3, 4, 5, 9, 16, 25)
FIVE_CHECKS = ((7, 7), (6, 6), (5, 5), (4, 4), (3, 3))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only integers and decimals as negative numbers, so a
        # value such as -5/2 would be taken for an option; fractions too
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise _UsageError(message)


def _fraction(text: str) -> Fraction:
    """argparse type for a rational option; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _check_pair(text: str) -> tuple[int, int]:
    """argparse type for one ``--checks`` value, the pair ``i,h``."""
    try:
        i, h = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a pair 'i,h' of integers, got {text!r}") from None
    return i, h


def _s_max(text: str) -> int:
    """argparse type for ``--s-max``; prop215 starts at s = 2, so a smaller
    bound would check nothing."""
    try:
        s = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if s < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {s}")
    return s


def _b_list(text: str) -> tuple[int, ...]:
    """argparse type for ``--bs``, a comma list of b values, each at least 2."""
    bs = []
    for item in text.split(","):
        try:
            b = int(item)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma list of integers, got {text!r}") from None
        if b < 2:
            raise argparse.ArgumentTypeError(f"b must be at least 2, got {b}")
        bs.append(b)
    return tuple(bs)


def _report(command: str, inputs: dict, results, certificates, timings) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "exact_certificates": list(certificates),
        "timings_ms": timings,
    }


def _emit(report: dict, fmt: str) -> None:
    _validate_report(report)
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"# {report['command']}")
        for key, value in report["inputs"].items():
            print(f"input {key} = {value}")
        print(json.dumps(report["results"], indent=2, sort_keys=True))
        for cert in report["exact_certificates"]:
            print(f"certificate: {cert}")


@functools.cache
def _report_validator():
    # imported on first use so that importing the CLI stays cheap; the
    # constant schema is checked against its metaschema once, not per report
    import jsonschema

    validator_class = jsonschema.validators.validator_for(REPORT_SCHEMA)
    validator_class.check_schema(REPORT_SCHEMA)
    return validator_class(REPORT_SCHEMA)


def _validate_report(report: dict) -> None:
    _report_validator().validate(report)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(prog="hoffman", description=__doc__)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    # accept --format after the subcommand too; SUPPRESS keeps the top-level
    # value when the flag is absent there
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("lambda-min", help="smallest adjacency eigenvalue of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--at-least", type=_fraction, default=None,
                   help="also decide lambda_min >= this rational, exactly")

    p = add_parser("assoc", help="associated Hoffman graph at level q")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)

    p = add_parser("bose-laskar", help="large-clique extraction through a vertex")
    p.add_argument("--graph", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--lam", type=_fraction, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--r", type=int, default=None)

    p = add_parser("check-intro2", help="structure-theorem condition report")
    p.add_argument("--graph", required=True)
    p.add_argument("--c", type=int, required=True)

    p = add_parser("scan-forbidden", help="forbidden principal-submatrix scan")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--hoffman", help="Hoffman graph JSON file")
    src.add_argument("--matrix", help="integer matrix JSON file")
    p.add_argument("--t", type=int, default=2)

    p = add_parser("drg", help="distance-regular classical parameter tools")
    dsub = p.add_subparsers(dest="drg_cmd", required=True)
    ps = dsub.add_parser("scan", parents=[common], help="feasible alpha scan")
    ps.add_argument("--b", type=int, required=True)
    ps.add_argument("--D", type=int, required=True)
    ps.add_argument("--alpha-max", type=_fraction, required=True)
    ps.add_argument("--checks", type=_check_pair, action="append", required=True,
                    help="pair 'i,h'; repeat for several checks")
    pp = dsub.add_parser("params", parents=[common], help="arrays, eigenvalues and bounds")
    pp.add_argument("--D", type=int, required=True)
    pp.add_argument("--b", type=int, required=True)
    pp.add_argument("--alpha", type=_fraction, required=True)
    pp.add_argument("--beta", type=_fraction, required=True)

    p = add_parser("verify-paper", help="re-run the published computational claims")
    p.add_argument("suite", choices=(
        "cal", "prop215", "prop5", "alphab", "beta", "thresholds", "all"))
    p.add_argument("--s-max", type=_s_max, default=6, help="largest s for prop215, at least 2")
    b_values = p.add_mutually_exclusive_group()
    b_values.add_argument("--bs", type=_b_list, default=None,
                          help="comma list of b values for alphab, each at least 2")
    b_values.add_argument("--full", action="store_true",
                          help="alphab: scan every b in 2..100")
    return parser


# -- individual subcommands ------------------------------------------------------

def _cmd_lambda_min(args, timings):
    G = load_graph_file(args.graph)
    results = {"n": G.n, "lambda_min_float": graph_lambda_min_float(G)}
    certs = []
    if args.at_least is not None:
        t = -args.at_least
        verdict = certify_lambda_min_below(G, t) is None
        results["at_least"] = {"threshold": str(-t), "holds": verdict}
        certs.append(
            f"lambda_min >= {-t} decided exactly via PSD(A + ({t})I): {verdict}"
        )
    return results, certs, 0


def _cmd_assoc(args, timings):
    G = load_graph_file(args.graph)
    h = associated_hoffman(G, args.q)
    results = {
        "n": G.n,
        "q": args.q,
        "fats": h.n_fat,
        "cliques": [sorted(f) for f in h.fat_neighbors],
        "hoffman": h.to_json(),
    }
    return results, [], 0


def _cmd_bose_laskar(args, timings):
    G = load_graph_file(args.graph)
    res = bose_laskar(G, args.x, args.lam, args.c, args.r)
    results = {
        "x": res.x,
        "independent_set": list(res.independent_set),
        "w_set": list(res.w_set),
        "clique1": list(res.clique1),
        "bound1": str(res.bound1),
        "clique2": None if res.clique2 is None else list(res.clique2),
        "bound2": None if res.bound2 is None else str(res.bound2),
        "second_hypothesis_holds": res.second_hypothesis_holds,
    }
    certs = [f"|clique1| = {len(res.clique1)} >= {res.bound1}"]
    if res.clique2 is not None:
        certs.append(f"|clique2| = {len(res.clique2)} >= {res.bound2}")
    return results, certs, 0


def _cmd_check_intro2(args, timings):
    G = load_graph_file(args.graph)
    report = theorem_intro2_check(G, args.c)
    code = 0 if report["passed"] else 2
    return report, [], code


def _cmd_scan_forbidden(args, timings):
    if args.hoffman:
        h = load_hoffman_file(args.hoffman)
        S = special_matrix(h)
        source = {"hoffman": args.hoffman}
    else:
        S = load_matrix_file(args.matrix)
        source = {"matrix": args.matrix}
    hit = scan_M_t(S, args.t)
    results = {
        "t": args.t,
        "source": source,
        "hit": None if hit is None else {
            "slim_subset": list(hit.slim_subset),
            "family_member": hit.family_member,
            "witness_matrix": [list(r) for r in hit.witness_matrix],
        },
    }
    return results, [], 0


def _cmd_drg_scan(args, timings):
    survivors = feasibility_scan(args.b, args.D, args.alpha_max, args.checks)
    results = {
        "b": args.b,
        "D": args.D,
        "alpha_max": str(args.alpha_max),
        "checks": [list(c) for c in args.checks],
        "survivors": [str(a) for a in survivors],
    }
    return results, [], 0


def _cmd_drg_params(args, timings):
    p = ClassicalParams(args.D, args.b, args.alpha, args.beta)
    arr = intersection_array(p)
    eig = eigenvalues(p)
    results = {
        "D": p.D,
        "b": p.b,
        "alpha": str(p.alpha),
        "beta": str(p.beta),
        "k": str(arr.k),
        "c": [str(v) for v in arr.c],
        "b_seq": [str(v) for v in arr.b],
        "a": [str(v) for v in arr.a],
        "eigenvalues": [str(v) for v in eig],
        "delsarte_bound": str(delsarte_bound(p)),
        "ie1_holds": check_ie1(p),
    }
    if p.D >= 3:
        local = local_graph_params(p)
        results["local_graph"] = {
            "n": str(local.n),
            "w": str(local.w),
            "c": str(local.c_local),
            "lambda_lb": str(local.lambda_lb),
        }
    return results, [], 0


# -- the verification suite -------------------------------------------------------

def _suite_cal():
    try:
        checks = verify_proposition_cal()
    except VerificationError as exc:
        return {"ok": False, "error": str(exc)}, [], False
    certs = [f"({entry['pair']}, p={entry['p']}): rational witness with "
             f"x^T(A+3I)x < 0 on {entry['vertices']} vertices" for entry in checks]
    return {"ok": True, "checks": checks}, certs, True


def _suite_prop215(s_max: int):
    out = []
    certs = []
    ok = True
    for s in range(2, s_max + 1):
        try:
            r = prop215(s)
        except HoffmanError as exc:
            out.append({"s": s, "ok": False, "error": str(exc)})
            ok = False
            continue
        out.append(r)
        for chk in r["checks"]:
            certs.append(
                f"s={s} {chk['construction']}: det(Q+{s}I) = {chk['det_shifted']} < 0, "
                "witness re-verified on the graph"
            )
    return {"ok": ok, "s_values": out}, certs, ok


def _suite_prop5():
    b, D, alpha_max = 2, 12, 9
    scan = feasibility_scan(b, D, alpha_max, [(6, 6)])
    survivors = [str(a) for a in scan]
    claimed = list(PROP5_CLAIMED)
    extra = [a for a in survivors if a not in claimed]
    missing = [a for a in claimed if a not in survivors]
    ok = not extra and not missing
    results = {
        "ok": ok,
        "survivors": survivors,
        "claimed": claimed,
        "extra_survivors": extra,
        "missing_survivors": missing,
        "candidates": scan.candidates,
        "leading_constant": p66_leading_constant(2),
        "leading_constant_claimed": 230674393235,
    }
    if results["leading_constant"] != results["leading_constant_claimed"]:
        ok = results["ok"] = False
    certs = [f"exact scan over alpha = k/{b + 1}, k = 0..{alpha_max * (b + 1)}, "
             f"{scan.candidates} tested exactly: survivors {survivors}"]
    return results, certs, ok


def _suite_alphab(bs, full: bool):
    if full:
        bs = tuple(range(2, 101))
    D = 14
    results = []
    ok = True
    for b in bs:
        # up to the paper's bound alpha <= b^2(b+1) + f(D, b)
        alpha_max = theorem_beta_bounds(b, D, 0).alpha_bound
        survivors = feasibility_scan(b, D, alpha_max, FIVE_CHECKS)
        root = math.isqrt(b)
        square = root * root == b
        allowed = [a for a in survivors if a <= b or (square and a == b + root)]
        good = allowed == survivors
        ok = ok and good
        results.append({
            "b": b,
            "square": square,
            "survivors": [str(a) for a in survivors],
            "candidates": survivors.candidates,
            "offending": [str(a) for a in survivors if a not in allowed],
            "ok": good,
        })
    return {"ok": ok, "per_b": results}, [], ok


def _suite_beta():
    f9 = {b: theorem_beta_bounds(b, 9, 0).f for b in range(2, 100)}
    violations = [{"b": b, "f": str(f)} for b, f in f9.items() if not f < 6]
    f_small_claim = not violations
    tail = (100 + 1) * theorem_beta_bounds(100, 10, 0).f
    tail_claim = tail < 1
    mono = f9[2] > theorem_beta_bounds(2, 10, 0).f and f9[2] > f9[3]
    ok = f_small_claim and tail_claim and mono
    results = {
        "ok": ok,
        "f_below_6_for_b_2_to_99": f_small_claim,
        "f_violations": violations,
        "tail_bound_101_f_10_100": str(tail),
        "tail_bound_below_1": tail_claim,
        "monotonic_spot_checks": mono,
    }
    certs = [f"101 * f(10,100) = {tail} (exact)"]
    return results, certs, ok


def _suite_thresholds():
    n1_ok = n1_threshold(3) == 48
    # (phi, sigma, p) of the nine expansions: fat count, slim count, clique order
    n2_args = []
    for name, p in PROP_CAL_PAIRS:
        h = catalog(name).hoffman
        n2_args.append((h.n_fat, h.n_slim, p))
    per_c = []
    ok = n1_ok
    for c in range(1, 21):
        th = thresholds(3, c)
        worst = max(n2_threshold(phi, sigma, p, th.c_tilde) for phi, sigma, p in n2_args)
        good = th.q >= worst and th.q >= th.n1
        ok = ok and good
        per_c.append({"c": c, "q": th.q, "max_n2": worst, "ok": good})
    results = {"ok": ok, "n1_3": n1_threshold(3), "n1_3_is_48": n1_ok, "per_c": per_c}
    return results, [], ok


def _cmd_verify_paper(args, timings):
    suites = {
        "cal": _suite_cal,
        "prop215": lambda: _suite_prop215(args.s_max),
        "prop5": _suite_prop5,
        "alphab": lambda: _suite_alphab(args.bs or ALPHAB_DESK_BS, args.full),
        "beta": _suite_beta,
        "thresholds": _suite_thresholds,
    }
    combined = {}
    certs = []
    ok = True
    for name in suites if args.suite == "all" else (args.suite,):
        t0 = time.perf_counter()
        results, suite_certs, suite_ok = suites[name]()
        timings[name] = (time.perf_counter() - t0) * 1000.0
        combined[name] = results
        certs.extend(suite_certs)
        ok = ok and suite_ok
    if args.suite == "all":
        combined["ok"] = ok
    else:
        combined = combined[args.suite]
    return combined, certs, 0 if ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1

    handlers = {
        "lambda-min": _cmd_lambda_min,
        "assoc": _cmd_assoc,
        "bose-laskar": _cmd_bose_laskar,
        "check-intro2": _cmd_check_intro2,
        "scan-forbidden": _cmd_scan_forbidden,
        "verify-paper": _cmd_verify_paper,
    }
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        if args.cmd == "drg":
            handler = _cmd_drg_scan if args.drg_cmd == "scan" else _cmd_drg_params
            command = f"drg {args.drg_cmd}"
        else:
            handler = handlers[args.cmd]
            command = args.cmd if args.cmd != "verify-paper" else f"verify-paper {args.suite}"
        results, certs, code = handler(args, timings)
    except (OSError, ValueError, json.JSONDecodeError, HoffmanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    timings["total"] = (time.perf_counter() - t0) * 1000.0
    inputs = {
        k: v for k, v in vars(args).items()
        if k not in ("cmd", "format", "drg_cmd") and v is not None and not callable(v)
    }
    report = _report(command, {k: str(v) for k, v in inputs.items()}, results, certs, timings)
    _emit(report, args.format)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
