"""Command-line entry point.

One executable exposes the library operations and the verification suite for
the published computational claims.  Every subcommand emits a single Report
(JSON by default) that validates against :data:`REPORT_SCHEMA`.

Exit codes: 0 success, 1 usage or input error, 2 a claimed result failed to
reproduce under exact verification.

A new command is a subparser in :func:`build_parser` whose ``run`` default is
its handler, ``(args, timings) -> (results, certificates, exit code)``.  A new
``verify-paper`` suite is one entry of :data:`SUITES`.  Results may hold
Fractions; the report writes each as its "p/q" string.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from dataclasses import asdict
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
PROP5_LEADING_CONSTANT = 230674393235
ALPHAB_DESK_BS = (2, 3, 4, 5, 9, 16, 25)
FIVE_CHECKS = ((7, 7), (6, 6), (5, 5), (4, 4), (3, 3))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only integers and decimals as negative numbers, so a
        # value such as -5/2 or -1e0 would be taken for an option; every sign
        # form that Fraction reads is a value
        self._negative_number_matcher = re.compile(
            r"^-(\d+/\d+|(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)$")

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


def _json_value(value):
    """``json.dumps`` hook: a Fraction becomes its "p/q" string; any other
    type that JSON has no form for is an error, never a Python repr."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(report: dict, fmt: str) -> None:
    _validate_report(report)
    dumps = functools.partial(json.dumps, indent=2, sort_keys=True, default=_json_value)
    if fmt == "json":
        print(dumps(report))
    else:
        print(f"# {report['command']}")
        for key, value in report["inputs"].items():
            print(f"input {key} = {value}")
        print(dumps(report["results"]))
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
    # the docstring's last paragraph is for developers, not for --help
    parser = _Parser(prog="hoffman", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--format", choices=("json", "text"), default="json")
    # accept --format after the subcommand too; SUPPRESS keeps the top-level
    # value when the flag is absent there
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_parser(name, run, help, subparsers=sub):
        p = subparsers.add_parser(name, parents=[common], help=help)
        p.set_defaults(run=run)
        return p

    p = add_parser("lambda-min", _cmd_lambda_min, "smallest adjacency eigenvalue of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--at-least", type=_fraction, default=None,
                   help="also decide lambda_min >= this rational, exactly")

    p = add_parser("assoc", _cmd_assoc, "associated Hoffman graph at level q")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)

    p = add_parser("bose-laskar", _cmd_bose_laskar, "large-clique extraction through a vertex")
    p.add_argument("--graph", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--lam", type=_fraction, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--r", type=int, default=None)

    p = add_parser("check-intro2", _cmd_check_intro2, "structure-theorem condition report")
    p.add_argument("--graph", required=True)
    p.add_argument("--c", type=int, required=True)

    p = add_parser("scan-forbidden", _cmd_scan_forbidden, "forbidden principal-submatrix scan")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--hoffman", help="Hoffman graph JSON file")
    src.add_argument("--matrix", help="integer matrix JSON file")
    p.add_argument("--t", type=int, default=2)

    p = sub.add_parser("drg", parents=[common], help="distance-regular classical parameter tools")
    dsub = p.add_subparsers(dest="drg_cmd", required=True)
    ps = add_parser("scan", _cmd_drg_scan, "feasible alpha scan", dsub)
    ps.add_argument("--b", type=int, required=True)
    ps.add_argument("--D", type=int, required=True)
    ps.add_argument("--alpha-max", type=_fraction, required=True)
    ps.add_argument("--checks", type=_check_pair, action="append", required=True,
                    help="pair 'i,h'; repeat for several checks")
    pp = add_parser("params", _cmd_drg_params, "arrays, eigenvalues and bounds", dsub)
    pp.add_argument("--D", type=int, required=True)
    pp.add_argument("--b", type=int, required=True)
    pp.add_argument("--alpha", type=_fraction, required=True)
    pp.add_argument("--beta", type=_fraction, required=True)

    p = add_parser("verify-paper", _cmd_verify_paper, "re-run the published computational claims")
    p.add_argument("suite", choices=(*SUITES, "all"))
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
        results["at_least"] = {"threshold": args.at_least, "holds": verdict}
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
    # not asdict(res): it deep-copies every entry, tens of microseconds a call
    results = {
        "x": res.x,
        "independent_set": res.independent_set,
        "w_set": res.w_set,
        "clique1": res.clique1,
        "bound1": res.bound1,
        "clique2": res.clique2,
        "bound2": res.bound2,
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
    results = {"t": args.t, "source": source, "hit": None if hit is None else asdict(hit)}
    return results, [], 0


def _cmd_drg_scan(args, timings):
    results = {
        "b": args.b,
        "D": args.D,
        "alpha_max": args.alpha_max,
        "checks": args.checks,
        "survivors": feasibility_scan(args.b, args.D, args.alpha_max, args.checks),
    }
    return results, [], 0


def _cmd_drg_params(args, timings):
    p = ClassicalParams(args.D, args.b, args.alpha, args.beta)
    arr = intersection_array(p)
    results = {
        "D": p.D,
        "b": p.b,
        "alpha": p.alpha,
        "beta": p.beta,
        "k": arr.k,
        "c": arr.c,
        "b_seq": arr.b,
        "a": arr.a,
        "eigenvalues": eigenvalues(p),
        "delsarte_bound": delsarte_bound(p),
        "ie1_holds": check_ie1(p),
    }
    if p.D >= 3:
        local = local_graph_params(p)
        results["local_graph"] = {
            "n": local.n, "w": local.w, "c": local.c_local, "lambda_lb": local.lambda_lb,
        }
    return results, [], 0


# -- the verification suite -------------------------------------------------------
# Each suite takes the parsed arguments and returns (results, certificates);
# results["ok"] is its verdict.

def _suite_cal(args):
    try:
        checks = verify_proposition_cal()
    except VerificationError as exc:
        return {"ok": False, "error": str(exc)}, []
    certs = [f"({entry['pair']}, p={entry['p']}): rational witness with "
             f"x^T(A+3I)x < 0 on {entry['vertices']} vertices" for entry in checks]
    return {"ok": True, "checks": checks}, certs


def _suite_prop215(args):
    out = []
    certs = []
    for s in range(2, args.s_max + 1):
        try:
            r = prop215(s)
        except HoffmanError as exc:
            out.append({"s": s, "ok": False, "error": str(exc)})
            continue
        out.append(r)
        for chk in r["checks"]:
            certs.append(
                f"s={s} {chk['construction']}: det(Q+{s}I) = {chk['det_shifted']} < 0, "
                "witness re-verified on the graph"
            )
    return {"ok": all("error" not in r for r in out), "s_values": out}, certs


def _suite_prop5(args):
    b, D, alpha_max = 2, 12, 9
    scan = feasibility_scan(b, D, alpha_max, [(6, 6)])
    survivors = [str(a) for a in scan]
    claimed = list(PROP5_CLAIMED)
    extra = [a for a in survivors if a not in claimed]
    missing = [a for a in claimed if a not in survivors]
    constant = p66_leading_constant(b)
    results = {
        "ok": not extra and not missing and constant == PROP5_LEADING_CONSTANT,
        "survivors": survivors,
        "claimed": claimed,
        "extra_survivors": extra,
        "missing_survivors": missing,
        "candidates": scan.candidates,
        "leading_constant": constant,
        "leading_constant_claimed": PROP5_LEADING_CONSTANT,
    }
    certs = [f"exact scan over alpha = k/{b + 1}, k = 0..{alpha_max * (b + 1)}, "
             f"{scan.candidates} tested exactly: survivors {survivors}"]
    return results, certs


def _suite_alphab(args):
    D = 14
    bs = range(2, 101) if args.full else args.bs or ALPHAB_DESK_BS
    per_b = []
    for b in bs:
        # up to the paper's bound alpha <= b^2(b+1) + f(D, b)
        alpha_max = theorem_beta_bounds(b, D, 0).alpha_bound
        survivors = feasibility_scan(b, D, alpha_max, FIVE_CHECKS)
        root = math.isqrt(b)
        square = root * root == b
        offending = [a for a in survivors if not (a <= b or (square and a == b + root))]
        per_b.append({
            "b": b,
            "square": square,
            "survivors": survivors,
            "candidates": survivors.candidates,
            "offending": offending,
            "ok": not offending,
        })
    return {"ok": all(r["ok"] for r in per_b), "per_b": per_b}, []


def _suite_beta(args):
    f9 = {b: theorem_beta_bounds(b, 9, 0).f for b in range(2, 100)}
    violations = [{"b": b, "f": f} for b, f in f9.items() if not f < 6]
    tail = (100 + 1) * theorem_beta_bounds(100, 10, 0).f
    mono = f9[2] > theorem_beta_bounds(2, 10, 0).f and f9[2] > f9[3]
    results = {
        "ok": not violations and tail < 1 and mono,
        "f_below_6_for_b_2_to_99": not violations,
        "f_violations": violations,
        "tail_bound_101_f_10_100": tail,
        "tail_bound_below_1": tail < 1,
        "monotonic_spot_checks": mono,
    }
    return results, [f"101 * f(10,100) = {tail} (exact)"]


def _suite_thresholds(args):
    # (phi, sigma, p) of the nine expansions: fat count, slim count, clique order
    n2_args = []
    for name, p in PROP_CAL_PAIRS:
        h = catalog(name).hoffman
        n2_args.append((h.n_fat, h.n_slim, p))
    per_c = []
    for c in range(1, 21):
        th = thresholds(3, c)
        worst = max(n2_threshold(phi, sigma, p, th.c_tilde) for phi, sigma, p in n2_args)
        per_c.append({"c": c, "q": th.q, "max_n2": worst,
                      "ok": th.q >= worst and th.q >= th.n1})
    n1 = n1_threshold(3)
    results = {"ok": n1 == 48 and all(r["ok"] for r in per_c), "n1_3": n1,
               "n1_3_is_48": n1 == 48, "per_c": per_c}
    return results, []


SUITES = {
    "cal": _suite_cal,
    "prop215": _suite_prop215,
    "prop5": _suite_prop5,
    "alphab": _suite_alphab,
    "beta": _suite_beta,
    "thresholds": _suite_thresholds,
}


def _cmd_verify_paper(args, timings):
    combined = {}
    certs = []
    for name in SUITES if args.suite == "all" else (args.suite,):
        t0 = time.perf_counter()
        combined[name], suite_certs = SUITES[name](args)
        timings[name] = (time.perf_counter() - t0) * 1000.0
        certs.extend(suite_certs)
    ok = all(results["ok"] for results in combined.values())
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

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        results, certs, code = args.run(args, timings)
    except (OSError, ValueError, json.JSONDecodeError, HoffmanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    timings["total"] = (time.perf_counter() - t0) * 1000.0
    fields = vars(args)
    command = " ".join(fields[k] for k in ("cmd", "drg_cmd", "suite") if k in fields)
    inputs = {
        k: str(v) for k, v in fields.items()
        if k not in ("cmd", "format", "drg_cmd") and v is not None and not callable(v)
    }
    _emit(_report(command, inputs, results, certs, timings), args.format)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
