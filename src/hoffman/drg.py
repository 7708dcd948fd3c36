"""Exact arithmetic for distance-regular graphs with classical parameters.

Intersection numbers, eigenvalues, the clique bound, triple-intersection
integrality, and the feasibility scans are all evaluated over exact
rationals; the scans enumerate alpha on the grid k/(b+1) (forced by the
integrality of c_2 and c_3) and never touch floating point.

beta never enters the c_i-based integrality checks, so scans quantify over
alpha only.  b = 1 is supported for formula evaluation, scans require b >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    IndexOutOfRange,
    NegativeIntersectionNumber,
    OrderingViolation,
    VerificationError,
)


def gaussian(i: int, b: int) -> int:
    """The bracket [i; 1]_b = b^(i-1) + ... + b + 1, with [0] = 0."""
    if i < 0:
        raise ValueError("i must be non-negative")
    if i == 0:
        return 0
    if b == 1:
        return i
    # b - 1 divides b^i - 1 exactly, so this is the geometric sum
    return (b**i - 1) // (b - 1)


@dataclass(frozen=True)
class ClassicalParams:
    """Parameter tuple (D, b, alpha, beta); alpha and beta exact rationals."""

    D: int
    b: int
    alpha: Fraction
    beta: Fraction

    def __init__(self, D: int, b: int, alpha, beta):
        if D < 1:
            raise ValueError("D must be at least 1")
        if b < 1:
            raise ValueError("b must be a positive integer here (b <= -2 is out of scope)")
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", Fraction(alpha))
        object.__setattr__(self, "beta", Fraction(beta))


@dataclass(frozen=True)
class IntersectionArray:
    """Exact lists c_0..c_D, b_0..b_D, a_0..a_D and the degree k = b_0."""

    c: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    a: tuple[Fraction, ...]
    k: Fraction


def c_number(p: ClassicalParams, i: int) -> Fraction:
    if i == 0:
        return Fraction(0)
    return gaussian(i, p.b) * (1 + p.alpha * gaussian(i - 1, p.b))


def b_number(p: ClassicalParams, i: int) -> Fraction:
    return (gaussian(p.D, p.b) - gaussian(i, p.b)) * (p.beta - p.alpha * gaussian(i, p.b))


def intersection_array(p: ClassicalParams) -> IntersectionArray:
    """All intersection numbers; raises on any negative entry (infeasible)."""
    cs = tuple(c_number(p, i) for i in range(p.D + 1))
    bs = tuple(b_number(p, i) for i in range(p.D + 1))
    k = bs[0]
    as_ = tuple(k - bs[i] - cs[i] for i in range(p.D + 1))
    for kind, seq in (("c", cs), ("b", bs), ("a", as_)):
        for i, v in enumerate(seq):
            if v < 0:
                raise NegativeIntersectionNumber(kind, i, v)
    return IntersectionArray(c=cs, b=bs, a=as_, k=k)


def eigenvalues(p: ClassicalParams) -> list[Fraction]:
    """The D+1 eigenvalues, exact; checked against both closed forms.

    For b >= 1 the list must be strictly decreasing, otherwise
    :class:`OrderingViolation` is raised (a diagnostic for infeasible
    parameters).
    """
    vals = []
    for i in range(p.D + 1):
        gi = gaussian(i, p.b)
        first = gaussian(p.D - i, p.b) * (p.beta - p.alpha * gi) - gi
        second = b_number(p, i) / Fraction(p.b) ** i - gi
        if first != second:
            raise VerificationError(f"eigenvalue closed forms disagree at i={i}")
        vals.append(first)
    if any(vals[i] <= vals[i + 1] for i in range(p.D)):
        raise OrderingViolation(f"eigenvalues not strictly decreasing: {vals}")
    return vals


def delsarte_bound(p: ClassicalParams) -> Fraction:
    """Clique order bound 1 + k / (-lambda_min); equals 1 + beta for b >= 1."""
    lam_min = eigenvalues(p)[p.D]
    if lam_min >= 0:
        raise ValueError("smallest eigenvalue must be negative")
    k = b_number(p, 0)
    bound = 1 + k / (-lam_min)
    if bound != 1 + p.beta:
        raise VerificationError("clique bound failed to simplify to 1 + beta")
    return bound


def check_ie1(p: ClassicalParams) -> bool:
    """beta - 1 >= alpha [D-1]_b, equivalently a_D >= 0."""
    lhs = p.beta - 1 - p.alpha * gaussian(p.D - 1, p.b)
    a_d = gaussian(p.D, p.b) * lhs
    if (lhs >= 0) != (a_d >= 0):
        raise VerificationError("(IE1) and a_D >= 0 disagree")
    return lhs >= 0


# -- triple intersection numbers ---------------------------------------------------

def p_number(p: ClassicalParams, i: int, h: int) -> tuple[Fraction, bool]:
    """p^{i+h}_{ih} = c_{i+1}...c_{i+h} / (c_1...c_h), with integrality flag.

    Computed two independent ways (one product of c's over another, and an
    incremental ratio product) and checked equal.
    """
    if i < 1 or h < 1 or i + h > p.D:
        raise IndexOutOfRange(f"need i, h >= 1 and i + h <= D = {p.D}; got ({i}, {h})")
    num = Fraction(1)
    den = Fraction(1)
    for j in range(i + 1, i + h + 1):
        num *= c_number(p, j)
    for j in range(1, h + 1):
        den *= c_number(p, j)
    direct = num / den
    incremental = Fraction(1)
    for j in range(1, h + 1):
        incremental *= c_number(p, i + j) / c_number(p, j)
    if direct != incremental:
        raise VerificationError("triple-intersection routes disagree")
    return direct, direct.denominator == 1 and direct >= 0


def p66_leading_constant(b: int) -> int:
    """The alpha-free factor of p^{12}_{66}: product of bracket ratios."""
    num = 1
    den = 1
    for j in range(7, 13):
        num *= gaussian(j, b)
    for j in range(1, 7):
        den *= gaussian(j, b)
    if num % den:
        raise VerificationError("bracket ratio is not integral")
    return num // den


# -- feasibility scans ---------------------------------------------------------------

def feasibility_scan(
    b: int,
    D: int,
    alpha_max,
    checks: Sequence[tuple[int, int]],
) -> list[Fraction]:
    """All alpha = k/(b+1), 0 <= alpha <= alpha_max, passing every p-number check.

    A value survives iff every requested p^{i+h}_{ih} is a non-negative
    integer.  Pure integer arithmetic: with alpha = k/(b+1) each c_j is
    [j]_b (b+1+k[j-1]_b) / (b+1) and the (b+1) powers cancel in the ratio.
    The result is deterministic, ascending, and independent of the order of
    ``checks``.
    """
    if b < 2:
        raise ValueError("scan mode requires b >= 2")
    checklist = [(int(i), int(h)) for i, h in checks]
    for i, h in checklist:
        if i < 1 or h < 1 or i + h > D:
            raise IndexOutOfRange(f"check ({i},{h}) invalid for D = {D}")
    g = [gaussian(j, b) for j in range(D + 1)]
    prepared = []
    # cheapest checks first; the survivor set is a conjunction, so the
    # evaluation order cannot change the result
    for i, h in sorted(set(checklist), key=lambda ih: (ih[1], ih[0])):
        num_const = math.prod(g[j] for j in range(i + 1, i + h + 1))
        den_const = math.prod(g[j] for j in range(1, h + 1))
        num_idx = list(range(i + 1, i + h + 1))
        den_idx = list(range(1, h + 1))
        prepared.append((num_const, den_const, num_idx, den_idx))
    survivors = []
    k_max = math.floor(Fraction(alpha_max) * (b + 1))
    for k in range(k_max + 1):
        ok = True
        for num_const, den_const, num_idx, den_idx in prepared:
            num = num_const
            for j in num_idx:
                num *= b + 1 + k * g[j - 1]
            den = den_const
            for j in den_idx:
                den *= b + 1 + k * g[j - 1]
            if num % den:
                ok = False
                break
        if ok:
            survivors.append(Fraction(k, b + 1))
    return survivors


# -- degree-regime bounds --------------------------------------------------------------

@dataclass(frozen=True)
class BetaBounds:
    f: Fraction
    g: Fraction
    alpha_bound: Fraction
    beta_bound: Fraction


def theorem_beta_bounds(b: int, D: int, alpha) -> BetaBounds:
    """The four exact quantities of the large-diameter degree argument.

    f(D,b) = b(b+1)^7 / (2 b^(D-1) - b(b+1)^4);
    g(D,b,alpha) = alpha((b^(D-1)-1)/(b-1) - (b+1)^2((b+1)^2+1)/2)
                   - (b+1)^5 b - (b-1)(b+1);
    alpha_bound = b^2(b+1) + f(D,b);
    beta_bound = (b(b+1)^2 - alpha)(b^D-1)/(b-1) + (b+1)^6 b
                 + ((b+1)^3((b+1)^2+1)/2 + 1) alpha - b.
    """
    if b < 2 or D < 9:
        raise ValueError("defined for b >= 2 and D >= 9")
    alpha = Fraction(alpha)
    bp = b + 1
    denom = 2 * b ** (D - 1) - b * bp**4
    if denom <= 0:
        raise ValueError("denominator of f is not positive")
    f = Fraction(b * bp**7, denom)
    bracket = Fraction(b ** (D - 1) - 1, b - 1)
    g = alpha * (bracket - Fraction(bp**2 * (bp**2 + 1), 2)) - bp**5 * b - (b - 1) * bp
    alpha_bound = b * b * bp + f
    beta_bound = (
        (b * bp**2 - alpha) * Fraction(b**D - 1, b - 1)
        + bp**6 * b
        + (Fraction(bp**3 * (bp**2 + 1), 2) + 1) * alpha
        - b
    )
    return BetaBounds(f=f, g=g, alpha_bound=alpha_bound, beta_bound=beta_bound)


# -- local graph data -------------------------------------------------------------------

@dataclass(frozen=True)
class LocalGraphParams:
    n: Fraction
    w: Fraction
    c_local: Fraction
    lambda_lb: Fraction


def local_graph_params(p: ClassicalParams) -> LocalGraphParams:
    """Order, valency, common-neighbor bound, and eigenvalue floor of local graphs.

    Local graphs are a_1-regular on b_0 vertices with at most c_2 - 1 common
    neighbors over non-adjacent pairs, and their smallest eigenvalue is at
    least -1 - b_1/(lambda_1 + 1).
    """
    if p.D < 3:
        raise ValueError("needs D >= 3")
    arr = intersection_array(p)
    lam1 = eigenvalues(p)[1]
    if lam1 + 1 <= 0:
        raise ValueError("second eigenvalue must exceed -1")
    return LocalGraphParams(
        n=arr.k,
        w=arr.a[1],
        c_local=arr.c[2] - 1,
        lambda_lb=-1 - arr.b[1] / (lam1 + 1),
    )
