"""Exact arithmetic for distance-regular graphs with classical parameters.

Intersection numbers, eigenvalues (one closed form; the tests check it
against the other), the clique bound, the local-graph parameters and the
feasibility scans are all evaluated over exact rationals.  The scans decide
the integrality of the triple-intersection numbers p^{i+h}_{ih} in integer
arithmetic, take alpha on the grid k/(b+1) (forced by the integrality of c_2
and c_3) and never touch floating point.

A scan does not test every grid point; two sieves pick the k it tests.
For a check (i, h) with i, h >= 2, k+b+1 divides the denominator of
p^{i+h}_{ih}, and a survivor forces k+b+1 to divide a fixed integer R_ih; so
the exact test runs only on the divisors of G2 = gcd(R_ih) in range.  G2 is
a plain integer; its divisors are read over a prime set found in pure
Python: G2 divides the R_ih of the check with the least i+h, every prime of
which divides b or a cyclotomic value Phi_d(b) of its brackets [m]_b (b+1
is Phi_2(b)); these alone are factored, by trial division and Pollard rho,
and every prime is certified by deterministic Miller-Rabin (exact below
3.3e24, which covers D = 14 and b <= 100).  For a check with i, h >= 3,
(b+1)(k+1) divides that denominator too, and a survivor forces k+1 to
divide a second fixed integer; its gcd G3 over those checks is only a
modulus and is never factored.
Without a check with i, h >= 2, or when a factor cannot be certified prime,
the scan tests the whole grid, and refuses a grid of more than 10^6 points.

beta never enters the c_i-based integrality checks, so scans quantify over
alpha only.  b = 1 is supported for formula evaluation, scans require b >= 2.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import (
    IndexOutOfRange,
    NegativeIntersectionNumber,
    OrderingViolation,
    SearchBudgetExhausted,
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
    """The D+1 eigenvalues theta_i = [D-i]_b (beta - alpha [i]_b) - [i]_b, exact.

    For b >= 1 the list must be strictly decreasing, otherwise
    :class:`OrderingViolation` is raised (a diagnostic for infeasible
    parameters).
    """
    vals = []
    for i in range(p.D + 1):
        gi = gaussian(i, p.b)
        vals.append(gaussian(p.D - i, p.b) * (p.beta - p.alpha * gi) - gi)
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


# -- exact factoring, for the divisor route of the scans ------------------------------

# trial division runs over the primes below 100
_TRIAL_PRIMES = tuple(
    p for p in range(2, 100) if all(p % q for q in range(2, math.isqrt(p) + 1))
)
# a strong probable prime to the first 13 prime bases is prime below this
# bound (Sorenson and Webster 2015); larger factors are not certified
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_CERT_LIMIT = 3317044064679887385961981
# squarings Pollard rho may spend on one composite; b <= 100 at D = 14 needs
# at most about 5e4, a product of two primes near 1e11 about 8e5
_RHO_STEPS = 1 << 21
# grid points a scan may test one by one when no divisor route applies; at
# about 2.4 us a point this is 2.4 s, and at about 113 bytes a surviving
# Fraction the survivors of a full grid stay near 100 MB
_MAX_GRID_POINTS = 10**6


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases :data:`_MR_BASES`.

    ``False`` is always a proof of compositeness; ``True`` is a proof of
    primality only for ``n < _PRIME_CERT_LIMIT``.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int | None:
    """A proper divisor of the composite n by Brent's variant of Pollard rho.

    Deterministic: the polynomials x^2 + c for c = 1, 2, ... in turn.
    ``None`` after :data:`_RHO_STEPS` squarings, so that a composite with
    only huge prime factors cannot stall a scan.  Loops until the budget on
    a prime, so callers pass only n that :func:`_is_prime` rejects.
    """
    steps = 0
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps > _RHO_STEPS:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
        if g == n:
            # the batched product hit 0 mod n; redo the last batch one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def _factor(n: int) -> Counter | None:
    """The prime factorization of n >= 1 as {prime: exponent}.

    ``None`` when some prime factor is at least :data:`_PRIME_CERT_LIMIT`, so
    that its primality cannot be certified, or when Pollard rho cannot split
    a composite part within its budget.
    """
    factors: Counter = Counter()
    for p in _TRIAL_PRIMES:
        while n % p == 0:
            factors[p] += 1
            n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if _is_prime(m):
            if m >= _PRIME_CERT_LIMIT:
                return None
            factors[m] += 1
            continue
        d = _pollard_brent(m)
        if d is None:
            return None
        pending += [d, m // d]
    return factors


def _divisor_candidates(b: int, pairs, k_max: int, g: Sequence[int]) -> list[int] | None:
    """The k in 0..k_max that pass both sieves, or ``None`` (full grid).

    ``g[m]`` is [m]_b for m up to the largest i+h of ``pairs``.  Write
    u_j = b+1 + k[j-1]_b, so that c_j = [j]_b u_j / (b+1), and a survivor
    of check (i, h) has den_h | num_ih, where num_ih = prod_{m=i+1}^{i+h}
    [m]_b u_m and den_h = prod_{m=1}^{h} [m]_b u_m.

    The u_2 sieve: u_2 = k+b+1 divides den_h for h >= 2.  As
    u_m = -(b+1) b [m-2]_b modulo u_2, u_2 divides the fixed integer
    R2_ih = prod_{m=i+1}^{i+h} [m]_b (b+1) b [m-2]_b, which is 0 for i = 1.
    The k+b+1 are the divisors of G2 = gcd of the R2_ih over the checks
    with i, h >= 2.  G2 divides each of them, so every prime of G2 divides
    the R2_ih of the check with the least i+h: it divides b or one of the
    cyclotomic values Phi_d(b) (Phi_2(b) = b+1) that make up
    [m]_b = prod_{d | m, d > 1} Phi_d(b) for that check's brackets, and only
    those are factored.  The divisors are built over their primes, largest
    first so that the partial lists stay short, each power grown while it
    divides G2.

    The u_3 sieve: u_3 = (b+1)(k+1) divides den_h for h >= 3.  As
    u_m = -b^2 [m-3]_b modulo k+1, k+1 divides
    R3_ih = prod_{m=i+1}^{i+h} [m]_b b^2 [m-3]_b, which is 0 for i <= 2.  A
    divisor of G2 is kept only when k+1 divides G3 = gcd of the R3_ih over
    the checks with i, h >= 3 (G3 = 0, no constraint, when there is none).

    ``None`` when no check has i, h >= 2, or when b or one of those
    Phi_d(b) cannot be factored into certified primes: the divisors built
    over an incomplete prime set would miss survivors.
    """
    binding = [(i, h) for i, h in pairs if i >= 2 and h >= 2]
    if not binding:
        return None
    # G2 divides the R2_ih of every binding check, so the primes of the one
    # with the least i+h hold all of G2's: those of b and of the Phi_d(b) of
    # its brackets [i-1]_b .. [i+h]_b, Phi_2(b) = b+1 among them as i or i+1
    # is even; every divisor e > 1 of such a d is one too, so phi[e] is ready
    # in turn
    i, h = min(binding, key=sum)
    phi: dict[int, int] = {}
    for d in sorted({e for m in range(i - 1, i + h + 1) for e in range(2, m + 1) if m % e == 0}):
        phi[d] = g[d] // math.prod(phi[e] for e in phi if d % e == 0)
    primes = set()
    for n in (b, *phi.values()):
        factors = _factor(n)
        if factors is None:
            return None
        primes |= factors.keys()
    G2 = G3 = 0
    for i, h in binding:
        G2 = math.gcd(G2, math.prod(g[m] * (b + 1) * b * g[m - 2]
                                    for m in range(i + 1, i + h + 1)))
        if i >= 3 and h >= 3:
            G3 = math.gcd(G3, math.prod(g[m] * b * b * g[m - 3]
                                        for m in range(i + 1, i + h + 1)))
    hi = b + 1 + k_max
    divisors = [1]
    for p in sorted(primes, reverse=True):
        grown = []
        for d in divisors:
            grown.append(d)
            while (d := d * p) <= hi and G2 % d == 0:
                grown.append(d)
        divisors = grown
    ks = (d - b - 1 for d in divisors if d >= b + 1)
    return sorted(k for k in ks if G3 % (k + 1) == 0)


# -- feasibility scans ---------------------------------------------------------------

class ScanSurvivors(list):
    """The ascending survivors of a scan.

    ``candidates`` is the number of alpha values the exact test ran on.
    """

    candidates: int = 0


def feasibility_scan(
    b: int,
    D: int,
    alpha_max,
    checks: Sequence[tuple[int, int]],
) -> ScanSurvivors:
    """All alpha = k/(b+1), 0 <= alpha <= alpha_max, passing every p-number check.

    A value survives iff every requested p^{i+h}_{ih} is a non-negative
    integer.  Pure integer arithmetic: with alpha = k/(b+1) each c_j is
    [j]_b (b+1+k[j-1]_b) / (b+1) and the (b+1) powers cancel in the ratio.
    The result is deterministic, ascending, and independent of the order of
    ``checks``.

    The exact test runs only on the k that pass two sieves (see
    :func:`_divisor_candidates`): k+b+1 divides a fixed integer, necessary
    to survive a check with i, h >= 2, and k+1 divides another, necessary
    to survive a check with i, h >= 3.  Without a check with i, h >= 2, or
    when the first integer cannot be factored into certified primes, it
    runs on every k of the grid, and raises :class:`SearchBudgetExhausted`
    when that grid has more than :data:`_MAX_GRID_POINTS` points.  The
    candidate count is ``result.candidates``.
    """
    if b < 2:
        raise ValueError("scan mode requires b >= 2")
    checklist = [(int(i), int(h)) for i, h in checks]
    for i, h in checklist:
        if i < 1 or h < 1 or i + h > D:
            raise IndexOutOfRange(f"check ({i},{h}) invalid for D = {D}")
    g = [gaussian(j, b) for j in range(max((i + h for i, h in checklist), default=0) + 1)]
    prepared = []
    # cheapest checks first; the survivor set is a conjunction, so the
    # evaluation order cannot change the result
    for i, h in sorted(set(checklist), key=lambda ih: (ih[1], ih[0])):
        num_const = math.prod(g[j] for j in range(i + 1, i + h + 1))
        den_const = math.prod(g[j] for j in range(1, h + 1))
        num_idx = list(range(i + 1, i + h + 1))
        den_idx = list(range(1, h + 1))
        prepared.append((num_const, den_const, num_idx, den_idx))
    survivors = ScanSurvivors()
    k_max = math.floor(Fraction(alpha_max) * (b + 1))
    candidates = _divisor_candidates(b, checklist, k_max, g)
    if candidates is None:
        if k_max + 1 > _MAX_GRID_POINTS:
            raise SearchBudgetExhausted(
                f"the alpha grid has {k_max + 1} points, more than the "
                f"{_MAX_GRID_POINTS} a scan tests one by one"
            )
        candidates = range(k_max + 1)
    for k in candidates:
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
    survivors.candidates = len(candidates)
    return survivors


# -- degree-regime bounds --------------------------------------------------------------

@dataclass(frozen=True)
class BetaBounds:
    """The four exact quantities of the large-diameter degree argument at (b, D, alpha).

    ``f`` is computed by :func:`theorem_beta_bounds`; ``alpha_bound``, ``g``
    and ``beta_bound`` on first read, and cached.  A report reads ``f`` or
    ``alpha_bound`` alone, and ``g`` and ``beta_bound`` cost the most.
    """

    b: int
    D: int
    alpha: Fraction
    f: Fraction

    @cached_property
    def alpha_bound(self) -> Fraction:
        return self.b * self.b * (self.b + 1) + self.f

    @cached_property
    def g(self) -> Fraction:
        b, bp, alpha = self.b, self.b + 1, self.alpha
        bracket = Fraction(b ** (self.D - 1) - 1, b - 1)
        return alpha * (bracket - Fraction(bp**2 * (bp**2 + 1), 2)) - bp**5 * b - (b - 1) * bp

    @cached_property
    def beta_bound(self) -> Fraction:
        b, bp, alpha = self.b, self.b + 1, self.alpha
        return (
            (b * bp**2 - alpha) * Fraction(b**self.D - 1, b - 1)
            + bp**6 * b
            + (Fraction(bp**3 * (bp**2 + 1), 2) + 1) * alpha
            - b
        )


def theorem_beta_bounds(b: int, D: int, alpha) -> BetaBounds:
    """The four exact quantities of the large-diameter degree argument.

    f(D,b) = b(b+1)^7 / (2 b^(D-1) - b(b+1)^4);
    g(D,b,alpha) = alpha((b^(D-1)-1)/(b-1) - (b+1)^2((b+1)^2+1)/2)
                   - (b+1)^5 b - (b-1)(b+1);
    alpha_bound = b^2(b+1) + f(D,b);
    beta_bound = (b(b+1)^2 - alpha)(b^D-1)/(b-1) + (b+1)^6 b
                 + ((b+1)^3((b+1)^2+1)/2 + 1) alpha - b.

    Only f is evaluated here; the other three when first read (see
    :class:`BetaBounds`).
    """
    if b < 2 or D < 9:
        raise ValueError("defined for b >= 2 and D >= 9")
    alpha = Fraction(alpha)
    bp = b + 1
    denom = 2 * b ** (D - 1) - b * bp**4
    if denom <= 0:
        raise ValueError("denominator of f is not positive")
    f = Fraction(b * bp**7, denom)
    return BetaBounds(b=b, D=D, alpha=alpha, f=f)


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
