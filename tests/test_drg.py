"""Classical-parameter arithmetic: arrays, eigenvalues, p-numbers, scans."""

import math
import random
import time
from fractions import Fraction

import pytest

from hoffman import (
    ClassicalParams,
    IndexOutOfRange,
    NegativeIntersectionNumber,
    OrderingViolation,
    SearchBudgetExhausted,
    VerificationError,
    check_ie1,
    delsarte_bound,
    eigenvalues,
    feasibility_scan,
    gaussian,
    intersection_array,
    local_graph_params,
    p66_leading_constant,
    theorem_beta_bounds,
)
from hoffman import drg


def doubled_family(D: int) -> ClassicalParams:
    """The (D, 2, 2, 2^(D+2) - 2) parameter family."""
    return ClassicalParams(D, 2, 2, 2 ** (D + 2) - 2)


def p_number(p: ClassicalParams, i: int, h: int) -> tuple[Fraction, bool]:
    """p^{i+h}_{ih} = c_{i+1}...c_{i+h} / (c_1...c_h) and its integrality (the reference).

    Computed two ways, one product of c's over another and an incremental
    ratio product, which must agree.
    """
    num = math.prod(drg.c_number(p, j) for j in range(i + 1, i + h + 1))
    den = math.prod(drg.c_number(p, j) for j in range(1, h + 1))
    direct = Fraction(num) / den
    incremental = math.prod(
        (drg.c_number(p, i + j) / drg.c_number(p, j) for j in range(1, h + 1)), start=Fraction(1)
    )
    assert direct == incremental, (p, i, h)
    return direct, direct.denominator == 1 and direct >= 0


# -- gaussian brackets -----------------------------------------------------------

def test_gaussian_values():
    assert gaussian(3, 2) == 7
    assert gaussian(4, 3) == 40
    assert gaussian(0, 5) == 0
    for b in (1, 2, 3, 7):
        assert gaussian(1, b) == 1
    assert gaussian(4, 1) == 4
    with pytest.raises(ValueError):
        gaussian(-1, 2)


# -- intersection arrays -----------------------------------------------------------

def test_intersection_array_doubled_family():
    arr = intersection_array(doubled_family(4))
    assert arr.c[1] == 1
    assert arr.c[2] == 9
    assert arr.b[4] == 0
    assert arr.c[0] == 0
    assert arr.k == arr.b[0]


def test_intersection_array_negative_raises():
    with pytest.raises(NegativeIntersectionNumber):
        intersection_array(ClassicalParams(3, 2, 10, 1))


def test_params_validation():
    with pytest.raises(ValueError):
        ClassicalParams(0, 2, 0, 1)
    with pytest.raises(ValueError):
        ClassicalParams(3, 0, 0, 1)


# -- eigenvalues --------------------------------------------------------------------

def test_eigenvalue_endpoints():
    p = doubled_family(4)
    eig = eigenvalues(p)
    arr = intersection_array(p)
    assert eig[0] == arr.k
    assert eig[p.D] == -gaussian(p.D, p.b)
    assert eig[p.D] == -(2**p.D - 1)


def test_eigenvalues_strictly_decreasing_for_feasible():
    rng = random.Random(1)
    for _ in range(50):
        D = rng.randint(2, 8)
        b = rng.randint(1, 5)
        alpha = Fraction(rng.randint(0, 3))
        beta = alpha * gaussian(D - 1, b) + rng.randint(1, 50)
        p = ClassicalParams(D, b, alpha, beta)
        try:
            intersection_array(p)
        except NegativeIntersectionNumber:
            continue
        eig = eigenvalues(p)
        assert all(eig[i] > eig[i + 1] for i in range(D))


def test_eigenvalue_ordering_violation():
    with pytest.raises(OrderingViolation):
        eigenvalues(ClassicalParams(3, 2, 0, -5))


def test_both_forms_agree_bulk():
    # eigenvalues() evaluates theta_i = [D-i]_b (beta - alpha [i]_b) - [i]_b;
    # the other closed form is theta_i = b_i / b^i - [i]_b.  Over a large
    # randomized sweep the library returns the second form's list exactly
    # when that list is strictly decreasing, and raises otherwise
    rng = random.Random(99)
    for _ in range(10_000):
        D = rng.randint(1, 14)
        b = rng.randint(1, 10)
        alpha = Fraction(rng.randint(-3, 9), rng.randint(1, 4))
        beta = Fraction(rng.randint(-20, 400), rng.randint(1, 3))
        p = ClassicalParams(D, b, alpha, beta)
        second = [drg.b_number(p, i) / Fraction(b) ** i - gaussian(i, b) for i in range(D + 1)]
        if all(second[i] > second[i + 1] for i in range(D)):
            assert eigenvalues(p) == second
        else:
            with pytest.raises(OrderingViolation):
                eigenvalues(p)


# -- clique bound ---------------------------------------------------------------------

def test_delsarte_bound_is_one_plus_beta():
    assert delsarte_bound(ClassicalParams(4, 2, 2, 62)) == 63


def test_delsarte_bound_mismatch_raises_verification_error(monkeypatch):
    # a clique bound that does not simplify to 1 + beta is a failed
    # verification, not an assert that python -O would strip
    p = ClassicalParams(4, 2, 2, 62)
    real = drg.eigenvalues(p)
    monkeypatch.setattr(drg, "eigenvalues", lambda q: real[:-1] + [real[-1] - 1])
    with pytest.raises(VerificationError):
        delsarte_bound(p)


def test_ie1_disagreement_raises_verification_error(monkeypatch):
    real = drg.gaussian
    monkeypatch.setattr(drg, "gaussian", lambda i, b: -real(i, b))
    with pytest.raises(VerificationError):
        check_ie1(ClassicalParams(5, 3, 0, 2))


def test_ie1_cases():
    assert check_ie1(ClassicalParams(5, 3, 0, 1))
    assert not check_ie1(ClassicalParams(5, 3, 0, Fraction(1, 2)))
    assert check_ie1(doubled_family(6))


# -- p-numbers ----------------------------------------------------------------------------

def test_p66_leading_constant_b2():
    assert p66_leading_constant(2) == 230674393235


def test_p66_constant_matches_alpha_zero_p_number():
    p = ClassicalParams(12, 2, 0, 10**6)
    value, integral = p_number(p, 6, 6)
    assert integral
    assert value == 230674393235


def test_p_number_alpha_zero_always_integral():
    for b in (2, 3):
        for D in range(2, 15):
            p = ClassicalParams(D, b, 0, 10**9)
            for i in range(1, D):
                for h in range(1, D - i + 1):
                    value, integral = p_number(p, i, h)
                    assert integral, (b, D, i, h, value)
            # and alpha = 0 survives the scan's exact test for every check
            checks = [(i, h) for i in range(1, D) for h in range(1, D - i + 1)]
            assert feasibility_scan(b, D, 0, checks) == [0]


def test_p_number_grassmann_style_alpha_two():
    value, integral = p_number(ClassicalParams(12, 2, 2, 10**6), 6, 6)
    assert integral
    assert value == 53210675694335413765225
    assert feasibility_scan(2, 12, 2, [(6, 6)])[-1] == 2


def test_p_number_index_validation():
    # the scans are the library's route to p-numbers; they need i, h >= 1
    # and i + h <= D
    with pytest.raises(IndexOutOfRange):
        feasibility_scan(2, 4, 2, [(0, 1)])
    with pytest.raises(IndexOutOfRange):
        feasibility_scan(2, 4, 2, [(2, 3)])


# -- feasibility scans -----------------------------------------------------------------------

def test_scan_b2_d12_includes_boundary_survivor():
    # exact survivor set of the single-check scan at alpha <= 9; the value 9
    # genuinely passes the integrality test (verified two independent ways)
    survivors = feasibility_scan(2, 12, 9, [(6, 6)])
    assert survivors == [
        Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1),
        Fraction(4, 3), Fraction(2), Fraction(9),
    ]


def test_scan_matches_p_number_route():
    for k in range(0, 28):
        alpha = Fraction(k, 3)
        p = ClassicalParams(12, 2, alpha, 10**9)
        _, integral = p_number(p, 6, 6)
        assert integral == (alpha in set(feasibility_scan(2, 12, 9, [(6, 6)])))


def test_scan_is_check_order_invariant():
    checks = [(5, 5), (3, 3), (4, 4)]
    base = feasibility_scan(3, 10, 12, checks)
    assert base == feasibility_scan(3, 10, 12, list(reversed(checks)))
    assert base == feasibility_scan(3, 10, 12, [(4, 4), (5, 5), (3, 3)])


def test_scan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        feasibility_scan(1, 12, 9, [(6, 6)])
    with pytest.raises(IndexOutOfRange):
        feasibility_scan(2, 10, 9, [(6, 6)])


def test_scan_desk_slice_b4():
    survivors = feasibility_scan(4, 14, 80, ((7, 7), (6, 6), (5, 5), (4, 4), (3, 3)))
    assert all(a <= 4 or a == 6 for a in survivors)
    assert Fraction(6) in survivors


# -- the divisor route of the scans, against a brute-force oracle -----------------------------

FIVE_CHECKS = ((7, 7), (6, 6), (5, 5), (4, 4), (3, 3))


def oracle_scan(b, D, alpha_max, checks):
    """Every k = 0..k_max tested: c_j = [j]_b (b+1 + k[j-1]_b), (b+1) powers cancelled."""
    g = [gaussian(j, b) for j in range(D + 1)]

    def c(j, k):
        return g[j] * (b + 1 + k * g[j - 1])

    survivors = []
    for k in range(math.floor(Fraction(alpha_max) * (b + 1)) + 1):
        if all(
            math.prod(c(j, k) for j in range(i + 1, i + h + 1))
            % math.prod(c(j, k) for j in range(1, h + 1)) == 0
            for i, h in sorted(checks, key=lambda ih: ih[1])
        ):
            survivors.append(Fraction(k, b + 1))
    return survivors


@pytest.mark.parametrize("b", [2, 3, 4, 5, 9, 16, 25])
def test_scan_matches_oracle_on_desk_slice(b):
    alpha_max = b * b * (b + 1)
    survivors = feasibility_scan(b, 14, alpha_max, FIVE_CHECKS)
    assert survivors == oracle_scan(b, 14, alpha_max, FIVE_CHECKS)
    # the divisor route ran: fewer exact tests than grid points
    assert len(survivors) <= survivors.candidates < alpha_max * (b + 1) + 1


def test_scan_matches_oracle_on_random_check_sets():
    rng = random.Random(2024)
    full_grid_runs = 0
    for _ in range(80):
        D = rng.randint(6, 14)
        b = rng.randint(2, 7)
        checks = []
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, D - 1)
            checks.append((i, rng.randint(1, D - i)))
        if rng.random() < 0.5:
            # an i = 1 or h = 1 check constrains no divisor; alone they
            # send the scan down the full grid
            i = rng.randint(1, D - 1)
            checks.append((1, rng.randint(1, D - 1)) if rng.random() < 0.5 else (i, 1))
        alpha_max = Fraction(rng.randint(0, b * b * (b + 1)), rng.randint(1, 3))
        survivors = feasibility_scan(b, D, alpha_max, checks)
        assert survivors == oracle_scan(b, D, alpha_max, checks), (b, D, alpha_max, checks)
        if all(i == 1 or h == 1 for i, h in checks):
            assert survivors.candidates == math.floor(alpha_max * (b + 1)) + 1
            full_grid_runs += 1
    assert full_grid_runs > 0


def test_scan_falls_back_when_factors_are_uncertified(monkeypatch):
    # with the certification limit below Phi_13(2) = 8191 no divisor list can
    # be trusted when the shortest binding check needs Phi_13(b), as (7, 7)
    # and (5, 8) do; the full grid must give the same survivors
    cases = [(2, 14, 12, [(7, 7)]), (9, 14, 810, [(7, 7)]), (3, 14, 36, [(5, 8)])]
    divisor_route = [feasibility_scan(*case) for case in cases]
    five = [(2, 14, 12, FIVE_CHECKS), (9, 14, 810, FIVE_CHECKS)]
    five_route = [feasibility_scan(*case) for case in five]
    monkeypatch.setattr(drg, "_PRIME_CERT_LIMIT", 1000)
    for case, expected in zip(cases, divisor_route):
        b, _, alpha_max, _ = case
        grid = alpha_max * (b + 1) + 1
        survivors = feasibility_scan(*case)
        assert survivors == expected == oracle_scan(*case)
        assert survivors.candidates == grid > expected.candidates
    # FIVE_CHECKS reads its primes off (3, 3), which needs only Phi_2..Phi_6,
    # so it stays on the divisor route
    for case, expected in zip(five, five_route):
        b, _, alpha_max, _ = case
        survivors = feasibility_scan(*case)
        assert survivors == expected == oracle_scan(*case)
        assert survivors.candidates == expected.candidates < alpha_max * (b + 1) + 1


def test_sieve_congruences():
    # u_m = b+1 + k[m-1]_b: u_3 = (b+1)(k+1), and the residues of u_m modulo
    # k+1 and k+b+1 that the two sieves of the divisor route rest on
    rng = random.Random(15)
    for _ in range(2000):
        b, k, m = rng.randint(2, 40), rng.randint(0, 10**4), rng.randint(3, 14)

        def u(j):
            return b + 1 + k * gaussian(j - 1, b)

        assert u(3) == (b + 1) * (k + 1)
        assert (u(m) + b * b * gaussian(m - 3, b)) % (k + 1) == 0, (b, k, m)
        assert (u(m) + (b + 1) * b * gaussian(m - 2, b)) % (k + b + 1) == 0, (b, k, m)


@pytest.mark.parametrize("b, checks", [
    *(pytest.param(b, FIVE_CHECKS, id=str(b)) for b in (2, 3, 9)),
    # bracket indices with gaps: (10, 2) needs no Phi_7 or Phi_8 and has no
    # u_3 sieve, (2, 2) with (9, 3) needs no Phi_7; (4, 4) alone has both sieves
    *(pytest.param(b, checks, id=f"{b}-" + "_".join(f"{i},{h}" for i, h in checks))
      for checks in ([(10, 2)], [(2, 2), (9, 3)], [(4, 4)]) for b in (2, 3, 5)),
])
def test_candidates_are_the_grid_points_passing_both_sieves(b, checks):
    # the gcds of the R products as plain integers, no factoring: the exact
    # test runs on the k with (k+b+1) | G2 and (k+1) | G3, and on no other;
    # G2 runs over the checks with i, h >= 2, G3 over those with i, h >= 3
    def rproduct(i, h, shift, factor):
        return math.prod(gaussian(m, b) * factor * gaussian(m - shift, b)
                         for m in range(i + 1, i + h + 1))

    G2 = G3 = 0
    for i, h in checks:
        G2 = math.gcd(G2, rproduct(i, h, 2, (b + 1) * b))
        if min(i, h) >= 3:
            G3 = math.gcd(G3, rproduct(i, h, 3, b * b))
    alpha_max = theorem_beta_bounds(b, 14, 0).alpha_bound
    k_max = math.floor(alpha_max * (b + 1))
    expected = sum(1 for k in range(k_max + 1) if G2 % (k + b + 1) == 0 and G3 % (k + 1) == 0)
    survivors = feasibility_scan(b, 14, alpha_max, checks)
    assert survivors.candidates == expected
    assert len(survivors) <= expected


def all_brackets_candidates(b, pairs, k_max, g):
    """The sieved k over the larger prime set: b and the Phi_d(b) of the
    brackets [i-1]_b .. [i+h]_b of every check with i, h >= 2, not of the
    shortest one alone; None when one of them is not factored."""
    binding = [(i, h) for i, h in pairs if i >= 2 and h >= 2]
    if not binding:
        return None
    phi = {}
    for d in sorted({e for i, h in binding for m in range(i - 1, i + h + 1)
                     for e in range(2, m + 1) if m % e == 0}):
        phi[d] = g[d] // math.prod(phi[e] for e in phi if d % e == 0)
    primes = set()
    for n in (b, *phi.values()):
        factors = drg._factor(n)
        if factors is None:
            return None
        primes |= factors.keys()
    G2 = G3 = 0
    for i, h in binding:
        G2 = math.gcd(G2, math.prod(g[m] * (b + 1) * b * g[m - 2] for m in range(i + 1, i + h + 1)))
        if i >= 3 and h >= 3:
            G3 = math.gcd(G3, math.prod(g[m] * b * b * g[m - 3] for m in range(i + 1, i + h + 1)))
    divisors = [1]
    for p in sorted(primes, reverse=True):
        grown = []
        for d in divisors:
            while d <= b + 1 + k_max and G2 % d == 0:
                grown.append(d)
                d *= p
        divisors = grown
    return sorted(d - b - 1 for d in divisors if d >= b + 1 and G3 % (d - b) == 0)


@pytest.mark.parametrize("checks", [FIVE_CHECKS, [(6, 6)]], ids=["five", "6,6"])
def test_shortest_check_primes_give_the_all_brackets_candidates(checks):
    # FIVE_CHECKS up to alpha_bound, as alphab scans it; a single check has
    # one prime set either way, so [(6, 6)] runs up to k = 10^6 only
    for b in range(2, 101):
        g = [gaussian(j, b) for j in range(15)]
        k_max = math.floor(theorem_beta_bounds(b, 14, 0).alpha_bound * (b + 1))
        if len(checks) == 1:
            k_max = min(k_max, 10**6)
        assert drg._divisor_candidates(b, checks, k_max, g) == \
            all_brackets_candidates(b, checks, k_max, g), b


def test_shortest_check_primes_on_random_check_lists():
    rng = random.Random(21)
    for _ in range(200):
        b = rng.randint(2, 60)
        checks = []
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, 13)
            checks.append((i, rng.randint(1, 14 - i)))
        k_max = rng.choice((10, 10**3, 10**5, 10**6))
        g = [gaussian(j, b) for j in range(15)]
        assert drg._divisor_candidates(b, checks, k_max, g) == \
            all_brackets_candidates(b, checks, k_max, g), (b, checks, k_max)


@pytest.mark.parametrize("b", [30, 33, 36, 50, 75, 100])
def test_scan_matches_oracle_on_large_b(b):
    assert feasibility_scan(b, 14, b + 2, FIVE_CHECKS) == oracle_scan(b, 14, b + 2, FIVE_CHECKS)


def test_full_grid_scan_is_capped(monkeypatch):
    # an i = 1 check leaves no divisor route; a grid over the cap is refused
    # before any point is tested, while the divisor route has no such limit
    with pytest.raises(SearchBudgetExhausted, match="3000000001 points"):
        feasibility_scan(2, 14, 10**9, [(1, 3)])
    assert feasibility_scan(2, 14, 10**9, [(6, 6)])[-1] == 17
    with pytest.raises(SearchBudgetExhausted, match="1000001 points"):
        feasibility_scan(2, 14, Fraction(10**6, 3), [(1, 3)])
    monkeypatch.setattr(drg, "_MAX_GRID_POINTS", 37)
    assert feasibility_scan(2, 14, 12, [(1, 3)]).candidates == 37
    with pytest.raises(SearchBudgetExhausted):
        feasibility_scan(2, 14, Fraction(37, 3), [(1, 3)])


def test_scan_brackets_stop_at_the_largest_check_index():
    # the brackets [j]_b are built up to max(i+h), not up to D: at D = 10^5
    # brackets up to [D]_2 alone would take seconds
    start = time.perf_counter()
    survivors = feasibility_scan(2, 10**5, 1, [(1, 1)])
    assert time.perf_counter() - start < 2
    assert survivors == [0, Fraction(1, 3), Fraction(2, 3), 1]


def test_miller_rabin_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5, 7 and 3825123056546413051 to every prime base up to 23
    for n in (561, 3215031751, 3825123056546413051, 1, 0, 41 * 43):
        assert not drg._is_prime(n), n
    for p in (2, 41, 8191, 100000000003, 2**61 - 1):
        assert drg._is_prime(p), p


def test_factor_splits_semiprime_near_1e11():
    p, q = 100000000003, 100000000019
    assert drg._factor(p * q) == {p: 1, q: 1}
    assert drg._factor(2**10 * 3 * p) == {2: 10, 3: 1, p: 1}
    assert drg._factor(1) == {}


def test_factor_refuses_uncertifiable_prime(monkeypatch):
    monkeypatch.setattr(drg, "_PRIME_CERT_LIMIT", 10**6)
    assert drg._factor(8191 * 7) == {7: 1, 8191: 1}
    assert drg._factor(100000000003 * 6) is None


def test_factor_gives_up_after_rho_budget(monkeypatch):
    # a composite that rho cannot split in budget is not factored, and the
    # scan that needs it, here for a Phi_d(97) with 7 <= d <= 14, tests the
    # whole grid instead
    five_route = feasibility_scan(97, 14, 3, FIVE_CHECKS)
    monkeypatch.setattr(drg, "_RHO_STEPS", 64)
    assert drg._factor(100000000003 * 100000000019) is None
    assert drg._factor(101 * 103) == {101: 1, 103: 1}
    survivors = feasibility_scan(97, 14, 3, [(7, 7)])
    assert survivors == oracle_scan(97, 14, 3, [(7, 7)])
    assert survivors.candidates == 3 * 98 + 1
    # FIVE_CHECKS needs only Phi_2(97)..Phi_6(97), which split in budget
    survivors = feasibility_scan(97, 14, 3, FIVE_CHECKS)
    assert survivors == five_route == oracle_scan(97, 14, 3, FIVE_CHECKS)
    assert survivors.candidates == five_route.candidates < 3 * 98 + 1


# -- degree-regime bounds ----------------------------------------------------------------------

def test_f_value_at_b2_exact():
    # 2 * 3^7 / (2 * 2^8 - 2 * 3^4) = 4374/350 = 2187/175, which exceeds 6
    bounds = theorem_beta_bounds(2, 9, 0)
    assert bounds.f == Fraction(2187, 175)
    assert bounds.f > 6


def test_f_below_six_for_b_three_to_99():
    for b in range(3, 100):
        assert theorem_beta_bounds(b, 9, 0).f < 6, b


def test_f_tail_bound():
    assert 101 * theorem_beta_bounds(100, 10, 0).f < 1


def test_f_monotone_spot_checks():
    assert theorem_beta_bounds(2, 9, 0).f > theorem_beta_bounds(2, 10, 0).f
    assert theorem_beta_bounds(2, 9, 0).f > theorem_beta_bounds(3, 9, 0).f
    assert theorem_beta_bounds(3, 11, 0).f < theorem_beta_bounds(3, 10, 0).f


def test_g_value_by_hand():
    # D=9, b=2, alpha=2: bracket = 255, correction = 45, so
    # g = 2*(255-45) - 486 - 3 = -69
    assert theorem_beta_bounds(2, 9, 2).g == -69


def test_beta_bound_formula_by_hand():
    b, D, alpha = 2, 9, Fraction(0)
    bounds = theorem_beta_bounds(b, D, alpha)
    assert bounds.beta_bound == 2 * 9 * Fraction(2**9 - 1) + 3**6 * 2 - 2
    assert bounds.alpha_bound == 12 + bounds.f


def test_alpha_bound_grid_is_b_squared_b_plus_one_squared():
    # alphab scans alpha = k/(b+1) up to alpha_bound = b^2(b+1) + f(14, b);
    # 0 < f(b+1) < 1, so the grid ends at the old cubic limit b^2(b+1)
    for b in range(2, 101):
        bound = theorem_beta_bounds(b, 14, 0).alpha_bound
        assert math.floor(bound * (b + 1)) == b * b * (b + 1) ** 2, b


def _eager_beta_bounds(b: int, D: int, alpha: Fraction) -> tuple:
    """(f, g, alpha_bound, beta_bound), each written out from the formulas at once."""
    bp = b + 1
    f = Fraction(b * bp**7, 2 * b ** (D - 1) - b * bp**4)
    g = (alpha * (Fraction(b ** (D - 1) - 1, b - 1) - Fraction(bp**2 * (bp**2 + 1), 2))
         - bp**5 * b - (b - 1) * bp)
    alpha_bound = b**2 * bp + f
    beta_bound = ((b * bp**2 - alpha) * Fraction(b**D - 1, b - 1) + bp**6 * b
                  + (Fraction(bp**3 * (bp**2 + 1), 2) + 1) * alpha - b)
    return f, g, alpha_bound, beta_bound


def test_lazy_beta_bounds_match_the_eager_formulas():
    for b in range(2, 41):
        for D in range(9, 15):
            for alpha in (Fraction(0), Fraction(1, 3), Fraction(b)):
                bounds = theorem_beta_bounds(b, D, alpha)
                # g and beta_bound are not evaluated until read
                assert "g" not in vars(bounds) and "beta_bound" not in vars(bounds)
                got = (bounds.f, bounds.g, bounds.alpha_bound, bounds.beta_bound)
                assert got == _eager_beta_bounds(b, D, alpha), (b, D, alpha)
                assert (bounds.g, bounds.beta_bound) == got[1::2]


def test_beta_bounds_domain():
    with pytest.raises(ValueError):
        theorem_beta_bounds(2, 8, 0)
    with pytest.raises(ValueError):
        theorem_beta_bounds(1, 9, 0)


# -- local graphs ---------------------------------------------------------------------------------

def test_local_graph_params_b2():
    p = doubled_family(5)
    local = local_graph_params(p)
    assert local.lambda_lb == -3
    assert local.c_local == 3 * p.alpha + 2
    assert local.w == p.beta - 1 + p.alpha * (2**p.D - 2)
    assert local.n == intersection_array(p).k


def test_local_graph_needs_diameter_three():
    with pytest.raises(ValueError):
        local_graph_params(ClassicalParams(2, 2, 0, 5))


def test_scan_prefix_consistency():
    # partitioning the alpha grid and merging chunk results must equal one
    # big scan; with a shared lower end of 0 this reduces to prefix stability
    small = feasibility_scan(3, 10, 5, [(3, 3), (4, 4)])
    large = feasibility_scan(3, 10, 12, [(3, 3), (4, 4)])
    assert small == [a for a in large if a <= 5]


def test_second_eigenvalue_identity():
    # lambda_1 = b_1 / b - 1, the relation behind the local eigenvalue floor
    rng = random.Random(3)
    for _ in range(30):
        D = rng.randint(2, 9)
        b = rng.randint(1, 6)
        alpha = Fraction(rng.randint(0, 3))
        beta = alpha * gaussian(D - 1, b) + rng.randint(1, 40)
        p = ClassicalParams(D, b, alpha, beta)
        try:
            arr = intersection_array(p)
        except NegativeIntersectionNumber:
            continue
        assert eigenvalues(p)[1] == arr.b[1] / Fraction(b) - 1
        assert arr.c[1] == 1


def test_local_graph_degree_gap_composition():
    # for the (D, 2, 2, 2^(D+2)-2) family: the local graph is mu-bounded with
    # c = 3*alpha + 2 = 8, every clique has order at most beta (the clique
    # bound), and the degree gap a_1 - beta = alpha(2^D - 2) - 1 crosses the
    # structural threshold K exactly at D = 11
    from hoffman import thresholds

    for D in range(9, 14):
        p = doubled_family(D)
        local = local_graph_params(p)
        c = int(local.c_local)
        assert c == 8
        th = thresholds(3, c)
        gap = local.w - p.beta
        assert gap == p.alpha * (2**p.D - 2) - 1
        assert (gap >= th.K) == (D >= 11)
