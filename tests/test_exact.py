"""Exact PSD decision, determinants, quotients, and the floating solver."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoffman import (
    Graph,
    NotEquitable,
    RationalMatrix,
    adjacency_rational,
    catalog,
    complete_graph,
    cycle_graph,
    det_exact,
    eigenvalues_float,
    graph_lambda_min_float,
    graph_quotient_matrix,
    m_matrix,
    psd_witness,
    quotient_eigenvalues_float,
    special_matrix,
)

from .conftest import (
    adjacency_fraction,
    fraction_rows,
    identity,
    line_graph_of_complete,
    petersen_graph,
    quadratic_form,
    quotient_matrix,
    random_graph,
)


def _sym(rows):
    return RationalMatrix(rows)


# -- RationalMatrix basics -------------------------------------------------------

def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2]])


def test_shift_and_json_roundtrip():
    M = _sym([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    S = M.shifted(Fraction(1, 3))
    assert fraction_rows(S)[0][0] == Fraction(1, 3)
    assert S.to_json() == [["1/3", "1/2"], ["1/2", "1/3"]]
    assert RationalMatrix(S.to_json()) == S
    # the shift builds a new matrix; its source is unchanged
    assert M.to_json() == [["0", "1/2"], ["1/2", "0"]]
    assert S == _sym([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]])


def test_value_semantics_across_denominators():
    # the same matrix reached through different common denominators
    A = _sym([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    B = _sym([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]]).shifted(
        Fraction(2, 3))
    C = RationalMatrix([["2/2", "3/6"], ["1/2", "4/4"]])
    assert A.den == B.den == C.den == 2
    assert A == B == C
    assert hash(A) == hash(B) == hash(C)
    assert A != A.shifted(1)
    assert A.shifted(Fraction(-1, 2)).shifted(Fraction(1, 2)) == A
    # a shift that clears every denominator lands on the integer matrix
    E = _sym([[Fraction(1, 2), 1], [1, Fraction(1, 2)]]).shifted(Fraction(1, 2))
    ones = _sym([[1, 1], [1, 1]])
    assert E.den == 1 and E == ones and hash(E) == hash(ones)


def test_shift_leaves_source_unchanged_and_json_strings():
    M = _sym([[0, 1, Fraction(1, 4)], [1, 2, 0], [Fraction(1, 4), 0, -1]])
    before = (M.num.copy(), M.den, M.to_json())
    S = M.shifted(Fraction(1, 3))
    assert S.to_json() == [["1/3", "1", "1/4"], ["1", "7/3", "0"], ["1/4", "0", "-2/3"]]
    N = M.shifted(Fraction(-2, 4))
    assert N.to_json() == [["-1/2", "1", "1/4"], ["1", "3/2", "0"], ["1/4", "0", "-3/2"]]
    assert (M.num == before[0]).all() and M.den == before[1] and M.to_json() == before[2]
    assert S.den == 12 and N.den == 4
    with pytest.raises(ValueError):
        M.num[0, 0] = 5  # the stored numerators are read-only


def test_entries_beyond_int64_are_stored_as_python_ints():
    top = 2**63 - 1
    assert _sym([[top, 0], [0, -top]]).num.dtype == np.int64
    for big in (2**63, -2**63, 2**64):
        M = _sym([[big, 1], [1, 0]])
        assert M.num.dtype == object
        assert fraction_rows(M)[0][0] == big
    # a shift that pushes an int64 entry past the range promotes, and back
    M = _sym([[top, 1], [1, 0]])
    assert M.shifted(1).num.dtype == object
    assert fraction_rows(M.shifted(1))[0][0] == 2**63
    assert M.shifted(1).shifted(-1) == M and M.shifted(1).shifted(-1).num.dtype == np.int64
    # a denominator that rescales an int64 matrix past the range
    H = _sym([[top // 2, 1], [1, 0]]).shifted(Fraction(1, 3))
    assert H.num.dtype == object and fraction_rows(H)[0][0] == top // 2 + Fraction(1, 3)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
def test_adjacency_matches_fraction_oracle_at_byte_boundaries(n):
    rng = random.Random(n)
    for G in (Graph(n), complete_graph(n) if n else Graph(0), random_graph(rng, n, 0.5)):
        A = adjacency_rational(G)
        assert A == adjacency_fraction(G)
        assert A.den == 1 and A.num.dtype == np.int64 and A.num.shape == (n, n)
        assert fraction_rows(A) == fraction_rows(adjacency_fraction(G))


# -- PSD decision -------------------------------------------------------------------

def test_identity_is_psd():
    assert psd_witness(identity(3)) is None


def test_negative_scalar_is_not_psd():
    assert psd_witness(_sym([[-1]])) is not None


def test_cycle_shift_examples():
    A = adjacency_rational(cycle_graph(5))
    # lambda_min(C5) = 2 cos(4 pi / 5) ~ -1.618, so A + 2I is PSD
    assert psd_witness(A.shifted(2)) is None
    assert psd_witness(A.shifted(Fraction(8, 5))) is not None


def test_zero_pivot_semidefinite_rule():
    # [[0, 1], [1, 0]] has a zero pivot with nonzero residual: indefinite
    M = _sym([[0, 1], [1, 0]])
    w = psd_witness(M)
    assert quadratic_form(M, w) < 0
    # an actual PSD matrix with a zero row
    assert psd_witness(_sym([[0, 0], [0, 2]])) is None


def test_psd_requires_symmetry():
    with pytest.raises(ValueError):
        psd_witness(RationalMatrix([[0, 1], [0, 0]]))


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 6))
    entry = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
    )
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = draw(entry)
    return RationalMatrix(rows)


@settings(max_examples=120, deadline=None)
@given(symmetric_matrices())
def test_psd_witness_is_sound(M):
    w = psd_witness(M)
    if w is None:
        assert min(eigenvalues_float(M)) >= -1e-8
    else:
        assert quadratic_form(M, w) < 0
    _assert_agrees_with_oracle(M)


# -- the Fraction LDL^T oracle ----------------------------------------------------

def _fraction_psd_witness(M):
    """Reference: LDL^T over Fractions with the semidefinite pivot rule.

    A negative pivot refutes PSD; a zero pivot whose column has a nonzero
    residual refutes PSD via the indefinite 2x2 block it exposes; a zero pivot
    with a zero column is skipped.  Only the lower triangle is stored.
    """
    n = M.order
    rows = fraction_rows(M)
    W = [[rows[i][j] for j in range(i + 1)] for i in range(n)]
    # column_mults[k] holds (i, l_ik) for rows eliminated against pivot k
    column_mults = [[] for _ in range(n)]

    def back_substitute(rhs, upto):
        # solve L^T x = rhs with L unit lower triangular (recorded columns);
        # rhs is supported on indices <= upto and x vanishes above it
        x = [Fraction(0)] * n
        for i in range(upto, -1, -1):
            acc = rhs.get(i, Fraction(0))
            for j, lji in column_mults[i]:
                if x[j]:
                    acc -= lji * x[j]
            x[i] = acc
        return x

    for k in range(n):
        d = W[k][k]
        if d < 0:
            return back_substitute({k: Fraction(1)}, k)
        if d == 0:
            residual = next((i for i in range(k + 1, n) if W[i][k] != 0), None)
            if residual is None:
                continue
            m = W[residual][k]
            c = W[residual][residual]
            return back_substitute({k: -(c + 1) / (2 * m), residual: Fraction(1)}, residual)
        col = [None] * k + [W[i][k] for i in range(k, n)]
        for i in range(k + 1, n):
            if col[i] == 0:
                continue
            f = col[i] / d
            column_mults[k].append((i, f))
            row_i = W[i]
            for j in range(k + 1, i + 1):
                if col[j]:
                    row_i[j] -= f * col[j]
    return None


def _assert_agrees_with_oracle(M):
    w = psd_witness(M)
    ref = _fraction_psd_witness(M)
    assert (w is None) == (ref is None)
    for x in (w, ref):
        if x is not None:
            assert quadratic_form(M, x) < 0
    if w is not None:
        _assert_oracle_witness(w, M)


def _assert_oracle_witness(w, M):
    """The integer back-substitution gives the oracle's Fractions exactly,
    and Fraction(0), not an int, at every index outside the support.  The
    kernel decides on ``M.num``, and the oracle's zero-pivot coefficient
    -(c + 1) / (2m) is not invariant under scaling, so the oracle runs on
    ``M.num`` too."""
    ref = _fraction_psd_witness(RationalMatrix.fraction_free(M.num.copy(), 1))
    assert w == ref
    assert all(type(v) is Fraction for v in w)
    assert all(v == Fraction(0) for v, r in zip(w, ref) if not r)


def test_integer_kernel_matches_oracle_on_criterion_7d_matrices():
    # the 500 matrices of acceptance criterion 7d, same generator and seed
    rng = random.Random(424242)
    for _ in range(500):
        n = rng.randint(1, 8)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        _assert_agrees_with_oracle(RationalMatrix(rows))


@pytest.mark.parametrize("m", range(5, 11))
def test_integer_kernel_matches_oracle_on_line_graphs(m):
    # lambda_min(L(K_m)) = -2: refuted at shift 1, singular at 2, definite at 5/2 and 3
    A = adjacency_rational(line_graph_of_complete(m))
    for t in (1, 2, 3, Fraction(5, 2)):
        _assert_agrees_with_oracle(A.shifted(t))
    assert psd_witness(A.shifted(1)) is not None
    assert psd_witness(A.shifted(2)) is None


# -- the int64 elimination and its one-time promotion --------------------------------

@pytest.fixture
def no_certificate(monkeypatch):
    """Neither the certificate nor the dominance check proves PSD, so every
    matrix is decided by Bareiss elimination."""
    import hoffman.exact as exact

    monkeypatch.setattr(exact, "_dominance_certificate", lambda A, lambda_min: False)
    monkeypatch.setattr(exact, "_diagonally_dominant", lambda A: False)


def _minor(rows, k):
    return det_exact(RationalMatrix([row[:k] for row in rows[:k]]))


def _crossing_matrices():
    """Definite Gram matrices B^T B + I of order 12 whose leading 2x2 minor is
    below 2^31 and whose determinant is above 2^63: the elimination starts in
    int64 and must promote partway.  Each comes with a copy whose last
    diagonal entry is lowered just enough to make the determinant negative, so
    the last pivot refutes after the promotion."""
    rng = random.Random(63)
    out = []
    while len(out) < 12:
        n = 12
        B = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
        rows = [[sum(B[k][i] * B[k][j] for k in range(n)) + (i == j) for j in range(n)]
                for i in range(n)]
        det = _minor(rows, n)
        if not (_minor(rows, 2) < 2**31 and det > 2**63):
            continue
        lowered = [row[:] for row in rows]
        lowered[-1][-1] -= det // _minor(rows, n - 1) + 1
        out += [rows, lowered]
    return out


def test_int64_kernel_promotes_once_and_matches_oracle(no_certificate):
    for rows in _crossing_matrices():
        M = RationalMatrix(rows)
        assert M.num.dtype == np.int64
        w = psd_witness(M)
        assert w == _fraction_psd_witness(M)
        assert (w is None) == (det_exact(M) > 0)
        if w is not None:
            assert quadratic_form(M, w) < 0


_TOP, _LOW = 2**63 - 1, -2**63


def _int64_limit_matrices():
    top, low = _TOP, _LOW
    return [
        [[top, 1], [1, 1]],
        [[top, top], [top, top]],
        [[top, top], [top, top - 1]],
        [[top, -top], [-top, top]],
        [[-top, 0], [0, 1]],
        [[1, top], [top, 1]],
        [[low, 0], [0, 1]],
        [[1, low], [low, 1]],
        [[-low, low], [low, -low]],
        [[top, 0, top], [0, top, top], [top, top, top]],
        [[2, 1, 0], [1, top, low], [0, low, -low]],
        # each term of the bound alone crosses 2^63: c^2, then p * T
        [[1, 2**32], [2**32, 1]],
        [[4, 3 * 2**31], [3 * 2**31, 2**62]],
        [[2**32, 1], [1, 2**32]],
        [[2**32, 2**31], [2**31, 2**30]],
    ]


def test_refutation_after_promotion_matches_the_oracle(no_certificate):
    # the lowered crossing matrices start in int64 and refute at the last
    # pivot, after the promotion; a matrix beyond int64 is dtype=object from
    # the start.  Both back-substitute over Python ints
    refuted = 0
    for rows in _crossing_matrices():
        M = RationalMatrix(rows)
        w = psd_witness(M)
        if w is not None:
            refuted += 1
            _assert_oracle_witness(w, M)
    assert refuted == 6
    big = 2**70
    M = RationalMatrix([[big, big + 1, 3], [big + 1, big, 5], [3, 5, 7]])
    assert M.num.dtype == object
    w = psd_witness(M)
    assert w is not None and quadratic_form(M, w) < 0
    _assert_oracle_witness(w, M)


def test_kernel_at_the_int64_limits(no_certificate):
    low = _LOW
    for rows in _int64_limit_matrices():
        M = RationalMatrix(rows)
        assert M.num.dtype == (object if any(low in row or -low in row for row in rows)
                               else np.int64)
        _assert_agrees_with_oracle(M)
        assert psd_witness(M) == _fraction_psd_witness(M)


@pytest.mark.parametrize("m", range(5, 19))
def test_int64_kernel_matches_oracle_on_line_graph_shifts(m, no_certificate):
    A = adjacency_rational(line_graph_of_complete(m))
    for t in (1, 2):
        _assert_agrees_with_oracle(A.shifted(t))
    assert psd_witness(A.shifted(2)) is None


# -- the dominance certificate ------------------------------------------------------

def _certified(M):
    from hoffman.exact import _dominance_certificate

    return _dominance_certificate(M.num, eigenvalues_float(M.num)[0])


@pytest.mark.parametrize("m", range(5, 15))
def test_certificate_proves_definite_line_graph_shifts(m):
    # called directly, so a certificate that always falls back to Bareiss fails here
    A = adjacency_rational(line_graph_of_complete(m))
    for t in (3, Fraction(5, 2)):
        assert _certified(A.shifted(t))
        assert psd_witness(A.shifted(t)) is None


@pytest.mark.parametrize("m", (5, 8))
def test_certificate_declines_singular_and_indefinite_shifts(m):
    A = adjacency_rational(line_graph_of_complete(m))
    assert not _certified(A.shifted(2))
    assert not _certified(A.shifted(1))
    assert psd_witness(A.shifted(2)) is None
    assert quadratic_form(A.shifted(1), psd_witness(A.shifted(1))) < 0


def test_certificate_declines_entries_beyond_int64():
    for big in (2**62, 2**64):
        M = _sym([[big, 0], [0, big]])
        assert not _certified(M)
        assert psd_witness(M) is None
        N = _sym([[big, big + 1], [big + 1, big]])
        assert not _certified(N)
        assert quadratic_form(N, psd_witness(N)) < 0


def test_certificate_declines_near_singular_matrices_that_are_not_psd():
    # 1 - 2^-60 rounds to 1 in float, where the matrix looks singular
    M = _sym([[1, 1], [1, 1 - Fraction(1, 2**60)]])
    assert not _certified(M)
    assert quadratic_form(M, psd_witness(M)) < 0
    # the integer form [[X, X + 50], [X + 50, X + 75]], X = 2^59, rounds to
    # [[X, X], [X, X + 128]]: float calls it definite, so a certificate is
    # proposed and only the exact check rejects it (det = -25 X - 2500)
    d = Fraction(25, 2**58)
    M = _sym([[1, 1 + d], [1 + d, 1 + 3 * d / 2]])
    assert eigenvalues_float(M.num)[0] > 0
    assert not _certified(M)
    assert quadratic_form(M, psd_witness(M)) < 0
    _assert_agrees_with_oracle(M)


def test_certificate_check_rejects_every_proposal_for_a_matrix_that_is_not_psd(monkeypatch):
    # the float side only proposes C: with a positive eigenvalue estimate and
    # any proposed factor, the exact check must still reject
    import hoffman.exact as exact

    rng = np.random.default_rng(7)
    proposals = (
        lambda n: np.zeros((n, n)),
        lambda n: np.eye(n),
        lambda n: np.tril(rng.standard_normal((n, n))),
    )
    matrices = [[[1, 2], [2, 1]], [[2, 1, 1], [1, 2, 1], [1, 1, 0]]]
    gen = random.Random(11)
    while len(matrices) < 40:
        n = gen.randint(2, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = gen.randint(-4, 4)
        if _fraction_psd_witness(RationalMatrix(rows)) is not None:
            matrices.append(rows)
    for propose in proposals:
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: propose(len(a)))
        for rows in matrices:
            assert not exact._dominance_certificate(np.array(rows, dtype=np.int64), 1.0)


def test_psd_witness_without_an_estimate_runs_no_eigensolve(monkeypatch):
    # no certificate is tried and nothing is solved: Bareiss alone gives the
    # verdict and the witness that the certificate route gives with an estimate
    import hoffman.exact as exact

    cases = [adjacency_rational(line_graph_of_complete(m)).shifted(t)
             for m in (5, 8, 12) for t in (3, Fraction(5, 2), 2, 1)]
    cases += [_sym([[2, 1], [1, 2]]), _sym([[1, 2], [2, 1]]), _sym([[0, 0], [0, 0]])]
    expected = [psd_witness(M, eigenvalues_float(M.num)[0]) for M in cases]
    assert any(_certified(M) for M in cases) and any(w is not None for w in expected)

    def forbidden_call(*args, **kwargs):
        raise AssertionError("no eigensolve and no certificate without an estimate")

    for module, name in ((exact, "eigenvalues_float"), (exact, "_dominance_certificate"),
                         (np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                         (np.linalg, "cholesky")):
        monkeypatch.setattr(module, name, forbidden_call)
    for M, w in zip(cases, expected):
        assert psd_witness(M) == w


# -- the diagonal dominance check ------------------------------------------------------

def _dominant_by_rows(rows):
    """A_ii >= sum_{j != i} |A_ij| for every row, in Python ints (the reference)."""
    return all(row[i] >= sum(abs(x) for j, x in enumerate(row) if j != i)
               for i, row in enumerate(rows))


def _assert_dominance_is_sound(rows):
    """The check matches the row-sum reference, and each "PSD holds" it
    gives is PSD by the Fraction LDL^T oracle; returns its verdict."""
    from hoffman.exact import _diagonally_dominant

    M = RationalMatrix(rows)
    dominant = _diagonally_dominant(M.num)
    assert dominant == _dominant_by_rows(rows), rows
    if dominant:
        assert _fraction_psd_witness(M) is None, rows
    assert psd_witness(M) == _fraction_psd_witness(M), rows
    return dominant


def test_dominance_at_the_int64_limits():
    # summed in int64, the rows of this matrix wrap to a dominant diagonal,
    # though its determinant is negative
    wraps = [[_TOP, 0, _TOP], [0, _TOP, _TOP], [_TOP, _TOP, _TOP]]
    assert det_exact(RationalMatrix(wraps)) < 0
    assert not _assert_dominance_is_sound(wraps)
    verdicts = [_assert_dominance_is_sound(rows) for rows in _int64_limit_matrices()]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("wide", [False, True], ids=["int64", "object"])
def test_dominance_on_random_symmetric_matrices(wide):
    # off-diagonal entries below 2^59 keep every int64 row sum below 2^63,
    # though n max|A| is not, so the check promotes some of them
    rng = random.Random(f"dominance {wide}")
    bound = 2**70 if wide else 2**59
    dominant = wide_matrices = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i] = rng.choice((0, rng.randrange(-bound, bound)))
        for i in range(n):
            # at, just below or just above the sum of the rest of the row
            off = sum(abs(x) for j, x in enumerate(rows[i]) if j != i)
            rows[i][i] = off + rng.choice((0, 1, -1, rng.randrange(-bound, bound)))
        wide_matrices += RationalMatrix(rows).num.dtype == object
        dominant += _assert_dominance_is_sound(rows)
    assert 50 < dominant < 250
    assert wide_matrices > 200 if wide else wide_matrices == 0


# -- the float64 product of the certificate is exact -----------------------------------

def _assert_residual_is_exact(M):
    """R of the certificate against s^2 A - C C^T rebuilt from the same C in
    Python ints: every row up to order 100, a spread of rows and the whole
    diagonal (the largest sums) above it."""
    import hoffman.exact as exact

    s, C, R = exact._dominance_residual(M.num, eigenvalues_float(M.num)[0])
    n = M.order
    A = M.num.astype(object)
    Ci = C.astype(np.int64).astype(object)
    assert np.array_equal(Ci, C)
    rows = np.arange(n) if n <= 100 else np.unique(np.r_[np.arange(0, n, n // 12), n - 1])
    assert np.array_equal((s * s) * A[rows] - Ci[rows] @ Ci.T, R[rows])
    assert np.array_equal((s * s) * np.diagonal(A) - (Ci * Ci).sum(axis=1), np.diagonal(R))


@pytest.mark.parametrize("m", range(5, 31))
def test_certificate_product_is_exact_on_line_graph_shifts(m):
    A = adjacency_rational(line_graph_of_complete(m))
    for t in (3, Fraction(5, 2)):
        _assert_residual_is_exact(A.shifted(t))
        assert _certified(A.shifted(t))


def test_certificate_product_is_exact_on_special_matrices():
    # the definite shifts of test_integer_kernel_matches_oracle_on_special_matrices
    entries = catalog("H") + catalog("G2") + (catalog("path2fat"),)
    definite = 0
    for e in entries:
        for t in (5, Fraction(4999, 1000)):
            M = special_matrix(e.hoffman).shifted(t)
            if psd_witness(M) is None and det_exact(M) != 0:
                _assert_residual_is_exact(M)
                definite += 1
    assert definite > 20


def test_certificate_proposes_nothing_past_the_int64_bound():
    import hoffman.exact as exact

    for big in (2**62, 2**64):
        assert exact._dominance_residual(_sym([[big, 0], [0, big]]).num, float(big)) is None


@pytest.mark.parametrize("m", (5, 8, 12, 18))
def test_certificate_never_proves_what_bareiss_refutes(m, monkeypatch):
    # L(K_m) + (2 - 1/64) I has smallest eigenvalue -1/64: the certificate
    # declines it from a correct estimate, from a wrong positive estimate, and
    # when the float side is made to propose the factor of a definite neighbour
    import hoffman.exact as exact

    M = adjacency_rational(line_graph_of_complete(m)).shifted(2 - Fraction(1, 64))
    w = psd_witness(M)
    assert w is not None and quadratic_form(M, w) < 0
    assert not _certified(M)
    for estimate in (1e-3, 1.0, 64.0):
        assert not exact._dominance_certificate(M.num, estimate)
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: cholesky(a + 2 * np.eye(len(a))))
    assert exact._dominance_residual(M.num, 1.0) is not None
    assert not exact._dominance_certificate(M.num, 1.0)
    assert psd_witness(M, 1.0) == w


def test_integer_kernel_matches_oracle_on_special_matrices():
    entries = catalog("H") + catalog("G2") + (catalog("path2fat"),)
    matrices = [special_matrix(e.hoffman) for e in entries]
    matrices += [RationalMatrix(m_matrix(2, -3, 2)), RationalMatrix(m_matrix(4, -2, 2))]
    for S in matrices:
        for t in (5, Fraction(4999, 1000)):
            _assert_agrees_with_oracle(S.shifted(t))


# -- the semidefinite pivot rule in the integer kernel ------------------------------

def _gram(vectors):
    return RationalMatrix([[sum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors])


def test_zero_pivot_after_elimination_with_zero_column_is_skipped():
    # a1 = (3/2) a0, so index 1 becomes a zero row only after pivot 0 = 4;
    # the later pivots divide by that pivot, so the chain must survive the skip
    M = _gram([(2, 0, 0), (3, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 3)])
    assert psd_witness(M) is None
    _assert_agrees_with_oracle(M)
    assert psd_witness(M.shifted(Fraction(-1, 100))) is not None
    # a definite block interleaved by index with zero rows and columns
    D = [[2, 1, 1], [1, 3, 0], [1, 0, 4]]
    spread = [0, 2, 3]
    rows = [[0] * 5 for _ in range(5)]
    for a, i in enumerate(spread):
        for b, j in enumerate(spread):
            rows[i][j] = D[a][b]
    M = RationalMatrix(rows)
    assert psd_witness(M) is None
    _assert_agrees_with_oracle(M)


def test_zero_pivot_after_elimination_with_residual_refutes():
    M = _sym([[1, 1, 0], [1, 1, 1], [0, 1, 0]])
    w = psd_witness(M)
    assert w is not None
    assert quadratic_form(M, w) < 0
    _assert_agrees_with_oracle(M)


def test_zero_pivot_residual_with_a_fractional_coefficient():
    # after pivot 0 the Schur complement on (1, 2) is [[0, m], [m, c]], and
    # the coefficient -(c + 1) / (2m) of e_1 is -5/4 (prev = 1, m = 2, c = 4)
    # and -1/3 (prev = 2, m = 3, c = 1): the right-hand side is not integral
    for rows, coefficient in (([[1, 1, 0], [1, 1, 2], [0, 2, 4]], Fraction(-5, 4)),
                              ([[2, 2, 0], [2, 2, 3], [0, 3, 1]], Fraction(-1, 3)),
                              ([[2, 2, 0, 0], [2, 2, 3, 0], [0, 3, 1, 0], [0, 0, 0, 5]],
                               Fraction(-1, 3))):
        M = _sym(rows)
        w = psd_witness(M)
        assert w[1:3] == [coefficient, 1]
        assert quadratic_form(M, w) < 0
        _assert_oracle_witness(w, M)


def test_negative_pivot_after_skipped_zero_pivot():
    M = _sym([[4, 6, 2], [6, 9, 3], [2, 3, 0]])
    w = psd_witness(M)
    assert w is not None
    assert w[1] == 0
    assert quadratic_form(M, w) < 0
    _assert_agrees_with_oracle(M)


def test_mixed_denominators_share_one_scale():
    M = _sym([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 4)]])
    assert M.den == 12
    assert M.num.tolist() == [[6, 4], [4, 3]]
    assert psd_witness(M) is None
    # det = 1/10 - 1/9 < 0
    N = _sym([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 5)]])
    w = psd_witness(N)
    assert quadratic_form(N, w) < 0
    _assert_agrees_with_oracle(N)


def test_gram_matrices_are_psd():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        gram = [[sum(a[k][i] * a[k][j] for k in range(m)) for j in range(n)] for i in range(n)]
        assert psd_witness(RationalMatrix(gram)) is None


def test_exact_and_float_agree_on_random_matrices():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 8)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        M = RationalMatrix(rows)
        assert (psd_witness(M) is None) == (eigenvalues_float(M)[0] >= -1e-7)


# -- determinants ----------------------------------------------------------------------

def test_det_examples():
    assert det_exact(identity(4)) == 1
    assert det_exact(_sym([[0, 1], [1, 0]])) == -1
    # shifted quotient from the pendant-pair construction at s = 2
    A3 = RationalMatrix([[0, 1, 8], [1, 0, 0], [1, 0, 3]])
    assert det_exact(A3.shifted(2)) == -1


def _det_fraction_elimination(M):
    n = M.order
    a = fraction_rows(M)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def test_det_matches_fraction_elimination_oracle():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 6)
        M = RationalMatrix(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        )
        assert det_exact(M) == _det_fraction_elimination(M)


# -- floating eigensolver ---------------------------------------------------------------

def test_identity_lambda_min():
    assert abs(eigenvalues_float(identity(3))[0] - 1.0) < 1e-12


def test_complete_graph_lambda_min_is_minus_one():
    for n in range(2, 51):
        A = adjacency_rational(complete_graph(n))
        assert abs(eigenvalues_float(A)[0] + 1.0) < 1e-9


def test_float_solver_rejects_nonsymmetric(monkeypatch):
    with pytest.raises(ValueError):
        eigenvalues_float(RationalMatrix([[0, 1], [0, 0]]))
    import hoffman.exact as exact
    monkeypatch.setattr(exact, "FLOAT_ORDER_LIMIT", 2)
    # above the limit there is no floating value, symmetric or not, and the
    # size check comes before any array is built
    assert exact.eigenvalues_float(identity(3)) is None
    assert exact.eigenvalues_float(RationalMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])) is None


def test_float_solver_above_the_limit_builds_no_array():
    import tracemalloc

    from hoffman.exact import FLOAT_ORDER_LIMIT

    n = FLOAT_ORDER_LIMIT + 1
    M = RationalMatrix.fraction_free(np.zeros((n, n), dtype=np.int64), 1)
    tracemalloc.start()
    try:
        values = eigenvalues_float(M)
        quotient_values = quotient_eigenvalues_float(M, [1] * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float copy alone would be 8 n^2 bytes, about 32 MB
    assert values is None and quotient_values is None
    assert peak < 1 << 20


def test_float_solver_rejects_nonsymmetric_array():
    with pytest.raises(ValueError):
        eigenvalues_float(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_empty_matrix_has_no_smallest_eigenvalue():
    from hoffman import Graph

    assert eigenvalues_float(RationalMatrix([])) == []
    assert graph_lambda_min_float(Graph(0)) is None


# -- quotient matrices ----------------------------------------------------------------------

def test_quotient_identity_singletons():
    # over singletons the quotient is the adjacency matrix itself
    G = petersen_graph()
    P = [[v] for v in range(G.n)]
    assert graph_quotient_matrix(G, P) == adjacency_rational(G)


def test_quotient_not_equitable_reports_pair():
    # path 0-1-2, blocks {0}, {1,2}: vertex 1 and 2 differ toward block {0}
    G = Graph(3, [(0, 1), (1, 2)])
    P = [[0], [1, 2]]
    for quotient in (lambda: graph_quotient_matrix(G, P),
                     lambda: quotient_matrix(adjacency_rational(G), P)):
        with pytest.raises(NotEquitable) as err:
            quotient()
        assert err.value.block_index == 0
        assert err.value.row in (1, 2)


def test_quotient_eigenvalues_interlace_into_host():
    # complete multipartite-ish: K5 with blocks {0}, rest
    A = adjacency_rational(complete_graph(5))
    P = [[0], [1, 2, 3, 4]]
    Q = graph_quotient_matrix(complete_graph(5), P)
    assert Q == RationalMatrix([[0, 4], [1, 3]]) == quotient_matrix(A, P)
    qvals = quotient_eigenvalues_float(Q, [len(b) for b in P])
    host = eigenvalues_float(A)
    for v in qvals:
        assert any(abs(v - h) < 1e-8 for h in host)


def test_partition_validation():
    with pytest.raises(ValueError):
        graph_quotient_matrix(Graph(2), [[0], [0, 1]])
    with pytest.raises(ValueError):
        graph_quotient_matrix(Graph(2), [[0], [2]])
    with pytest.raises(ValueError):
        graph_quotient_matrix(Graph(1), [[0], []])


def test_lambda_min_on_forbidden_templates():
    from hoffman import m_matrix
    import math

    assert abs(eigenvalues_float(RationalMatrix(m_matrix(5, t=2)))[0] + 4.0) < 1e-9
    assert abs(eigenvalues_float(RationalMatrix(m_matrix(6, t=2)))[0] + 4.0) < 1e-9
    target = -2 - math.sqrt(2)
    for kind in (7, 8, 9):
        assert abs(eigenvalues_float(RationalMatrix(m_matrix(kind, t=2)))[0] - target) < 1e-9
    # the general closed forms at t = 3
    assert abs(eigenvalues_float(RationalMatrix(m_matrix(2, -3, 3)))[0] + 6.0) < 1e-9
    assert abs(eigenvalues_float(RationalMatrix(m_matrix(4, -2, 3)))[0] + 6.0) < 1e-9
    golden = -3 - (1 + math.sqrt(5)) / 2
    assert abs(eigenvalues_float(RationalMatrix(m_matrix(3, 1, 3)))[0] - golden) < 1e-9


def test_quotient_complete_bipartite_sides():
    from hoffman import Graph

    a, b = 3, 5
    G = Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    P = [list(range(a)), list(range(a, a + b))]
    Q = graph_quotient_matrix(G, P)
    assert Q == RationalMatrix([[0, b], [a, 0]]) == quotient_matrix(adjacency_rational(G), P)
    qvals = quotient_eigenvalues_float(Q, (a, b))
    assert abs(qvals[0] + (a * b) ** 0.5) < 1e-9
