"""Exact PSD decision, determinants, quotients, and the floating solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoffman import (
    NotEquitable,
    Partition,
    RationalMatrix,
    adjacency_rational,
    complete_graph,
    cycle_graph,
    det_exact,
    eigenvalues_float,
    is_psd_exact,
    lambda_min_float,
    psd_witness,
    quadratic_form,
    quotient_eigenvalues_float,
    quotient_matrix,
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
    assert S[0, 0] == Fraction(1, 3)
    assert RationalMatrix.from_json(S.to_json()) == S


# -- PSD decision -------------------------------------------------------------------

def test_identity_is_psd():
    assert is_psd_exact(RationalMatrix.identity(3))


def test_negative_scalar_is_not_psd():
    assert not is_psd_exact(_sym([[-1]]))


def test_cycle_shift_examples():
    A = adjacency_rational(cycle_graph(5))
    # lambda_min(C5) = 2 cos(4 pi / 5) ~ -1.618, so A + 2I is PSD
    assert is_psd_exact(A.shifted(2))
    assert not is_psd_exact(A.shifted(Fraction(8, 5)))


def test_zero_pivot_semidefinite_rule():
    # [[0, 1], [1, 0]] has a zero pivot with nonzero residual: indefinite
    M = _sym([[0, 1], [1, 0]])
    assert not is_psd_exact(M)
    w = psd_witness(M)
    assert quadratic_form(M, w) < 0
    # an actual PSD matrix with a zero row
    assert is_psd_exact(_sym([[0, 0], [0, 2]]))


def test_psd_requires_symmetry():
    with pytest.raises(ValueError):
        is_psd_exact(RationalMatrix([[0, 1], [0, 0]]))


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


def test_gram_matrices_are_psd():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        gram = [[sum(a[k][i] * a[k][j] for k in range(m)) for j in range(n)] for i in range(n)]
        assert is_psd_exact(RationalMatrix(gram))


def test_exact_and_float_agree_on_random_matrices():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 8)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        M = RationalMatrix(rows)
        assert is_psd_exact(M) == (lambda_min_float(M) >= -1e-7)


# -- determinants ----------------------------------------------------------------------

def test_det_examples():
    assert det_exact(RationalMatrix.identity(4)) == 1
    assert det_exact(_sym([[0, 1], [1, 0]])) == -1
    # shifted quotient from the pendant-pair construction at s = 2
    A3 = RationalMatrix([[0, 1, 8], [1, 0, 0], [1, 0, 3]])
    assert det_exact(A3.shifted(2)) == -1


def _det_fraction_elimination(M):
    n = M.order
    a = [list(row) for row in M.rows]
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
    assert abs(lambda_min_float(RationalMatrix.identity(3)) - 1.0) < 1e-12


def test_complete_graph_lambda_min_is_minus_one():
    for n in range(2, 51):
        A = adjacency_rational(complete_graph(n))
        assert abs(lambda_min_float(A) + 1.0) < 1e-9


def test_float_solver_rejects_nonsymmetric(monkeypatch):
    with pytest.raises(ValueError):
        lambda_min_float(RationalMatrix([[0, 1], [0, 0]]))
    import hoffman.exact as exact
    monkeypatch.setattr(exact, "FLOAT_ORDER_LIMIT", 2)
    # above the limit there is no floating value, symmetric or not, and the
    # size check comes before any array is built
    assert exact.lambda_min_float(RationalMatrix.identity(3)) is None
    assert exact.eigenvalues_float(RationalMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])) is None


def test_float_solver_rejects_nonsymmetric_array():
    import numpy as np

    with pytest.raises(ValueError):
        eigenvalues_float(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_empty_matrix_has_no_smallest_eigenvalue():
    from hoffman import Graph

    assert eigenvalues_float(RationalMatrix([])) == []
    assert eigenvalues_float(Graph(0)) == []
    assert lambda_min_float(RationalMatrix([])) is None
    assert lambda_min_float(Graph(0)) is None


# -- quotient matrices ----------------------------------------------------------------------

def test_quotient_identity_singletons():
    M = RationalMatrix.identity(3)
    P = Partition([[0], [1], [2]])
    assert quotient_matrix(M, P) == M


def test_quotient_not_equitable_reports_pair():
    # path 0-1-2, blocks {0}, {1,2}: vertex 1 and 2 differ toward block {0}
    A = RationalMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    with pytest.raises(NotEquitable) as err:
        quotient_matrix(A, Partition([[0], [1, 2]]))
    assert err.value.block_index == 0
    assert err.value.row in (1, 2)


def test_quotient_eigenvalues_interlace_into_host():
    # complete multipartite-ish: K5 with blocks {0}, rest
    A = adjacency_rational(complete_graph(5))
    P = Partition([[0], [1, 2, 3, 4]])
    Q = quotient_matrix(A, P)
    assert Q == RationalMatrix([[0, 4], [1, 3]])
    qvals = quotient_eigenvalues_float(Q, P.sizes())
    host = eigenvalues_float(A)
    for v in qvals:
        assert any(abs(v - h) < 1e-8 for h in host)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([[0], [0, 1]])
    with pytest.raises(ValueError):
        Partition([[0], [2]])
    with pytest.raises(ValueError):
        Partition([[0], []])


def test_lambda_min_on_forbidden_templates():
    from hoffman import m_matrix
    import math

    assert abs(lambda_min_float(RationalMatrix(m_matrix(5, t=2))) + 4.0) < 1e-9
    assert abs(lambda_min_float(RationalMatrix(m_matrix(6, t=2))) + 4.0) < 1e-9
    target = -2 - math.sqrt(2)
    for kind in (7, 8, 9):
        assert abs(lambda_min_float(RationalMatrix(m_matrix(kind, t=2))) - target) < 1e-9
    # the general closed forms at t = 3
    assert abs(lambda_min_float(RationalMatrix(m_matrix(2, -3, 3))) + 6.0) < 1e-9
    assert abs(lambda_min_float(RationalMatrix(m_matrix(4, -2, 3))) + 6.0) < 1e-9
    golden = -3 - (1 + math.sqrt(5)) / 2
    assert abs(lambda_min_float(RationalMatrix(m_matrix(3, 1, 3))) - golden) < 1e-9


def test_quotient_complete_bipartite_sides():
    from hoffman import Graph

    a, b = 3, 5
    G = Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    A = adjacency_rational(G)
    Q = quotient_matrix(A, Partition([list(range(a)), list(range(a, a + b))]))
    assert Q == RationalMatrix([[0, b], [a, 0]])
    qvals = quotient_eigenvalues_float(Q, (a, b))
    assert abs(qvals[0] + (a * b) ** 0.5) < 1e-9
