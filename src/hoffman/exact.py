"""Exact rational symmetric linear algebra plus a floating eigensolver.

A :class:`RationalMatrix` is the library's one exact matrix format: special
matrices of Hoffman graphs, adjacency and quotient matrices all use it.  It
is stored fraction-free: an integer array ``num`` over one least common
denominator ``den``.  ``num`` is int64 whenever every entry fits
(|x| < 2^63), and dtype=object with Python ints otherwise.

Positive semidefiniteness is decided over the rationals.  A verdict "PSD
holds" may first be proved without elimination.  One proof is an integer
dominance certificate s^2 A = C C^T + R with R diagonally dominant, which a
floating Cholesky factor only proposes, from a smallest-eigenvalue estimate
that the caller already has (the certificate runs no eigensolve of its own): s
is chosen so that C C^T is an exact float64 product (every partial sum an
integer below 2^53), R is formed in int64, and its dominance is checked
exactly.  Everything else is decided by fraction-free integer LDL^T with the
semidefinite pivot rule (symmetric Bareiss elimination on ``num``): each pivot
is one vectorised int64 update under an exact no-overflow bound, and the first
pivot that fails the bound promotes the array once to Python ints, so no
Fraction arithmetic and no rounding enters the elimination.  Before that first
pivot on Python ints, A itself diagonally dominant, checked in exact integers
of any size, proves "PSD holds", which settles a large shift without growing
big integers.  Strict eigenvalue
inequalities carry exact certificates: when a matrix is not PSD the routine
produces a rational vector x with x^T M x < 0 that can be re-checked
independently.

Otherwise the floating side is for reporting only: :func:`eigenvalues_float`,
backed by LAPACK's dense symmetric solver via numpy, gives None above
FLOAT_ORDER_LIMIT.  No verdict depends on a floating value.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

from ._numpy import np
from .errors import ConvergenceFailure
from .graphs import Graph

FLOAT_ORDER_LIMIT = 2000
# every int64 value the exact routines compute stays below this bound in absolute value
_INT64_LIMIT = 2**63
# every integer below this bound in absolute value is exact in float64
_FLOAT_EXACT_LIMIT = 2**53


def _amax(a: np.ndarray) -> int:
    """Largest absolute entry of an integer array, as a Python int (0 when empty)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _integer_array(a: np.ndarray) -> np.ndarray:
    """``a`` as int64 when every entry has |x| < 2^63, else as dtype=object.

    -2^63 itself goes to dtype=object: ``np.abs`` and negation wrap there.
    """
    return a.astype(np.int64 if _amax(a) < _INT64_LIMIT else object, copy=False)


class RationalMatrix:
    """Dense square rational matrix, stored fraction-free as ``num / den``.

    ``num`` is a read-only square integer array (int64, or dtype=object when
    an entry does not fit in int64) and ``den`` the least common denominator
    of the entries, so equal matrices have equal ``(num, den)``.
    ``RationalMatrix(rows)`` builds one from Python rows of ints, Fractions
    or other rationals, and :meth:`fraction_free` from an integer array.
    """

    __slots__ = ("num", "den")

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        # ints and Fractions both carry .numerator and .denominator
        entries = [x if isinstance(x, (int, Fraction)) else Fraction(x)
                   for row in rows for x in row]
        den = math.lcm(*(x.denominator for x in entries))
        nums = [x.numerator * (den // x.denominator) for x in entries]
        self._set(np.array(nums, dtype=object).reshape(n, n), den)

    @classmethod
    def fraction_free(cls, num: np.ndarray, den: int) -> "RationalMatrix":
        """The matrix ``num / den`` for a square integer array ``num`` and ``den`` >= 1.

        ``num`` is taken over, not copied: it is made read-only.
        """
        if den != 1:
            g = math.gcd(den, int(np.gcd.reduce(num, axis=None)) if num.size else 0)
            if g != 1:
                num, den = num // g, den // g
        M = object.__new__(cls)
        M._set(num, den)
        return M

    def _set(self, num: np.ndarray, den: int) -> None:
        self.num = _integer_array(num)
        self.num.flags.writeable = False
        self.den = den

    @property
    def order(self) -> int:
        return len(self.num)

    def shifted(self, t) -> "RationalMatrix":
        """M + t*I, as a new matrix; the source is unchanged."""
        t = Fraction(t)
        den = math.lcm(self.den, t.denominator)
        scale = den // self.den
        shift = t.numerator * (den // t.denominator)
        num = self.num
        if num.dtype != object and max(_amax(num), 1) * scale + abs(shift) >= _INT64_LIMIT:
            num = num.astype(object)
        num = num * scale
        diagonal = np.arange(len(num))
        num[diagonal, diagonal] += shift
        return RationalMatrix.fraction_free(num, den)

    def to_json(self) -> list[list[str]]:
        den = self.den
        return [[str(Fraction(x, den)) for x in row] for row in self.num.tolist()]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.den == other.den
            and np.array_equal(self.num, other.num)
        )

    def __hash__(self) -> int:
        return hash((self.den, tuple(self.num.ravel().tolist())))

    def __repr__(self) -> str:
        return f"RationalMatrix({self.to_json()})"


# -- exact PSD decision ------------------------------------------------------

def _dominance_residual(A: np.ndarray, lambda_min: float):
    """(s, C, R) with s^2 A = C C^T + R for the symmetric int64 matrix A, or None.

    s is a power of two and C = rint(s L) is integral (held as float64), for
    the floating Cholesky factor L of A - (lam/2) I; lam is ``lambda_min``,
    the caller's floating estimate of a lower bound on A's smallest
    eigenvalue.  No eigensolve runs here.  None when lam is not positive or
    L cannot be computed.  The float only proposes C; the integer R is
    exact.  As |C_ij| <= s * cbound, each product and each partial sum of
    (C C^T)_ij is an integer of absolute value at most n (s cbound)^2; s
    keeps that below 2^53, so the float64 product C C^T (BLAS) is exact in
    any summation order.  s also keeps n s^2 (amax + n cbound^2), a bound on
    every row sum of |R|, below 2^63, so R = s^2 A - C C^T is formed in
    int64.
    """
    n = len(A)
    if n == 0 or A.dtype != np.int64 or not lambda_min > 0:
        return None
    amax = _amax(A)
    try:
        L = np.linalg.cholesky(A - (lambda_min / 2) * np.eye(n))
    except np.linalg.LinAlgError:
        return None
    lmax = float(np.abs(L).max())
    if not math.isfinite(lmax):
        return None
    cbound = math.ceil(lmax) + 1
    budget = min((_FLOAT_EXACT_LIMIT - 1) // (n * cbound * cbound),
                 (_INT64_LIMIT - 1) // (n * (amax + n * cbound * cbound)))
    if budget < 1:
        return None
    s = 1 << (math.isqrt(budget).bit_length() - 1)
    C = np.rint(s * L)
    R = (s * s) * A - (C @ C.T).astype(np.int64)
    return s, C, R


def _diagonally_dominant(A: np.ndarray) -> bool:
    """Whether the diagonal of the symmetric integer matrix A dominates every
    row (A_ii >= sum_{j != i} |A_ij|), which makes A PSD by Gershgorin.

    The row sums are exact: they are formed in int64 only while n max|A| <
    2^63, and in Python ints otherwise.
    """
    if A.dtype != object and len(A) * _amax(A) >= _INT64_LIMIT:
        A = A.astype(object)
    absolute = np.abs(A)
    return bool(np.all(np.diagonal(A) >= absolute.sum(axis=1) - np.diagonal(absolute)))


def _dominance_certificate(A: np.ndarray, lambda_min: float) -> bool:
    """True only when the symmetric integer matrix A is proved PSD.

    The proof is s^2 A = C C^T + R from :func:`_dominance_residual`, with an
    integer R that is :func:`_diagonally_dominant`, so R and A are PSD.
    ``lambda_min`` is passed on to it.  False means no certificate was
    found, never that A is not PSD.
    """
    found = _dominance_residual(A, lambda_min)
    return found is not None and _diagonally_dominant(found[2])


def psd_witness(M: RationalMatrix, lambda_min: Optional[float] = None) -> Optional[list[Fraction]]:
    """None when M is PSD; otherwise a rational x with x^T M x < 0.

    The decision is made on ``M.num`` alone, since ``M.den`` > 0.  With
    ``lambda_min``, a floating lower estimate of the smallest eigenvalue of
    ``M.num`` from an eigensolve the caller already ran, "PSD holds" may
    first be proved by the exactly checked integer certificate of
    :func:`_dominance_certificate`, whose floating Cholesky factor only
    proposes it; no eigensolve runs here.  Bareiss decides everything else:
    fraction-free integer LDL^T (symmetric Bareiss elimination) with the
    semidefinite pivot rule.  After the pivots of the eliminated index set
    S, entry (i, j) of the trailing block holds the bordered minor
    det A[S+i, S+j], so the Schur complement is W / prev with ``prev`` =
    det A[S] > 0, and each Bareiss division is exact.  Each pivot p updates
    the trailing block T with column c as one array operation,
    T <- (p T - c c^T) / prev, in int64 while |p| max|T| + max|c|^2 < 2^63
    (which bounds every intermediate); the first pivot that fails the bound
    converts W once to Python ints and the same loop goes on, so the
    integers are the same either way.  Before the first pivot on Python
    ints, a ``M.num`` that is :func:`_diagonally_dominant` is PSD, in exact
    integers of any size, which settles a large shift without growing big
    integers; an elimination that stays in int64 never pays for the check.
    A negative pivot refutes PSD; a zero pivot whose column has a nonzero
    residual refutes PSD via the indefinite 2x2 block it exposes; a zero
    pivot with a zero column is skipped with ``prev`` unchanged, which is
    Bareiss on the matrix with that index deleted.  Neither proof of "PSD
    holds" ever refutes, so every witness is the one Bareiss gives, solved
    back from the pivots in integers by :func:`_refuting_vector`.
    """
    A = M.num
    if not np.array_equal(A, A.T):
        raise ValueError("PSD decision requires a symmetric matrix")
    if lambda_min is not None and _dominance_certificate(A, lambda_min):
        return None
    n = M.order
    W = A.copy()
    prev = 1
    wide = False
    for k in range(n):
        p = int(W[k, k])
        if p < 0:
            return _refuting_vector(W, k, {k: Fraction(1)})
        col = W[k + 1:, k]
        if p == 0:
            nonzero = np.flatnonzero(col)
            if not nonzero.size:
                continue
            r = k + 1 + int(nonzero[0])
            # the Schur complement restricted to (k, r) is [[0, m], [m, c]]:
            # a*e_k + e_r with a = -(c+1)/(2m) has value -1 there
            m = Fraction(int(W[r, k]), prev)
            c = Fraction(int(W[r, r]), prev)
            return _refuting_vector(W, k, {k: -(c + 1) / (2 * m), r: Fraction(1)})
        T = W[k + 1:, k + 1:]
        if not wide and (W.dtype == object or p * _amax(T) + _amax(col) ** 2 >= _INT64_LIMIT):
            if _diagonally_dominant(A):
                return None
            wide, W = True, W.astype(object, copy=False)
            col, T = W[k + 1:, k], W[k + 1:, k + 1:]
        T *= p
        T -= np.multiply.outer(col, col)
        T //= prev
        prev = p
    return None


def _refuting_vector(W: np.ndarray, k: int, y: dict[int, Fraction]) -> list[Fraction]:
    """x with L^T x = y, where columns 0..k-1 of W hold the eliminated pivots
    and l_ij = W[i][j] / W[j][j]; x^T M x then has the sign of y's value on
    the Schur complement, which the caller made negative.  y is supported on
    indices >= k, so only rows up to its last index and columns below k are
    read, and only those are converted to Python ints.

    The solve runs in integers over one common denominator d: x = X / d.
    Pivot j gives x_j = -acc / (p_j d) with acc = sum_{i>j} W[i][j] X_i, and
    p_j > 0 (a negative pivot stops the elimination, a zero one is skipped),
    so scaling X and d by f = p_j / gcd(acc, p_j) makes X_j = -acc / (p_j /
    f) an integer.  Only the nonzero entries become Fractions at the end;
    the others are one shared zero.
    """
    d = math.lcm(*(v.denominator for v in y.values()))
    support = max(y)
    X = [0] * (support + 1)
    for i, v in y.items():
        X[i] = v.numerator * (d // v.denominator)
    columns = W[:support + 1, :k].T.tolist()
    for j in range(k - 1, -1, -1):
        column = columns[j]
        p = column[j]
        if not p:  # a skipped pivot has a zero column and no multipliers
            continue
        acc = sum(map(operator.mul, column[j + 1:], X[j + 1:]))
        if not acc:
            continue
        g = math.gcd(acc, p)
        f = p // g
        if f != 1:
            X[j + 1:] = map(f.__mul__, X[j + 1:])
            d *= f
        X[j] = -acc // g
    x = [Fraction(0)] * len(W)
    for i, v in enumerate(X):
        if v:
            x[i] = Fraction(v, d)
    return x


# -- determinants ------------------------------------------------------------

def det_exact(M: RationalMatrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    The matrix is scaled to integers by one common denominator first, and
    scale**n is divided back out at the end, so the result is exact for
    arbitrary rational input.
    """
    n = M.order
    if n == 0:
        return Fraction(1)
    a, scale = M.num.tolist(), M.den
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale**n)


# -- floating eigensolver ------------------------------------------------------

def adjacency_bits(G: Graph, vertices: Optional[Sequence[int]] = None) -> np.ndarray:
    """The 0/1 adjacency matrix of G as a uint8 array, unpacked from the bitsets;
    with ``vertices``, its principal submatrix on them, in that order, from
    their rows alone."""
    vertices = range(G.n) if vertices is None else vertices
    width = (G.n + 7) // 8
    packed = b"".join(G.bits(v).to_bytes(width, "little") for v in vertices)
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(vertices), 8 * width)[:, vertices]


def eigenvalues_float(M: RationalMatrix | np.ndarray) -> Optional[list[float]]:
    """Eigenvalues of a symmetric matrix, ascending, to ~1e-9; None above FLOAT_ORDER_LIMIT."""
    n = M.order if isinstance(M, RationalMatrix) else len(M)
    if n > FLOAT_ORDER_LIMIT:
        return None
    if isinstance(M, RationalMatrix):
        M = M.num / M.den
    a = np.asarray(M, dtype=float).reshape(n, n)
    if not np.array_equal(a, a.T):
        raise ValueError("floating eigensolver requires a symmetric matrix")
    try:
        return [float(v) for v in np.linalg.eigvalsh(a)]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceFailure(str(exc)) from exc


# -- quotient matrices --------------------------------------------------------

def quotient_eigenvalues_float(Q: RationalMatrix, block_sizes: Sequence[int]) -> Optional[list]:
    """Eigenvalues of a quotient matrix via its symmetrized similar matrix.

    With D = diag(block sizes), D^(1/2) Q D^(-1/2) is symmetric whenever Q
    came from an equitable partition of a symmetric matrix.  None above
    FLOAT_ORDER_LIMIT, before that matrix is built.
    """
    n = Q.order
    if len(block_sizes) != n:
        raise ValueError("block size list does not match quotient order")
    if n > FLOAT_ORDER_LIMIT:
        return None
    root = np.sqrt(np.array(block_sizes, dtype=float))
    # the order of operations fixes the reported digits: (Q / den) * root_I / root_J,
    # then (S + S^T) / 2; in place, so no n x n temporary is allocated
    sym = Q.num.astype(float)
    if Q.den != 1:
        sym /= Q.den
    sym *= root[:, None]
    sym /= root
    sym += sym.T
    sym /= 2.0
    return eigenvalues_float(sym)
