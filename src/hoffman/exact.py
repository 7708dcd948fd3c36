"""Exact rational symmetric linear algebra plus a floating eigensolver.

Positive semidefiniteness is decided over the rationals.  A verdict "PSD
holds" may first be proved by an integer dominance certificate
s^2 A = C C^T + R with R diagonally dominant, which a floating Cholesky factor
only proposes and exact int64 arithmetic checks.  Everything the certificate
does not prove is decided by fraction-free integer LDL^T with the
semidefinite pivot rule (symmetric Bareiss elimination, no Fraction
arithmetic in the elimination loop), so strict eigenvalue inequalities carry
exact certificates: when a matrix is not PSD the routine produces a rational
vector x with x^T M x < 0 that can be re-checked independently.

Otherwise the floating side is for reporting only: :func:`eigenvalues_float`,
backed by LAPACK's dense symmetric solver via numpy, gives None above
FLOAT_ORDER_LIMIT.  No verdict depends on a floating value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceFailure
from .graphs import Graph

FLOAT_ORDER_LIMIT = 2000
# every int64 value of a dominance certificate check stays below this bound
_INT64_LIMIT = 2**63


class RationalMatrix:
    """Dense square matrix over arbitrary-precision rationals."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Sequence]):
        mat = tuple(
            tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row) for row in rows
        )
        n = len(mat)
        if any(len(row) != n for row in mat):
            raise ValueError("matrix must be square")
        self._rows = mat

    @property
    def order(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def shifted(self, t) -> "RationalMatrix":
        """M + t*I; only the diagonal entries are new, the others are shared."""
        t = Fraction(t)
        shifted = object.__new__(RationalMatrix)
        shifted._rows = tuple(
            row[:i] + (row[i] + t,) + row[i + 1:] for i, row in enumerate(self._rows)
        )
        return shifted

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self._rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({[[str(x) for x in row] for row in self._rows]})"


@dataclass(frozen=True)
class Partition:
    """Ordered partition of ``0..n-1`` into disjoint nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks):
        norm = tuple(tuple(sorted(b)) for b in blocks)
        object.__setattr__(self, "blocks", norm)
        seen: set[int] = set()
        for b in norm:
            if not b:
                raise ValueError("empty block")
            for v in b:
                if v in seen:
                    raise ValueError(f"index {v} appears in two blocks")
                seen.add(v)
        if seen != set(range(len(seen))):
            raise ValueError("blocks must cover 0..n-1")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


# -- exact PSD decision ------------------------------------------------------

def _integer_rows(M: RationalMatrix) -> tuple[list[list[int]], int]:
    """Integer rows of ``scale * M``, with ``scale`` the least common denominator."""
    scale = math.lcm(*{x.denominator for row in M.rows for x in row})
    if scale == 1:
        return [[x.numerator for x in row] for row in M.rows], 1
    return [[x.numerator * (scale // x.denominator) for x in row] for row in M.rows], scale


def _dominance_certificate(rows: list[list[int]]) -> bool:
    """True only when the symmetric integer matrix A = ``rows`` is proved PSD.

    The proof is s^2 A = C C^T + R with an integer C and an integer R whose
    diagonal dominates every row (R_ii >= sum_{j != i} |R_ij|), so R is PSD by
    Gershgorin and A is PSD.  C = rint(s L) comes from the floating Cholesky
    factor L of A - (lam/2) I, with lam the floating smallest eigenvalue, so
    the float only proposes C.  R is computed exactly in int64 after an
    a-priori bound keeps every product, entry and row sum below 2^63.  False
    means no certificate was found, never that A is not PSD.
    """
    n = len(rows)
    if n == 0:
        return False
    try:
        A = np.array(rows, dtype=np.int64)
    except OverflowError:
        return False
    amax = max(int(A.max()), -int(A.min()))
    try:
        values = eigenvalues_float(A)
        if values is None or not values[0] > 0:
            return False
        L = np.linalg.cholesky(A - (values[0] / 2) * np.eye(n))
    except (ConvergenceFailure, np.linalg.LinAlgError):
        return False
    lmax = float(np.abs(L).max())
    if not math.isfinite(lmax):
        return False
    # with s a power of two, |C_ij| <= s * cbound; each partial sum of (C C^T)_ij
    # is at most n * (s cbound)^2, so |R_ij| <= s^2 (amax + n cbound^2) and a row
    # sum of |R| is n times that: the largest s keeping it below 2^63 is taken
    cbound = math.ceil(lmax) + 1
    budget = (_INT64_LIMIT - 1) // (n * (amax + n * cbound * cbound))
    if budget < 1:
        return False
    s = 1 << (math.isqrt(budget).bit_length() - 1)
    C = np.rint(s * L).astype(np.int64)
    R = (s * s) * A - C @ C.T
    absolute = np.abs(R)
    diagonal = np.diagonal(R)
    return bool(np.all(diagonal >= absolute.sum(axis=1) - np.diagonal(absolute)))


def psd_witness(M: RationalMatrix) -> Optional[list[Fraction]]:
    """None when M is PSD; otherwise a rational x with x^T M x < 0.

    "PSD holds" may be proved by the exactly checked integer dominance
    certificate of :func:`_dominance_certificate`, whose floating Cholesky
    factor only proposes it; the certificate never refutes.  Bareiss decides
    everything else: fraction-free integer LDL^T (symmetric Bareiss
    elimination on the lower triangle of ``scale * M``) with the semidefinite
    pivot rule.  After the pivots of the eliminated index set S, entry (i, j)
    holds the bordered minor det A[S+i, S+j], so the Schur complement is
    W / prev with ``prev`` = det A[S] > 0, and each Bareiss division is exact.
    A negative pivot refutes PSD; a zero pivot whose column has a nonzero
    residual refutes PSD via the indefinite 2x2 block it exposes; a zero pivot
    with a zero column is skipped with ``prev`` unchanged, which is Bareiss on
    the matrix with that index deleted.
    """
    rows, _ = _integer_rows(M)
    if list(map(tuple, rows)) != list(zip(*rows)):
        raise ValueError("PSD decision requires a symmetric matrix")
    if _dominance_certificate(rows):
        return None
    n = M.order
    W = [row[: i + 1] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        p = W[k][k]
        if p < 0:
            return _refuting_vector(W, k, {k: Fraction(1)})
        if p == 0:
            r = next((i for i in range(k + 1, n) if W[i][k]), None)
            if r is None:
                continue
            # the Schur complement restricted to (k, r) is [[0, m], [m, c]]:
            # a*e_k + e_r with a = -(c+1)/(2m) has value -1 there
            m = Fraction(W[r][k], prev)
            c = Fraction(W[r][r], prev)
            return _refuting_vector(W, k, {k: -(c + 1) / (2 * m), r: Fraction(1)})
        col = [W[j][k] for j in range(k + 1, n)]
        for i in range(k + 1, n):
            row = W[i]
            w = col[i - k - 1]
            if w:
                row[k + 1:] = [(p * a - w * b) // prev for a, b in zip(row[k + 1:], col)]
            elif p != prev:
                row[k + 1:] = [p * a // prev for a in row[k + 1:]]
        prev = p
    return None


def _refuting_vector(W: list[list[int]], k: int, y: dict[int, Fraction]) -> list[Fraction]:
    """x with L^T x = y, where columns 0..k-1 of W hold the eliminated pivots
    and l_ij = W[i][j] / W[j][j]; x^T M x then has the sign of y's value on
    the Schur complement, which the caller made negative.  y is supported on
    indices >= k.
    """
    x = [Fraction(0)] * len(W)
    for i, v in y.items():
        x[i] = v
    support = max(y)
    for j in range(k - 1, -1, -1):
        if W[j][j]:  # a skipped pivot has a zero column and no multipliers
            acc = sum((W[i][j] * x[i] for i in range(j + 1, support + 1) if x[i]), Fraction(0))
            x[j] = -acc / W[j][j]
    return x


def is_psd_exact(M: RationalMatrix) -> bool:
    """Exact positive-semidefiniteness over the rationals."""
    return psd_witness(M) is None


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
    a, scale = _integer_rows(M)
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

def eigenvalues_float(M: RationalMatrix | Graph | np.ndarray) -> Optional[list[float]]:
    """Eigenvalues of a symmetric matrix or of a graph's adjacency matrix, ascending,
    to ~1e-9; None above FLOAT_ORDER_LIMIT, with no array built."""
    M = M.rows if isinstance(M, RationalMatrix) else M
    n = M.n if isinstance(M, Graph) else len(M)
    if n > FLOAT_ORDER_LIMIT:
        return None
    if isinstance(M, Graph):
        width = (n + 7) // 8
        packed = b"".join(M.bits(v).to_bytes(width, "little") for v in range(n))
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
        a = bits.reshape(n, 8 * width)[:, :n].astype(float)
    else:
        a = np.array(M, dtype=float).reshape(n, n)
        if not np.array_equal(a, a.T):
            raise ValueError("floating eigensolver requires a symmetric matrix")
    try:
        return [float(v) for v in np.linalg.eigvalsh(a)]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceFailure(str(exc)) from exc


def lambda_min_float(M: RationalMatrix | Graph | np.ndarray) -> Optional[float]:
    """Smallest eigenvalue to ~1e-9; None at order 0 or above the floating limit."""
    values = eigenvalues_float(M)
    return values[0] if values else None


# -- quotient matrices --------------------------------------------------------

def quotient_eigenvalues_float(Q: RationalMatrix, block_sizes: Sequence[int]) -> Optional[list]:
    """Eigenvalues of a quotient matrix via its symmetrized similar matrix.

    With D = diag(block sizes), D^(1/2) Q D^(-1/2) is symmetric whenever Q
    came from an equitable partition of a symmetric matrix.
    """
    n = Q.order
    if len(block_sizes) != n:
        raise ValueError("block size list does not match quotient order")
    root = [math.sqrt(s) for s in block_sizes]
    sym = np.array(
        [[float(Q.rows[i][j]) * root[i] / root[j] for j in range(n)] for i in range(n)]
    )
    return eigenvalues_float((sym + sym.T) / 2.0)
