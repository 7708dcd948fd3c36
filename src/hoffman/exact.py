"""Exact rational symmetric linear algebra plus a floating eigensolver.

Positive semidefiniteness is decided over the rationals by LDL^T elimination
with the standard semidefinite pivot rule, so strict eigenvalue inequalities
carry exact certificates: when a matrix is not PSD the routine produces a
rational vector x with x^T M x < 0 that can be re-checked independently.

The floating side is for reporting only: :func:`eigenvalues_float`, backed by
LAPACK's dense symmetric solver via numpy, gives None above FLOAT_ORDER_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceFailure, NotEquitable
from .graphs import Graph

FLOAT_ORDER_LIMIT = 2000


class RationalMatrix:
    """Dense square matrix over arbitrary-precision rationals."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Sequence]):
        mat = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(mat)
        if any(len(row) != n for row in mat):
            raise ValueError("matrix must be square")
        self._rows = mat

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def order(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._rows[i][j]

    def is_symmetric(self) -> bool:
        n = self.order
        return all(self._rows[i][j] == self._rows[j][i] for i in range(n) for j in range(i + 1, n))

    def shifted(self, t) -> "RationalMatrix":
        """M + t*I."""
        t = Fraction(t)
        n = self.order
        return RationalMatrix(
            [[self._rows[i][j] + (t if i == j else 0) for j in range(n)] for i in range(n)]
        )

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self._rows]

    @classmethod
    def from_json(cls, rows: Sequence[Sequence[str]]) -> "RationalMatrix":
        return cls([[Fraction(s) for s in row] for row in rows])

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

def psd_witness(M: RationalMatrix) -> Optional[list[Fraction]]:
    """None when M is PSD; otherwise a rational x with x^T M x < 0.

    LDL^T with the semidefinite pivot rule: a negative pivot refutes PSD; a
    zero pivot whose column has a nonzero residual refutes PSD via the
    indefinite 2x2 block it exposes; a zero pivot with a zero column is
    skipped.  Only the lower triangle is stored and updated.
    """
    if not M.is_symmetric():
        raise ValueError("PSD decision requires a symmetric matrix")
    n = M.order
    W = [[M.rows[i][j] for j in range(i + 1)] for i in range(n)]
    # column_mults[k] holds (i, l_ik) for rows eliminated against pivot k
    column_mults: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]

    def back_substitute(rhs: dict[int, Fraction], upto: int) -> list[Fraction]:
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
            # remaining block restricted to (k, residual) is [[0, m], [m, c]]:
            # a*e_k + e_residual with a = -(c+1)/(2m) has value -1
            m = W[residual][k]
            c = W[residual][residual]
            a = -(c + 1) / (2 * m)
            return back_substitute({k: a, residual: Fraction(1)}, residual)
        col: list = [None] * k + [W[i][k] for i in range(k, n)]
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


def is_psd_exact(M: RationalMatrix) -> bool:
    """Exact positive-semidefiniteness over the rationals."""
    return psd_witness(M) is None


def quadratic_form(M: RationalMatrix, x: Sequence) -> Fraction:
    xs = [Fraction(v) for v in x]
    n = M.order
    if len(xs) != n:
        raise ValueError("vector length mismatch")
    total = Fraction(0)
    for i in range(n):
        if xs[i] == 0:
            continue
        row = M.rows[i]
        total += xs[i] * sum(row[j] * xs[j] for j in range(n) if xs[j] != 0)
    return total


# -- determinants ------------------------------------------------------------

def det_exact(M: RationalMatrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Rows are scaled to integers first; the scaling is divided back out at
    the end, so the result is exact for arbitrary rational input.
    """
    n = M.order
    if n == 0:
        return Fraction(1)
    a: list[list[int]] = []
    scale = 1
    for row in M.rows:
        l = math.lcm(*(x.denominator for x in row))
        scale *= l
        a.append([int(x * l) for x in row])
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
    return Fraction(sign * a[n - 1][n - 1], scale)


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

def quotient_matrix(M: RationalMatrix, P: Partition) -> RationalMatrix:
    """Quotient of ``M`` over an equitable partition.

    Equitability is verified, not assumed: for all blocks I, J the sum of
    row entries into J must be the same for every row in I, otherwise
    :class:`NotEquitable` reports the violating (row, block) pair.
    """
    if P.n != M.order:
        raise ValueError("partition size does not match matrix order")
    q: list[list[Fraction]] = []
    for block in P.blocks:
        qrow: list[Fraction] = []
        for jdx, other in enumerate(P.blocks):
            sums = [sum(M.rows[i][j] for j in other) for i in block]
            first = sums[0]
            for offset, s in enumerate(sums):
                if s != first:
                    raise NotEquitable(block[offset], jdx)
            qrow.append(first)
        q.append(qrow)
    return RationalMatrix(q)


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
