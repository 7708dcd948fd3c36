"""Forbidden principal-submatrix detection and exact eigenvalue certificates.

Two matrices are equivalent when one is a simultaneous row/column permutation
of the other.  The infinite order-1 and order-2 families are matched by
closed-form entry predicates instead of enumeration, which terminates and
covers every parameter value.  Each order-3 template m_5..m_9 has diagonal
(-t, -t, -t), and the permutations of three indices permute the three
off-diagonal positions in every possible way.  So a 3 x 3 principal
submatrix is equivalent to a template exactly when its diagonal is -t
throughout and its sorted off-diagonal triple is the template's; the five
sorted triples are distinct, so the triple alone names the template.  The
order-3 step never visits a triple: each -t row i holds one bitset per
template value v, the -t rows k with S[i][k] = v, and a pair i < j of -t
rows is completed by the k > j in the union, over the value pairs (b, c)
that complete S[i][j] to a template triple, of mask(i, b) & mask(j, c).
That is O(r^2) bitset operations on r rows of diagonal -t, not O(r^3)
tuple sorts.

Certificates for claims of the form lambda_min(G) < -t are rational vectors
x with x^T (A + tI) x < 0.  Every exact decision of lambda_min(G) >= -t on
blocks reads one :class:`_Quotient`: an equitable partition of G with its
quotient Q, whose block form diag(sizes)(Q + tI) represents A + tI on
block-constant vectors.  It is decided by exact LDL^T, with the estimate for
the dominance certificate from Q's one dense eigensolve, and a refutation is
re-checked on the graph itself in integers and lifted block-constant.  One
routine, :func:`_form_by_class`, does every re-check and
:func:`graph_quadratic_form` too: the support falls into value classes V_I
with integer values y_I, and x^T (A + tI) x is sum_{I <= J} (2 - [I = J])
y_I y_J e(V_I, V_J) + t sum_I |V_I| y_I^2 over one common denominator.  Each
e(V_I, V_J), the number of ordered adjacent pairs, is counted by popcounts
of G's own neighborhood bitsets over the smaller class of the pair, never
read from Q, so no edge is visited one at a time.  A lifted witness has one
value per block, so its blocks, grouped by value, are its classes.

The threshold expansions of :func:`prop215` state their partitions, which
:func:`graph_quotient_matrix` verifies.  Every other decision, that is the
nine pairs of :func:`verify_proposition_cal`, ``lambda-min --at-least`` and
condition (iii) of ``check-intro2``, is :func:`certify_lambda_min_below`, and
the floating evidence of every command is :func:`graph_lambda_min_float`.
Both read the :class:`_TwinSplit` of G, whose blocks are its twin classes
(:func:`hoffman.graphs.twin_classes`): closed twins have N[u] = N[v], open
twins N(u) = N(v).  Each class V_I is a module, so the split of the spectrum
is exact.  A vector supported on one class and summing to zero there is an
eigenvector, with eigenvalue -1 for a closed class and 0 for an open one,
since A restricted to the class is J - I or 0 and the rest of the graph sees
every vertex of the class alike.  These vectors are orthogonal to the
block-constant vectors, which A maps to themselves; on x = sum_I y_I
1_{V_I}, x^T (A + tI) x = y^T (B + t diag(s)) y with B_IJ = e(V_I, V_J), the
number of ordered adjacent pairs, and s the class sizes.  So A + tI is PSD
exactly when t >= 1 if a closed class has two vertices, t >= 0 if an open
class has two, and B + t diag(s) = diag(s)(Q + tI) is PSD.  A refutation is
e_u - e_v inside a class or the lifted witness of the block form.  In a
clique expansion G(h, p) the vertices of each fat clique are closed twins,
so its block form has order at most that of h; on a twin-free graph it is
A + tI itself.  A command or ``cal`` pair passes one split to both, so G is
split once and the one eigensolve, on Q (on A itself when G is twin-free,
with no quotient built), gives the floating evidence and the estimate.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from typing import Optional, Sequence

from . import exact
from ._numpy import np
from .errors import NotEquitable, VerificationError
from .exact import (
    _INT64_LIMIT,
    RationalMatrix,
    _amax,
    adjacency_bits,
    det_exact,
    psd_witness,
    quotient_eigenvalues_float,
)
from .graphs import MAX_VERTICES, Graph, _bitset, _is_int, _neighborhoods, twin_classes
from .hgraphs import (
    HoffmanGraph,
    catalog,
    clique_with_two_fats,
    expand,
    m_matrix,
    pendant_slim_pair,
    slim_with_fats,
)

# -- scanning for forbidden principal submatrices ------------------------------

@dataclass(frozen=True)
class ForbiddenHit:
    """A principal submatrix equivalent to a forbidden template."""

    slim_subset: tuple[int, ...]
    family_member: str
    witness_matrix: tuple[tuple[int, ...], ...]


def load_matrix_file(path: str) -> RationalMatrix:
    """A square symmetric matrix of JSON integers, the input of a forbidden scan."""
    with open(path, "r", encoding="ascii") as fh:
        rows = json.load(fh)
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == len(rows) and all(_is_int(x) for x in row)
        for row in rows
    ):
        raise ValueError("matrix JSON must be a square list of integer rows")
    if any(rows[i][j] != rows[j][i] for i in range(len(rows)) for j in range(i)):
        raise ValueError("matrix JSON must be symmetric")
    return RationalMatrix(rows)


def scan_M_t(S: RationalMatrix, t: int) -> Optional[ForbiddenHit]:
    """First forbidden principal submatrix of order <= 3 of an integer matrix, or None.

    Scan order is deterministic: orders 1, 2, 3, index sets lexicographic,
    and within one index set the templates in subscript order.  A matrix
    with a non-integer entry (``S.den`` != 1) raises ValueError.

    Order 2 visits only the rows of diagonal -t and -t - 1, the only ones
    m_2..m_4 can match once order 1 has found none.  Order 3 walks the
    pairs i < j of rows of diagonal -t in lexicographic order and takes the
    smallest k > j in their candidate bitset (see the module docstring), so
    the first pair with a candidate gives the lexicographically first index
    triple, which at most one template matches.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    if S.den != 1:
        raise ValueError("forbidden scan requires an integer matrix")
    entries = S.num.tolist()
    n = len(entries)

    for i in range(n):
        d = entries[i][i]
        if d <= -t - 2:
            return ForbiddenHit((i,), f"m_{{1,{d + t}}}", ((d,),))

    # only diagonals -t and -t - 1 are left that m_2..m_4 can match
    near = [i for i in range(n) if -t - 1 <= entries[i][i] <= -t]
    for a, i in enumerate(near):
        row_i = entries[i]
        d1 = row_i[i]
        for j in near[a + 1:]:
            d2 = entries[j][j]
            off = row_i[j]
            sub = ((d1, off), (off, d2))
            if d1 == -t and d2 == -t and off <= -2:
                return ForbiddenHit((i, j), f"m_{{2,{off}}}", sub)
            if d1 != d2 and (off == 1 or off <= -1):
                return ForbiddenHit((i, j), f"m_{{3,{off}}}", sub)
            if d1 == -t - 1 and d2 == -t - 1 and (off == 1 or off <= -1):
                return ForbiddenHit((i, j), f"m_{{4,{off}}}", sub)

    # every m_5..m_9 has diagonal (-t, -t, -t) and its own sorted
    # off-diagonal triple; completions[a] lists the ordered pairs (b, c)
    # that make (a, b, c) one of them
    kinds: dict[tuple[int, ...], str] = {}
    for kind in (5, 6, 7, 8, 9):
        m = m_matrix(kind, t=t)
        kinds[tuple(sorted((m[0][1], m[0][2], m[1][2])))] = f"m_{kind}"
    values = set(chain.from_iterable(kinds))
    completions = {a: [(b, c) for b in values for c in values
                       if tuple(sorted((a, b, c))) in kinds] for a in values}
    minus_t = [i for i in near if entries[i][i] == -t]
    # masks[p][v]: the positions q of minus_t with S[minus_t[p], minus_t[q]] = v
    masks = []
    for i in minus_t:
        row_i = entries[i]
        mask = dict.fromkeys(values, 0)
        for q, k in enumerate(minus_t):
            v = row_i[k]
            if v in mask:
                mask[v] |= 1 << q
        masks.append(mask)
    for p, i in enumerate(minus_t):
        row_i, mask_i = entries[i], masks[p]
        for q in range(p + 1, len(minus_t)):
            mask_j = masks[q]
            j = minus_t[q]
            found = 0
            for b, c in completions.get(row_i[j], ()):
                found |= mask_i[b] & mask_j[c]
            found >>= q + 1
            if found:
                # the first pair with a completion, at its smallest k, is
                # the lexicographically first index triple
                k = minus_t[q + (found & -found).bit_length()]
                member = kinds[tuple(sorted((row_i[j], row_i[k], entries[j][k])))]
                sub = tuple(tuple(entries[r][c] for c in (i, j, k)) for r in (i, j, k))
                return ForbiddenHit((i, j, k), member, sub)
    return None


# -- exact certificates ---------------------------------------------------------

def adjacency_rational(G: Graph, vertices: Optional[Sequence[int]] = None) -> RationalMatrix:
    """Adjacency matrix as a RationalMatrix, unpacked from the bitsets; with
    ``vertices``, its principal submatrix on them, in that order."""
    return RationalMatrix.fraction_free(adjacency_bits(G, vertices).astype(np.int64), 1)


class _Quotient:
    """An equitable partition of G into ``blocks`` with its quotient Q
    (Q_IJ the number of neighbors in block J of any vertex of block I):
    Q's one dense eigensolve, :attr:`lambda_min`, computed on first use, and
    the exact decision on the block form, :meth:`witness`.  A subclass may
    supply ``blocks`` and ``quotient`` as lazy attributes instead.
    """

    def __init__(self, G: Graph, blocks, quotient: RationalMatrix):
        self.G = G
        self.blocks = blocks
        self.quotient = quotient

    @cached_property
    def lambda_min(self) -> Optional[float]:
        """The smallest eigenvalue of Q; None at order 0 or above the
        floating solver's limit.  When every block is a singleton Q is
        symmetric and is solved as it is, without the symmetrizing passes."""
        if len(self.blocks) == self.G.n:
            values = exact.eigenvalues_float(self.quotient)
        else:
            values = quotient_eigenvalues_float(self.quotient, [len(b) for b in self.blocks])
        return values[0] if values else None

    def witness(self, t) -> Optional[list[Fraction]]:
        """None when the block form is PSD; otherwise its witness, re-checked
        on G block by block and lifted block-constant.

        For block sizes n_I the block form T = diag(n)(Q + tI) is symmetric
        and represents A + tI on block-constant vectors, so any witness for T
        lifts to the graph.  T is Q + tI from :meth:`RationalMatrix.shifted`
        with row I scaled by n_I, in int64 unless max(n) max|num| reaches
        2^63; when every block is a singleton T is Q + tI itself.  With N =
        diag(n), T = N^(1/2) (S + tI) N^(1/2) for the symmetric S = N^(1/2) Q
        N^(-1/2), so by Ostrowski's theorem T's smallest eigenvalue is at
        least min(n) (lambda_min + t) when that is positive.  Scaled to T's
        numerator that is the estimate the certificate proposes from.  It is
        formed in exact rationals and converted to float once, and only for
        an int64 numerator, the only kind the certificate reads, so a
        threshold outside the float range cannot make it overflow.

        The re-check reads the blocks and G, not Q: blocks of equal value
        form one class of :func:`_form_by_class`, so it costs at most one
        popcount per support vertex and value class.
        """
        t = Fraction(t)
        sizes = [len(block) for block in self.blocks]
        T = self.quotient.shifted(t)
        largest = max(sizes, default=1)
        if largest > 1:
            num = T.num
            if num.dtype != object and largest * _amax(num) >= _INT64_LIMIT:
                num = num.astype(object)
            T = RationalMatrix.fraction_free(np.array(sizes, dtype=num.dtype)[:, None] * num, T.den)
        estimate = None
        if T.num.dtype == np.int64 and self.lambda_min is not None:
            # int / int rounds once, as float(Fraction) does
            a, b = self.lambda_min.as_integer_ratio()
            estimate = (T.den * min(sizes) * (a * t.denominator + t.numerator * b)
                        / (b * t.denominator))
        y = psd_witness(T, estimate)
        if y is None:
            return None
        # the re-check groups the blocks by value, so it never reads Q
        scale = math.lcm(*(v.denominator for v in y))
        classes: dict[int, Sequence[int]] = {}
        for block, v in zip(self.blocks, y):
            if v:
                key = v.numerator * (scale // v.denominator)
                classes[key] = [*classes[key], *block] if key in classes else block
        _rechecked(self.G, t, classes, scale)
        x = [Fraction(0)] * self.G.n
        for block, v in zip(self.blocks, y):
            if v:
                for u in block:
                    x[u] = v
        return x


class _TwinSplit(_Quotient):
    """The :class:`_Quotient` of G's twin classes, whose blocks, gaps,
    quotient and eigensolve are each computed on first use, so that the
    floating evidence and the exact decision on one graph share them.  It
    does not call the base initializer: ``blocks`` and ``quotient`` are the
    cached properties below, not constructor arguments.
    """

    def __init__(self, G: Graph):
        self.G = G

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return twin_classes(self.G)

    @cached_property
    def gaps(self) -> list[tuple[int, int, int, int]]:
        """(I, u, v, e) for each twin class I of two or more with first
        vertices u, v: e_u - e_v is an eigenvector of A with eigenvalue e, -1
        for a closed class and 0 for an open one."""
        return [(i, c[0], c[1], -1 if self.G.has_edge(c[0], c[1]) else 0)
                for i, c in enumerate(self.blocks) if len(c) > 1]

    @cached_property
    def quotient(self) -> RationalMatrix:
        """The twin quotient Q, an integer matrix of order r.

        Q_IJ = s_J A(v_I, v_J) off the diagonal, with s the class sizes and
        v_I the first vertex of class I, and Q_II = s_I - 1 for a closed
        class and 0 otherwise.  It is built from the r x r submatrix of A on
        the v_I, not from per-vertex counts; on a twin-free graph (r = n) it
        is the adjacency matrix itself.
        """
        classes = self.blocks
        if len(classes) == self.G.n:
            return adjacency_rational(self.G)
        Q = adjacency_rational(self.G, [c[0] for c in classes]).num * np.array(
            [len(c) for c in classes], dtype=np.int64)
        for i, _, _, e in self.gaps:
            if e:
                Q[i, i] = len(classes[i]) - 1
        return RationalMatrix.fraction_free(Q, 1)


def graph_lambda_min_float(G: Graph, split: Optional[_TwinSplit] = None) -> Optional[float]:
    """Smallest adjacency eigenvalue as floating evidence; None at order 0 or above the limit.

    It is the least of the twin quotient's smallest eigenvalue, -1 when a
    closed class has two or more vertices and 0 when an open one has, so the
    dense solver runs on the quotient alone.  The limit applies to the
    order of G, as it did when the whole adjacency matrix was solved.
    ``split``, when given, is the :class:`_TwinSplit` of G that a caller
    shares with :func:`certify_lambda_min_below`.
    """
    if not 0 < G.n <= exact.FLOAT_ORDER_LIMIT:
        return None
    split = _TwinSplit(G) if split is None else split
    return min([split.lambda_min, *(float(e) for *_, e in split.gaps)])


def graph_quotient_matrix(G: Graph, blocks: Sequence[Sequence[int]]) -> RationalMatrix:
    """Equitable-partition quotient of an adjacency matrix, via bitsets.

    ``blocks`` must be nonempty, disjoint and cover 0..n-1, else ValueError.
    Entry (I, J) is the number of neighbors in block J of any vertex of
    block I.  Equitability is verified, not assumed: a vertex whose count
    differs from its block's first vertex raises :class:`NotEquitable`.
    """
    if not all(blocks) or sorted(chain.from_iterable(blocks)) != list(range(G.n)):
        raise ValueError("blocks must be nonempty, disjoint and cover 0..n-1")
    masks = [_bitset(block) for block in blocks]
    rows = []
    for block in blocks:
        neighborhoods = _neighborhoods(G, block)
        row = []
        for jdx, mask in enumerate(masks):
            counts = list(map(int.bit_count, map(mask.__and__, neighborhoods)))
            first = counts[0]
            if counts.count(first) != len(counts):
                offset = next(k for k, c in enumerate(counts) if c != first)
                raise NotEquitable(block[offset], jdx)
            row.append(first)
        rows.append(row)
    return RationalMatrix(rows)


def graph_quadratic_form(G: Graph, t, x: Sequence) -> Fraction:
    """x^T (A(G) + t I) x evaluated over classes of equal values, exactly.

    Denominators are cleared once, y = L x integral, and the vertices are
    grouped by their integer value y, so the form is :func:`_form_by_class`
    on those classes: at most one popcount per support vertex and value
    class, each pair of classes counted over the smaller one.
    """
    # Fractions are immutable, so the lifted witnesses' entries are reused as they are
    xs = [v if type(v) is Fraction else Fraction(v) for v in x]
    if len(xs) != G.n:
        raise ValueError("vector length mismatch")
    scale = math.lcm(*(v.denominator for v in xs))
    classes: dict[int, list[int]] = {}
    for u, v in enumerate(xs):
        y = v.numerator * (scale // v.denominator)
        if y:
            classes.setdefault(y, []).append(u)
    return _form_by_class(G, t, classes, scale)


def _form_by_class(G: Graph, t, classes: dict[int, Sequence[int]], scale: int) -> Fraction:
    """x^T (A(G) + t I) x, counted on G's neighborhood bitsets, for the x
    that is y / scale on the vertices ``classes[y]`` of each nonzero
    integer y and 0 elsewhere; the vertex lists must be disjoint.

    With V_I the class of y_I, e(V_I, V_J) = sum_{u in V_I} |N(u) & V_J| and
    t = a/b, the form is (b W + a sum_I |V_I| y_I^2) / (b scale^2) with
    W = sum_{I <= J} (2 - [I = J]) y_I y_J e(V_I, V_J).  The classes are
    taken in order of size, so each e with I < J is counted over the rows
    of the smaller class V_I against V_J's bitset: at most one popcount per
    support vertex and value class, and nothing but G's adjacency is read.
    The loop in Python runs over the later classes or over V_I's rows,
    whichever is shorter; the other side is one C-level map.
    """
    t = Fraction(t)
    order = sorted(classes.items(), key=lambda item: len(item[1]))
    values = [y for y, _ in order]
    masks = [_bitset(vs) for _, vs in order]
    twice_edge_sum = 0
    square_sum = 0
    for i, (y, vs) in enumerate(order):
        rows = _neighborhoods(G, vs)
        later_values, later_masks = values[i + 1:], masks[i + 1:]
        if len(rows) <= len(later_masks):
            cross = sum(sum(map(operator.mul, later_values,
                                map(int.bit_count, map(row.__and__, later_masks))))
                        for row in rows)
        else:
            cross = sum(z * sum(map(int.bit_count, map(mask.__and__, rows)))
                        for z, mask in zip(later_values, later_masks))
        inner = sum(map(int.bit_count, map(masks[i].__and__, rows)))
        twice_edge_sum += y * (y * inner + 2 * cross)
        square_sum += len(vs) * y * y
    return Fraction(
        t.denominator * twice_edge_sum + t.numerator * square_sum,
        t.denominator * scale * scale,
    )


def certify_lambda_min_below(G: Graph, t, split: Optional[_TwinSplit] = None) -> Optional[list[Fraction]]:
    """None when lambda_min(G) >= -t, that is when A + tI is PSD; otherwise a
    rational witness x with x^T (A + tI) x < 0, re-checked on the graph.

    A twin class of two or more gives e_u - e_v with value 2(t + e) for its
    eigenvalue e, which refutes when t < -e.  Otherwise A + tI is PSD exactly
    when diag(s)(Q + tI) is, for the twin quotient Q, and the split's
    :meth:`_Quotient.witness` decides it; on a twin-free graph that matrix
    is A + tI itself, so the verdict and the witness are those of LDL^T on
    the full matrix.  ``split``, when given, is the :class:`_TwinSplit` of G
    that a caller shares with :func:`graph_lambda_min_float`.
    """
    t = Fraction(t)
    split = _TwinSplit(G) if split is None else split
    for _, u, v, e in split.gaps:
        if t < -e:
            _rechecked(G, t, {1: [u], -1: [v]}, 1)
            x = [Fraction(0)] * G.n
            x[u], x[v] = Fraction(1), Fraction(-1)
            return x
    return split.witness(t)


def _rechecked(G: Graph, t, classes: dict[int, Sequence[int]], scale: int) -> None:
    """Re-check x^T (A + tI) x < 0 on G in integers for the witness x that
    :func:`_form_by_class` reads from ``classes`` and ``scale``."""
    if _form_by_class(G, t, classes, scale) >= 0:
        raise VerificationError("internal error: witness failed re-verification")


def _lift_quotient_witness(quotient: _Quotient, t) -> list[Fraction]:
    """The witness of a stated partition's block form, which must exist."""
    x = quotient.witness(t)
    if x is None:
        raise VerificationError("quotient form is PSD; no block-constant witness")
    return x


# -- the nine expansion inequalities ---------------------------------------------

PROP_CAL_PAIRS: tuple[tuple[str, int], ...] = (
    ("h_{1,-2}", 7),
    ("h_{3,1}", 7),
    ("h_{3,-1}", 13),
    ("h_{4,-2}", 5),
    ("h_5", 11),
    ("h_6", 5),
    ("h_7", 15),
    ("h_8^{(1)}", 8),
    ("h_8^{(2)}", 11),
)


def verify_proposition_cal() -> list[dict]:
    """Certify lambda_min(G(h, p)) < -3 for the nine catalog pairs.

    Each check is independent of the others; a failure aborts with the
    offending pair.  Each graph is split into its twin classes once, and
    that one :class:`_TwinSplit` gives both the exact certificate, a
    rational witness vector from :func:`certify_lambda_min_below`, re-checked
    on the graph, and the floating eigenvalue the results carry as evidence,
    so each pair runs one eigensolve.  The vertices of each fat clique are
    closed twins, so the block form has order at most that of h.
    """
    results = []
    for name, p in PROP_CAL_PAIRS:
        G = expand(catalog(name).hoffman, p)
        split = _TwinSplit(G)
        if certify_lambda_min_below(G, 3, split) is None:
            raise VerificationError(f"({name}, p={p}): lambda_min >= -3; no witness")
        results.append({"pair": name, "p": p, "vertices": G.n,
                        "lambda_min_float": graph_lambda_min_float(G, split),
                        "exact_verdict": True})
    return results


# -- threshold expansions with quotient cross-checks -------------------------------

def _quotient_check(G: Graph, s: int, blocks, construction: str) -> dict:
    q = _Quotient(G, blocks, graph_quotient_matrix(G, blocks))
    det = det_exact(q.quotient.shifted(s))
    if det != -1:
        raise VerificationError(f"{construction}: det(quotient + {s}I) = {det}, expected -1")
    # det(T) = prod(sizes) * det < 0 for the block form T of the lift, so T
    # is not PSD and the lift cannot miss
    witness = _lift_quotient_witness(q, s)
    return {
        "construction": construction,
        "vertices": G.n,
        "quotient": q.quotient.to_json(),
        "det_shifted": str(det),
        "quotient_lambda_min": q.lambda_min,
        "graph_lambda_min": graph_lambda_min_float(G),
        "exact_verdict": True,
        # the lift is constant on each block
        "witness_support": sum(len(block) for block in blocks if witness[block[0]]),
    }


def _threshold_expansions(s: int) -> list[tuple[str, HoffmanGraph, int, list[range]]]:
    """(construction, h, p, slim blocks) of the three expansions G(h, p) of
    :func:`prop215` at s.  The stated partition of G(h, p) is the slim
    blocks followed by one block of every clique vertex, which :func:`expand`
    numbers after the slims."""
    return [
        ("hub_with_cliques", slim_with_fats(s + 1), s * (s - 1) + 1, [range(1)]),
        ("clique_with_two_cliques", clique_with_two_fats(s), (s - 1) * (2 * s - 1) + 1,
         [range(s)]),
        ("pendant_pair_with_cliques", pendant_slim_pair(s), (s + 1) * (s - 1) ** 2 + 1,
         [range(1), range(1, 2)]),
    ]


@cache
def _prop215_s_limit() -> int:
    """The largest s at which every expansion of :func:`prop215` has at most
    ``MAX_VERTICES`` vertices, the most :func:`expand` builds; each order,
    h.n_slim + p h.n_fat, grows with s."""
    s = 2
    while all(h.n_slim + p * h.n_fat <= MAX_VERTICES
              for _, h, p, _ in _threshold_expansions(s + 1)):
        s += 1
    return s


def prop215(s: int) -> dict:
    """The three clique-expansion thresholds at parameter s, certified.

    p1 = s(s-1)+1, p2 = (s-1)(2s-1)+1, p3 = (s+1)(s-1)^2+1.  Each of the
    three expansions is built explicitly, its stated equitable partition is
    verified, the shifted quotient determinant is matched against the closed
    form (all three equal -1), and lambda_min < -s is certified by a rational
    witness lifted from the quotient and re-checked on the graph itself.  The
    floating evidence ``graph_lambda_min`` is None above the floating solver's
    order limit.
    """
    if s < 2:
        raise ValueError("s must be at least 2")
    expansions = _threshold_expansions(s)
    checks = []
    for construction, h, p, slim_blocks in expansions:
        G = expand(h, p)
        checks.append(_quotient_check(G, s, [*slim_blocks, range(h.n_slim, G.n)], construction))
    p1, p2, p3 = (p for _, _, p, _ in expansions)
    return {
        "s": s,
        "p1": p1,
        "p2": p2,
        "p3": p3,
        "checks": checks,
        "note": (
            "the third inequality is asserted for the pendant-pair expansion "
            "as constructed"
        ),
    }


__all__ = [
    "ForbiddenHit",
    "PROP_CAL_PAIRS",
    "adjacency_rational",
    "certify_lambda_min_below",
    "graph_lambda_min_float",
    "graph_quadratic_form",
    "graph_quotient_matrix",
    "prop215",
    "scan_M_t",
    "verify_proposition_cal",
]
