"""Bipartite matrix reorderings, polar decomposition, and unitarity defects.

A square matrix of order n = d*d is read as an operator on a two-party space.
Composite indices are row-major throughout: the pair (a, i) labels row
a*d + i, and likewise for columns. Every reordering below is a permutation of
the entries, so each one preserves the Frobenius norm and is an involution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, DimensionError, NumericError, _integer

__all__ = [
    "block_dim",
    "reshuffle",
    "partial_transpose",
    "flattenings",
    "PolarFactors",
    "polar_decompose",
    "unitarity_defect",
    "two_unitarity_defect",
    "MultiUnitarityReport",
    "multi_unitarity_check",
]


def block_dim(m) -> int:
    """Side length d of the bipartite blocks of a square matrix of order d*d."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return _order_root(m.shape[0])


def _order_root(order: int) -> int:
    d = math.isqrt(order)
    if d == 0 or d * d != order:
        raise DimensionError(
            f"order {order} is not the square of a positive integer; "
            "bipartite reorderings are undefined"
        )
    return d


def _reorder(m, axes) -> np.ndarray:
    """Permute the block indices of every matrix of order d*d in m.

    m is one square matrix or a stack of them along leading axes. Each is
    read as (stack, a, i, b, j) with row a*d + i and column b*d + j, and
    axes says which of those five axes each output axis takes.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    d = _order_root(m.shape[-1])
    return m.reshape(-1, d, d, d, d).transpose(axes).reshape(m.shape)


def _unfoldings(t, row_sets) -> np.ndarray:
    """Stack of matrix unfoldings of the tensor t, gathered by one take.

    Unfolding s has the axes row_sets[s] as its rows, in that order, and the
    other axes as its columns in ascending order, composite indices
    row-major: for a matrix of order d*d read as t[a, i, b, j], rows (0, 1)
    give the matrix itself, (2, 3) its transpose, (0, 2) its reshuffle and
    (0, 3) its partial transpose with the column pair swapped. All the
    unfoldings must have the same shape.
    """
    return t.reshape(-1)[_unfolding_index(t.shape, tuple(row_sets))]


@lru_cache(maxsize=64)
def _unfolding_index(shape, row_sets) -> np.ndarray:
    """Flat positions in a tensor of this shape that _unfoldings gathers."""
    positions = np.arange(math.prod(shape)).reshape(shape)
    index = np.stack([_unfold(positions, rows) for rows in row_sets])
    index.flags.writeable = False
    return index


def _unfold(t, rows) -> np.ndarray:
    """One unfolding of t, the axes rows (a tuple) as its rows; may be a view of t."""
    cols = tuple(q for q in range(t.ndim) if q not in rows)
    return t.transpose(rows + cols).reshape(math.prod(t.shape[q] for q in rows), -1)


@lru_cache(maxsize=64)
def _subsets(n, k, with_first=False) -> tuple:
    """The k-subsets of range(n) in lexicographic order, as sorted tuples.

    With with_first=True only those that hold 0: for k = n / 2 one of each
    complementary pair, so one unfolding of each pair of mutual transposes.
    """
    subsets = itertools.combinations(range(n), k)
    return tuple(rows for rows in subsets if not with_first or rows[0] == 0)


# The most entries _each_unfolding gathers into one stack. Beyond it the
# unfoldings are taken one at a time and no index is cached: qoa_verify at
# order 9 has six unfoldings of 531441 entries, a 51 MB stack with a 25 MB
# index. qols_verify passes it from order 121 (d = 11) on, while the certify
# chain's stacks hold at most 6 * 36 * 36 entries.
_STACK_LIMIT = 1 << 16


def _each_unfolding(f, t, row_sets) -> np.ndarray:
    """f of the stack of unfoldings of t (see _unfoldings), one result each.

    f maps a stack of matrices to one result per matrix, each taken from its
    own matrix alone. Up to _STACK_LIMIT entries the unfoldings are gathered
    into one stack; beyond it each goes to f alone as a stack of one.
    """
    if len(row_sets) * t.size > _STACK_LIMIT:
        return np.concatenate([f(_unfold(t, rows)[None]) for rows in row_sets])
    return f(_unfoldings(t, row_sets))


def _marginal_defects(t, row_sets, c) -> np.ndarray:
    """Frobenius norms of M M* - c I over the unfoldings M of t (see _unfoldings).

    For a state tensor M M* is the reduced density matrix of the row axes,
    so these are the distances of its marginals from c times the identity.
    Each is the Gram defect of the view M^T: (M^T)* M^T - c I is the conjugate
    of M M* - c I, so the norms are the same bits, and so are those of an
    unfolding gathered with the others and taken alone.
    """
    return _each_unfolding(lambda m: gram_defect(m.swapaxes(-1, -2), c), t, row_sets)


def reshuffle(m, dual: bool = False) -> np.ndarray:
    """Swap the column index of party one with the row index of party two.

    The entry at (a*d + i, b*d + j) lands at (a*d + b, i*d + j). With
    dual=True the mirrored variant is applied instead and the entry lands at
    (j*d + i, b*d + a). Both variants are involutions. A stack of matrices
    along leading axes is reshuffled matrix by matrix.
    """
    return _reorder(m, (0, 4, 2, 3, 1) if dual else (0, 1, 3, 2, 4))


def partial_transpose(m, side: str = "second") -> np.ndarray:
    """Transpose the indices of one party while leaving the other untouched.

    side="second" sends the entry at (a*d + i, b*d + j) to (a*d + j, b*d + i);
    side="first" sends it to (b*d + i, a*d + j). Applying one then the other
    equals the ordinary transpose. A stack of matrices along leading axes is
    transposed matrix by matrix.
    """
    if side == "second":
        return _reorder(m, (0, 1, 4, 3, 2))
    if side == "first":
        return _reorder(m, (0, 3, 2, 1, 4))
    raise ValueError("side must be 'first' or 'second'")


def flattenings(t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three balanced matrix unfoldings of a four-index tensor.

    For t[i, j, k, l] with all axes of length d, returns (x, y, z) where
    x[(i,j), (k,l)], y[(i,k), (j,l)] and z[(i,l), (k,j)] hold the tensor
    entries under row-major composite indices. y == reshuffle(x) and
    z == partial_transpose(x).
    """
    t = np.asarray(t)
    if t.ndim != 4 or len(set(t.shape)) != 1:
        raise DimensionError(
            f"expected a tensor with four equal axes, got shape {t.shape}"
        )
    n = t.shape[0] ** 2
    x = t.reshape(n, n)
    return x, reshuffle(x), partial_transpose(x)


@dataclass(frozen=True)
class PolarFactors:
    """Left polar factors m = positive_part @ unitary_part."""

    positive_part: np.ndarray
    unitary_part: np.ndarray


def robust_svd(m):
    """Full SVD (p, s, qh) of a finite square complex matrix, or of a stack.

    LAPACK's divide-and-conquer driver (gesdd) sporadically fails to converge
    on long sweeps; the plain QR-iteration driver (gesvd) is the fallback.
    When a stacked call fails, every matrix of the stack is retried on its
    own, so only the one that failed goes to gesvd and no matrix's factors
    depend on the others in its stack.
    """
    try:
        return np.linalg.svd(m)
    except np.linalg.LinAlgError:
        if m.ndim > 2:
            p, s, qh = zip(*map(robust_svd, m))
            return np.stack(p), np.stack(s), np.stack(qh)
        import scipy.linalg

        return scipy.linalg.svd(m, lapack_driver="gesvd")


def _finite_square(m, bipartite=False) -> np.ndarray:
    """m as a complex square matrix with finite entries, of order d*d if bipartite.

    The one check of the matrix entry points. A wrong shape is a
    DimensionError and comes before a non-finite entry, a NumericError.
    """
    m = np.asarray(m)
    if bipartite:
        block_dim(m)
    elif m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    m = m.astype(complex, copy=False)
    if not np.isfinite(m).all():
        raise NumericError("matrix has non-finite entries")
    return m


def polar_decompose(m) -> PolarFactors:
    """Left polar decomposition m = H V with H >= 0 and V unitary.

    Built from the singular value decomposition m = P diag(s) Q*:
    V = P Q* and H = P diag(s) P*. V is the unitary matrix closest to m in
    Frobenius norm.
    """
    p, s, qh = robust_svd(_finite_square(m))
    v = p @ qh
    h = (p * s) @ p.conj().T
    return PolarFactors(positive_part=h, unitary_part=v)


def _is_finite_number(x) -> bool:
    """Whether x is a real number that is neither NaN nor infinite, not a bool."""
    if isinstance(x, (bool, np.bool_)):  # math.isfinite(True) is True
        return False
    try:
        return math.isfinite(x)
    except TypeError:  # a string, None, a list, a complex number
        return False


def _check_tol(tol, name="tol") -> None:
    """Reject a tolerance that is not a finite number >= 0 (a ValueError).

    A NaN tolerance would pass every residual (x > nan is false) and an
    infinite one any finite residual, so neither can back a verdict.
    """
    if not (_is_finite_number(tol) and tol >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {tol!r}")


def unitarity_defect(m) -> float:
    """Frobenius distance of m* m from the identity; 0 exactly iff unitary.

    A checked front for gram_defect: m must be one finite square matrix. A
    matrix of 0s and 1s gets an exact result, a permutation exactly 0.0.
    """
    return gram_defect(_finite_square(m))


def gram_defect(m, c=1.0):
    """Frobenius norm of m* m - c I; with c = 1, whether m has orthonormal columns.

    m is a finite complex n x k matrix, or a stack of them along leading
    axes, which gives an array of defects, one per matrix. The unchecked core
    of every unitarity residual in the package. It needs no integer path:
    for entries 0 and 1 every Gram entry and every square summed is a small
    integer, which floating point holds exactly, so a permutation matrix
    gives exactly 0.0. The reduction is the one np.linalg.norm makes for
    axis=(-2, -1), so the defects are the same bits as its.
    """
    defect = _frobenius(_gram_residual(m, c), (-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def _gram_residual(m, c=1.0) -> np.ndarray:
    """m* m - c I for a matrix m or every matrix of a stack: the one Gram formula."""
    g = m.conj().swapaxes(-1, -2) @ m
    _subtract_diagonal(g, c)
    return g


def _subtract_diagonal(g, c) -> None:
    """Subtract c from the diagonal of every matrix of a stack, in place.

    A product of strided operands need not come back C-contiguous, so the
    diagonals are taken as einsum's writable view, which holds for any
    layout and copies nothing.
    """
    diagonal = np.einsum("...ii->...i", g)
    diagonal -= c


def _frobenius(g, axis):
    """Frobenius norms over the given axes, reduced as np.linalg.norm does.

    A product of finite matrices that overflows holds inf and may hold NaN
    (inf - inf, 0 * inf); the norm of either reads inf, never NaN, so a
    residual compared with res > tol fails. Finite norms keep their bits.
    """
    return np.fmin(np.sqrt(np.add.reduce((g.conj() * g).real, axis=axis)), np.inf)


def two_unitarity_defect(m) -> float:
    """Worst unitarity defect among m, reshuffle(m) and partial_transpose(m).

    Zero exactly iff m is 2-unitary. The maximum (not the sum) is reported so
    the value reads directly as "the worst of the three conditions". These
    are the three unfoldings of multi_unitarity_check at half-order 2, and
    like it this accepts only a finite matrix.
    """
    m = _finite_square(m, bipartite=True)
    t = m.reshape((math.isqrt(len(m)),) * 4)
    return max(_marginal_defects(t, _subsets(4, 2, with_first=True), 1.0).tolist())


@dataclass(frozen=True)
class MultiUnitarityReport:
    """Per-unfolding unitarity defects of a 2M-index tensor."""

    half_order: int
    dim: int
    tol: float
    defects: tuple  # ((row_axes, defect), ...) in lexicographic row-axes order

    @property
    def max_defect(self) -> float:
        return max(v for _, v in self.defects)

    @property
    def passed(self) -> bool:
        return self.max_defect <= self.tol


def multi_unitarity_check(t, dim: int, half_order: int, tol: float = 1e-10):
    """Unitarity of every inequivalent balanced unfolding of a tensor.

    The input (any shape with dim**(2*half_order) finite entries) is
    reshaped to 2*half_order axes of length dim. For each axis subset of
    size half_order that contains axis 0, the unfolding with those axes as
    rows is tested; complementary subsets give transposed unfoldings, so
    listing only the subsets containing axis 0 covers all inequivalent
    conditions: 3 for half_order 2, 10 for half_order 3. This is ame_check's
    marginal check at c = 1, on its subsets: M is square, so ||M M* - I|| =
    ||M* M - I||, and for a unitary u each defect of half-order 2 is d**2
    times the AME residual of state_from_two_unitary(u) on the same subset.
    dim and half_order must be integers and tol a finite number >= 0.
    """
    dim = _integer("dim", dim, DimensionError)
    half_order = _integer("half_order", half_order, DimensionError)
    if half_order not in (2, 3):
        raise CapabilityError(
            f"half-order {half_order} not supported; only 2 and 3 are implemented"
        )
    _check_tol(tol)
    t = np.asarray(t, dtype=complex)
    n_axes = 2 * half_order
    if dim < 1 or t.size != dim**n_axes:
        raise DimensionError(f"{t.size} entries are not {n_axes} axes of length {dim}")
    if not np.isfinite(t).all():
        raise NumericError("tensor has non-finite entries")
    subsets = _subsets(n_axes, half_order, with_first=True)
    defects = _marginal_defects(t.reshape((dim,) * n_axes), subsets, 1.0).tolist()
    return MultiUnitarityReport(
        half_order=half_order, dim=dim, tol=tol, defects=tuple(zip(subsets, defects))
    )


def _cards(ranks, suits) -> np.ndarray:
    """The card v*d + s of each cell holding (v, s), cells in row-major order.

    The card encoding of designs lives here so that the search's bases can
    use it without loading designs.
    """
    return (ranks * ranks.shape[0] + suits).ravel()


def _card_permutation(cards) -> np.ndarray:
    """The 0/1 integer matrix with the 1 of column k in row cards[k], unchecked.

    With cards from _cards, column r*d + c is cell (r, c) and its 1 sits in
    the row of the card the cell holds: the card encoding of the squares.
    """
    n = len(cards)
    out = np.zeros((n, n), dtype=np.int64)
    out[cards, np.arange(n)] = 1
    return out
