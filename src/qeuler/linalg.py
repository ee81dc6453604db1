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

from .errors import CapabilityError, DimensionError, NumericError

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
    if d * d != order:
        raise DimensionError(
            f"order {order} is not a perfect square; "
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
    stack = []
    for rows in row_sets:
        cols = tuple(q for q in range(len(shape)) if q not in rows)
        n_rows = math.prod(shape[q] for q in rows)
        stack.append(positions.transpose(rows + cols).reshape(n_rows, -1))
    index = np.stack(stack)
    index.flags.writeable = False
    return index


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


def polar_decompose(m) -> PolarFactors:
    """Left polar decomposition m = H V with H >= 0 and V unitary.

    Built from the singular value decomposition m = P diag(s) Q*:
    V = P Q* and H = P diag(s) P*. V is the unitary matrix closest to m in
    Frobenius norm.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"polar factors need a square matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError("matrix has non-finite entries")
    p, s, qh = robust_svd(m)
    v = p @ qh
    h = (p * s) @ p.conj().T
    return PolarFactors(positive_part=h, unitary_part=v)


def _check_tol(tol) -> None:
    """Reject a verifier tolerance that is not a finite number >= 0.

    A NaN tolerance would pass every residual (x > nan is false) and an
    infinite one any finite residual, so neither can back a verdict.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def unitarity_defect(m) -> float:
    """Frobenius distance of m* m from the identity; 0 exactly iff unitary.

    A checked front for gram_defect: m must be one finite square matrix. A
    matrix of 0s and 1s gets an exact result, a permutation exactly 0.0.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"unitarity defect needs a square matrix, got {m.shape}")
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise NumericError("matrix has non-finite entries")
    return gram_defect(m)


def gram_defect(m):
    """Frobenius norm of m* m - I: whether the columns of m are orthonormal.

    m is a finite complex n x k matrix, or a stack of them along leading
    axes, which gives an array of defects, one per matrix. The unchecked core
    of every unitarity residual in the package. It needs no integer path:
    for entries 0 and 1 every Gram entry and every square summed is a small
    integer, which floating point holds exactly, so a permutation matrix
    gives exactly 0.0. The reduction is the one np.linalg.norm makes for
    axis=(-2, -1), so the defects are the same bits as its.
    """
    g = m.conj().swapaxes(-1, -2) @ m
    _subtract_diagonal(g, 1.0)
    defect = _frobenius(g, (-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def _subtract_diagonal(g, c) -> None:
    """Subtract c from the diagonal of every matrix of a C-contiguous stack, in place."""
    k = g.shape[-1]
    diagonal = g.reshape(g.shape[:-2] + (k * k,))[..., :: k + 1]
    diagonal -= c


def _frobenius(g, axis):
    """Frobenius norms over the given axes, reduced as np.linalg.norm does."""
    return np.sqrt(np.add.reduce((g.conj() * g).real, axis=axis))


def two_unitarity_defect(m) -> float:
    """Worst unitarity defect among m, reshuffle(m) and partial_transpose(m).

    Zero exactly iff m is 2-unitary. The maximum (not the sum) is reported so
    the value reads directly as "the worst of the three conditions". These
    are the three unfoldings of multi_unitarity_check at half-order 2, and
    like it this accepts only a finite matrix.
    """
    m = np.asarray(m)
    return multi_unitarity_check(m, block_dim(m), 2).max_defect


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
    conditions: 3 for half_order 2, 10 for half_order 3. The unfoldings are
    gathered into one stack and their defects taken by one gram_defect
    call. tol must be a finite number >= 0.
    """
    if half_order not in (2, 3):
        raise CapabilityError(
            f"half-order {half_order} not supported; only 2 and 3 are implemented"
        )
    _check_tol(tol)
    t = np.asarray(t)
    n_axes = 2 * half_order
    if t.size != dim**n_axes:
        raise DimensionError(
            f"tensor has {t.size} entries, expected {dim}**{n_axes} = {dim**n_axes}"
        )
    t = np.asarray(t, dtype=complex).reshape((dim,) * n_axes)
    if not np.isfinite(t).all():
        raise NumericError("tensor has non-finite entries")
    subsets = [
        rows
        for rows in itertools.combinations(range(n_axes), half_order)
        if rows[0] == 0
    ]
    defects = gram_defect(_unfoldings(t, subsets)).tolist()
    return MultiUnitarityReport(
        half_order=half_order, dim=dim, tol=tol, defects=tuple(zip(subsets, defects))
    )
