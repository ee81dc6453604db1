"""Independent checks of qeuler's outputs.

Nothing here imports qeuler. The reorderings are rebuilt from the index
formulas stated in the qeuler.linalg docstrings, with composite indices
row-major (the pair (a, i) labels a*d + i):

    reshuffle:          (a*d + i, b*d + j)  ->  (a*d + b, i*d + j)
    partial transpose:  (a*d + i, b*d + j)  ->  (a*d + j, b*d + i)

The four-party state of an order d*d matrix U has amplitudes
psi[i, j, k, l] = U[i*d + j, k*d + l] / ||U||_F, and the Latin squares of
order 3 are enumerated from scratch rather than taken from a construction.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


def _order_root(m) -> int:
    n = m.shape[0]
    d = math.isqrt(n)
    if m.shape != (n, n) or d * d != n:
        raise ValueError(f"expected a square matrix of order d*d, got {m.shape}")
    return d


@lru_cache(maxsize=None)
def _index_maps(d: int):
    """Flat source positions that gather U^R and U^Gamma out of U.

    out.flat[dest] = u.flat[src], built by looping over the four indices so
    the formulas above are all that is trusted.
    """
    n = d * d
    src_r = np.empty(n * n, dtype=np.int64)
    src_g = np.empty(n * n, dtype=np.int64)
    for a, i, b, j in itertools.product(range(d), repeat=4):
        src = (a * d + i) * n + (b * d + j)
        src_r[(a * d + b) * n + (i * d + j)] = src
        src_g[(a * d + j) * n + (b * d + i)] = src
    return src_r, src_g


def realign(u):
    """(U^R, U^Gamma) of an order d*d matrix."""
    u = np.asarray(u)
    d = _order_root(u)
    src_r, src_g = _index_maps(d)
    flat = u.reshape(-1)
    return flat[src_r].reshape(u.shape), flat[src_g].reshape(u.shape)


def gram_defect(m) -> float:
    """||M* M - I||_F; exact for integer matrices."""
    m = np.asarray(m)
    if m.dtype.kind in "iu":
        g = m.T.astype(np.int64) @ m.astype(np.int64) - np.eye(m.shape[0], dtype=np.int64)
        return math.sqrt(int((g * g).sum()))
    g = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.sqrt(np.sum(np.abs(g) ** 2)))


def two_unitarity_defect(u) -> float:
    """Worst of the unitarity defects of U, U^R and U^Gamma."""
    r, g = realign(u)
    return max(gram_defect(u), gram_defect(r), gram_defect(g))


def state_tensor(u) -> np.ndarray:
    """psi[i, j, k, l] = U[i*d + j, k*d + l] / ||U||_F."""
    u = np.asarray(u, dtype=complex)
    d = _order_root(u)
    return (u / np.sqrt(np.sum(np.abs(u) ** 2))).reshape(d, d, d, d)


def marginal_residuals(u) -> dict:
    """||rho_(0,q) - I/d^2||_F for the three two-party marginals holding party 0.

    The other three two-party marginals are complements of these in a pure
    state and share their spectra.
    """
    psi = state_tensor(u)
    d = psi.shape[0]
    contract = {
        (0, 1): "abkl,cdkl->abcd",
        (0, 2): "ajbl,cjdl->abcd",
        (0, 3): "ajkb,cjkd->abcd",
    }
    out = {}
    for keep, spec in contract.items():
        rho = np.einsum(spec, psi, psi.conj()).reshape(d * d, d * d)
        out[keep] = float(np.sqrt(np.sum(np.abs(rho - np.eye(d * d) / (d * d)) ** 2)))
    return out


def qols_residuals(u) -> dict:
    """Worst residual of each quantum orthogonal Latin square condition.

    The square has cell (i, k) = row i*d + k of U, read as a d x d matrix
    c[i, k, p, q]. Q1: the cells are orthonormal; Q1-completeness: they
    resolve the identity; Q2 (rows i, j, summed over columns k) and Q3
    (columns, summed over rows): the one-party overlaps
    sum_k tr_B |c_ik><c_jk| and sum_k tr_A |c_ik><c_jk| equal delta_ij I.
    """
    u = np.asarray(u, dtype=complex)
    d = _order_root(u)
    n = d * d
    c = u.reshape(d, d, d, d)
    eye_n, eye_d = np.eye(n), np.eye(d)

    def fro(x):
        return float(np.sqrt(np.sum(np.abs(x) ** 2)))

    def worst_block(blocks):
        # blocks[i, j] is the d x d overlap of rows/columns i and j
        return max(
            fro(blocks[i, j] - (eye_d if i == j else 0.0))
            for i in range(d)
            for j in range(d)
        )

    return {
        "Q1": fro(u.conj() @ u.T - eye_n),
        "Q1-completeness": fro(u.T @ u.conj() - eye_n),
        "Q2-rows-trB": worst_block(np.einsum("ikpq,jkrq->ijpr", c, c.conj())),
        "Q2-rows-trA": worst_block(np.einsum("ikpq,jkpr->ijqr", c, c.conj())),
        "Q3-cols-trB": worst_block(np.einsum("kipq,kjrq->ijpr", c, c.conj())),
        "Q3-cols-trA": worst_block(np.einsum("kipq,kjpr->ijqr", c, c.conj())),
    }


def latin_squares(d: int) -> list:
    """Every Latin square of order d, by enumeration of all d x d grids."""
    symbols = range(d)
    rows = list(itertools.permutations(symbols))
    out = []
    for grid in itertools.product(rows, repeat=d):
        if all(len({row[c] for row in grid}) == d for c in range(d)):
            out.append(np.array(grid))
    return out


def orthogonal_pairs(d: int) -> list:
    """Every ordered pair of orthogonal Latin squares of order d."""
    squares = latin_squares(d)
    return [
        (x, y)
        for x in squares
        for y in squares
        if len(set(zip(x.ravel().tolist(), y.ravel().tolist()))) == d * d
    ]


def card_permutation(ranks, suits) -> np.ndarray:
    """Permutation with a 1 at row v*d + s, column r*d + c, for cell (r, c) = (v, s)."""
    d = ranks.shape[0]
    out = np.zeros((d * d, d * d), dtype=np.int64)
    for r, c in itertools.product(range(d), repeat=2):
        out[ranks[r, c] * d + suits[r, c], r * d + c] = 1
    return out


def self_test() -> None:
    """The checker's own sanity checks; raises AssertionError on failure."""
    pairs = orthogonal_pairs(3)
    if len(latin_squares(3)) != 12 or len(pairs) != 72:
        raise AssertionError("order 3 must have 12 Latin squares and 72 ordered orthogonal pairs")
    p9 = card_permutation(*pairs[0])
    if two_unitarity_defect(p9) != 0.0:
        raise AssertionError("the order-9 card permutation must have defect exactly 0")
    if two_unitarity_defect(np.eye(9, dtype=np.int64)) == 0.0:
        raise AssertionError("the identity of order 9 is not 2-unitary")
    noisy = p9 + 1e-6 * np.random.default_rng(0).standard_normal(p9.shape)
    if two_unitarity_defect(noisy) <= 1e-9:
        raise AssertionError("a 1e-6 perturbation must be rejected")
    if max(marginal_residuals(p9).values()) > 1e-12:
        raise AssertionError("the order-9 card permutation gives an AME(4, 3) state")
