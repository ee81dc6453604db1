"""Latin squares, orthogonal pairs, quantum squares, and orthogonal arrays.

Symbols are integers in [0, d); any card or letter presentation is left to the
rendering layer. A pair of squares is stored as (ranks, suits). The card
encoding of a pair is the order-d*d matrix with a single 1 at
(row, column) = (v*d + s, r*d + c) for every cell (r, c) holding the pair
(v, s); for a valid orthogonal pair this matrix is a 2-unitary permutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    InvalidDesignError,
    NotAnOlsError,
    NotAPrimePowerError,
    NumericError,
)
from .gf import _field_cached, prime_power_decompose
from .linalg import (
    _check_tol,
    _frobenius,
    _marginal_defects,
    _subtract_diagonal,
    _unfoldings,
    block_dim,
    gram_defect,
)

__all__ = [
    "Violation",
    "DesignReport",
    "OrthogonalLatinPair",
    "QuantumSquare",
    "OrthogonalArray",
    "QuantumOrthogonalArray",
    "FunctionTables",
    "cyclic_latin",
    "verify_latin",
    "mols_construct",
    "verify_orthogonal_pair",
    "ols_function_tables",
    "ols_to_permutation",
    "permutation_to_ols",
    "classical_embed",
    "square_from_unitary_rows",
    "qls_verify",
    "qols_verify",
    "oa_from_latin",
    "qoa_from_qols",
    "oa_verify",
    "qoa_verify",
]


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class Violation:
    """One located failure: which condition, at which indices, how badly."""

    condition: str
    where: tuple
    residual: float = 0.0


@dataclass(frozen=True)
class DesignReport:
    """Outcome of a verification pass.

    family_residuals maps each condition family that was evaluated
    numerically to its worst residual; purely combinatorial checks only
    contribute violations.
    """

    kind: str
    passed: bool
    tol: float
    max_residual: float
    violations: tuple = ()
    family_residuals: dict = field(default_factory=dict)


def _report(kind, tol, violations, families=None):
    families = dict(families or {})
    max_res = max(families.values(), default=0.0)
    max_res = max([max_res] + [v.residual for v in violations], default=0.0)
    return DesignReport(
        kind=kind,
        passed=not violations,
        tol=tol,
        max_residual=float(max_res),
        violations=tuple(violations),
        family_residuals=families,
    )


# ---------------------------------------------------------------------------
# data types


def _as_cells(cells):
    arr = np.asarray(cells)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionError(f"a square symbol grid is required, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f" and np.all(arr == np.round(arr)):
            arr = arr.astype(np.int64)
        else:
            raise InvalidDesignError("cells must hold integers")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class OrthogonalLatinPair:
    """Two same-order symbol squares, (ranks, suits), candidate Graeco-Latin pair."""

    ranks: np.ndarray
    suits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ranks", _as_cells(self.ranks))
        object.__setattr__(self, "suits", _as_cells(self.suits))
        if self.ranks.shape != self.suits.shape:
            raise DimensionError("ranks and suits must have the same order")

    @property
    def d(self) -> int:
        return self.ranks.shape[0]


def _finite_cells(arr):
    """arr itself, once it is known to hold no NaN or infinite entry."""
    if not np.isfinite(arr).all():
        raise NumericError("cells contain non-finite values")
    return arr


@dataclass(frozen=True)
class QuantumSquare:
    """A d x d grid of state vectors, cells[r, c] in C**cell_dim."""

    cells: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.cells, dtype=complex)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionError(
                f"expected cells of shape (d, d, cell_dim), got {arr.shape}"
            )
        object.__setattr__(self, "cells", _finite_cells(arr))

    @classmethod
    def _unchecked(cls, cells):
        """The square without __post_init__'s checks, for callers that ran them.

        cells must be a finite complex array of shape (d, d, cell_dim).
        """
        square = object.__new__(cls)
        object.__setattr__(square, "cells", cells)
        return square

    @property
    def d(self) -> int:
        return self.cells.shape[0]

    @property
    def cell_dim(self) -> int:
        return self.cells.shape[2]


@dataclass(frozen=True)
class OrthogonalArray:
    """Classical orthogonal array: rows of symbols, one column per factor."""

    levels: int
    strength: int
    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows)
        if arr.ndim != 2:
            raise DimensionError(f"rows must be a 2-D symbol table, got {arr.shape}")
        object.__setattr__(self, "rows", arr.astype(np.int64))


@dataclass(frozen=True)
class QuantumOrthogonalArray:
    """Rows are pure states on n_classical + n_quantum parties of equal level."""

    levels: int
    strength: int
    n_classical: int
    n_quantum: int
    states: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=complex)
        n = self.n_classical + self.n_quantum
        if arr.ndim != 2 or arr.shape[1] != self.levels**n:
            raise DimensionError(
                f"states must have shape (runs, levels**{n}), got {arr.shape}"
            )
        object.__setattr__(self, "states", arr)

    @property
    def n_parties(self) -> int:
        return self.n_classical + self.n_quantum


class FunctionTables(NamedTuple):
    """The three invertible cell functions of an orthogonal pair.

    f1[r, c] = (v, s): what the cell holds.
    f2[s, c] = (v, r): where suit s sits in column c, and its rank.
    f3[s, r] = (v, c): where suit s sits in row r, and its rank.
    Each table is a bijection of [0,d) x [0,d) onto itself.
    """

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray


# ---------------------------------------------------------------------------
# classical squares


def cyclic_latin(d: int) -> np.ndarray:
    """The cyclic Latin square with (i + j) mod d in cell (i, j)."""
    if d < 1:
        raise DimensionError(f"order must be positive, got {d}")
    i = np.arange(d, dtype=np.int64)
    return (i[:, None] + i[None, :]) % d


def verify_latin(cells) -> DesignReport:
    """Check that each symbol occurs exactly once per row and per column.

    That is, the runs (row, column, symbol) balance on (row, symbol), then
    on (column, symbol); (row, column) is balanced by construction.
    """
    a = oa_from_latin(cells)
    symbols = a.rows[:, 2]
    bad_range = a.rows[(symbols < 0) | (symbols >= a.levels), :2].tolist()
    violations = [Violation("symbol-range", tuple(rc), 0.0) for rc in bad_range]
    if not violations:
        lines = {(0, 2): ("row", ()), (1, 2): ("column", ())}
        violations = _balance_violations(a.rows, a.levels, 1, lines)
    return _report("ls", 0.0, violations)


def mols_construct(q: int) -> list:
    """Mutually orthogonal Latin squares of prime-power order q.

    Square number a (a = 1..q-1, nonzero field elements in label order) holds
    a*x + y in cell (x, y), computed in GF(q). The q - 1 squares returned are
    pairwise orthogonal, which is the largest possible family.
    """
    if q == 6:
        raise NotAPrimePowerError(
            "no pair of orthogonal Latin squares of order 6 exists, "
            "and 6 = 2*3 is not a prime power"
        )
    if prime_power_decompose(q) is None:
        raise NotAPrimePowerError(
            f"{q} is not a prime power; the finite-field construction does not apply"
        )
    if q < 3:
        raise InvalidDesignError(
            f"order {q} admits no orthogonal mate; need q >= 3"
        )
    els = _field_cached(q).elements()
    # add[x, y] and mul[x, y]: the labels of x + y and x * y
    add = np.array([[(x + y).label for y in els] for x in els], dtype=np.int64)
    mul = np.array([[(x * y).label for y in els] for x in els], dtype=np.int64)
    return [add[mul[a]] for a in range(1, q)]


_PAIR_CONDITIONS = {
    (0, 2): ("C2", ("ranks",)),
    (1, 2): ("C3", ("ranks",)),
    (0, 3): ("C2", ("suits",)),
    (1, 3): ("C3", ("suits",)),
    (2, 3): ("C1", ()),
}


def verify_orthogonal_pair(pair: OrthogonalLatinPair) -> DesignReport:
    """Check the three Graeco-Latin conditions on a pair of squares.

    C1: every (rank, suit) pair occurs exactly once over the grid.
    C2: within each row, ranks are all distinct and suits are all distinct.
    C3: the same within each column.
    Together they balance the runs (row, column, rank, suit); violations list
    the ranks' lines, then the suits', rows before columns, then C1.
    """
    d = pair.d
    violations = []
    for name, arr in (("ranks", pair.ranks), ("suits", pair.suits)):
        bad_range = np.argwhere((arr < 0) | (arr >= d))
        for r, c in bad_range:
            violations.append(
                Violation("symbol-range", (name, int(r), int(c)), 0.0)
            )
    if violations:
        return _report("ols", 0.0, violations)
    runs = np.column_stack([oa_from_latin(pair.ranks).rows, pair.suits.ravel()])
    return _report("ols", 0.0, _balance_violations(runs, d, 1, _PAIR_CONDITIONS))


def ols_function_tables(pair: OrthogonalLatinPair) -> FunctionTables:
    """The three cell functions of a valid pair, each a bijection on [0,d)^2."""
    report = verify_orthogonal_pair(pair)
    if not report.passed:
        raise InvalidDesignError(
            f"pair is not orthogonal Latin: {len(report.violations)} violation(s), "
            f"first {report.violations[0]}"
        )
    v, s = pair.ranks, pair.suits
    r, c = np.indices(v.shape)
    f1 = np.stack((v, s), axis=-1)
    f2 = np.zeros_like(f1)
    f2[s, c] = np.stack((v, r), axis=-1)
    f3 = np.zeros_like(f1)
    f3[s, r] = np.stack((v, c), axis=-1)
    return FunctionTables(f1=f1, f2=f2, f3=f3)


def _cards(ranks, suits) -> np.ndarray:
    """The card v*d + s of each cell holding (v, s), cells in row-major order."""
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


def ols_to_permutation(pair: OrthogonalLatinPair) -> np.ndarray:
    """Card-encode a valid pair as an order d*d permutation matrix.

    The cell (r, c) holding (v, s) contributes the single 1 in column
    r*d + c, at row v*d + s. The result is an integer 0/1 matrix and, because
    the pair is orthogonal Latin, a 2-unitary permutation.
    """
    report = verify_orthogonal_pair(pair)
    if not report.passed:
        raise NotAnOlsError(
            f"cannot encode: {len(report.violations)} violation(s), "
            f"first {report.violations[0]}"
        )
    return _card_permutation(_cards(pair.ranks, pair.suits))


def permutation_to_ols(m) -> OrthogonalLatinPair:
    """Decode an order d*d permutation matrix back into a pair of squares.

    Inverse of ols_to_permutation. The input must be a genuine permutation
    matrix whose decoded squares form a valid orthogonal Latin pair; anything
    else (including permutations whose reorderings are not permutations)
    raises NotAnOlsError.
    """
    arr = np.asarray(m)
    if np.iscomplexobj(arr):
        if arr.imag.any():
            raise NotAnOlsError("matrix has complex entries; not a permutation")
        arr = arr.real
    d = block_dim(arr)
    if not np.all((arr == 0) | (arr == 1)):
        raise NotAnOlsError("entries other than 0 and 1; not a permutation matrix")
    arr = arr.astype(np.int64)
    if (arr.sum(axis=0) != 1).any() or (arr.sum(axis=1) != 1).any():
        raise NotAnOlsError("rows/columns do not each hold exactly one 1")
    # column r*d + c holds its 1 in the row of its card v*d + s
    ranks, suits = divmod(arr.argmax(axis=0).reshape(d, d), d)
    pair = OrthogonalLatinPair(ranks=ranks, suits=suits)
    report = verify_orthogonal_pair(pair)
    if not report.passed:
        raise NotAnOlsError(
            "permutation decodes to squares that are not an orthogonal Latin "
            f"pair: {len(report.violations)} violation(s), first {report.violations[0]}"
        )
    return pair


# ---------------------------------------------------------------------------
# quantum squares


def classical_embed(pair: OrthogonalLatinPair) -> QuantumSquare:
    """Embed a valid pair as the product-basis quantum square.

    Cell (r, c) holding (v, s) becomes the basis vector |v*d + s> of C**(d*d):
    the rows of the transposed card encoding, read as a quantum square. A
    pair that is not orthogonal Latin raises NotAnOlsError.
    """
    return square_from_unitary_rows(ols_to_permutation(pair).T)


def square_from_unitary_rows(u) -> QuantumSquare:
    """Arrange the rows of an order d*d matrix into a d x d quantum square.

    Row i*d + j becomes cell (i, j). When u is 2-unitary the result satisfies
    every quantum Graeco-Latin condition. The matrix is converted and
    checked once, here: a non-finite entry raises NumericError.
    """
    arr = np.asarray(u, dtype=complex)
    d = block_dim(arr)
    return QuantumSquare._unchecked(_finite_cells(arr.reshape(d, d, d * d)))


def qls_verify(square: QuantumSquare, tol: float = 1e-10) -> DesignReport:
    """Quantum Latin square check: each row and column is an orthonormal set.

    The d rows and d columns are stacked and their Gram defects taken by one
    gram_defect call. tol must be a finite number >= 0.
    """
    _check_tol(tol)
    cells = square.cells  # [row, col, vector entry]
    lines = np.stack([cells.swapaxes(-1, -2), cells.transpose(1, 2, 0)])
    rows, cols = gram_defect(lines).tolist()
    violations = [Violation("row", (r,), x) for r, x in enumerate(rows) if x > tol]
    violations += [Violation("column", (c,), x) for c, x in enumerate(cols) if x > tol]
    return _report("qls", tol, violations, {"rows": max(rows), "columns": max(cols)})


# qols_verify reads the cells as a tensor [row, col, p, q], p and q the two
# parties of a cell, and gathers six of its unfoldings A (linalg._unfoldings:
# these axes as rows, the others as columns), all of order d*d. Rows (0, 1)
# give the matrix whose rows are the cells, so A A* - I is Q1. Rows (2, 3)
# give its transpose, whose A A* sums |cell><cell| over the cells: its
# distance from I is Q1-completeness. Rows (0, 2) pair a row i with party p,
# so block (i, j) of A A* sums the overlaps of the cells of rows i and j with
# party q traced out: Q2-rows-trB. Rows (0, 3) trace out party p instead
# (Q2-rows-trA), and (1, 2) and (1, 3) do the same for columns.
_QOLS_ROWS = ((0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3))
_OVERLAP_FAMILIES = ("Q2-rows-trB", "Q2-rows-trA", "Q3-cols-trB", "Q3-cols-trA")


def qols_verify(square: QuantumSquare, tol: float = 1e-10) -> DesignReport:
    """Quantum orthogonal Latin square check over six condition families.

    Cells must be bipartite (cell_dim = d*d). Families:
      Q1            all d*d cells are pairwise orthonormal,
      Q1-completeness  the cells resolve the identity on C**(d*d),
      Q2-rows-trB / Q2-rows-trA   summed one-party overlaps of two rows are
                                  delta_ij times the identity,
      Q3-cols-trB / Q3-cols-trA   the same for columns.
    A Q2/Q3 violation names the worst pair (i, j), the first in row-major
    order on ties. The report's max_residual aggregates the families by
    their maximum. All six families are unfoldings A of the cells, gathered
    into one stack, and one stacked product A A* gives them all: Q1 and its
    completeness are the Frobenius distances of its first two matrices from
    the identity, the four overlap families the worst d x d block of the
    other four. tol must be a finite number >= 0.
    """
    _check_tol(tol)
    d = square.d
    if square.cell_dim != d * d:
        raise DimensionError(
            f"cells live in C**{square.cell_dim}, need C**{d * d} "
            "for the two-party conditions"
        )
    a = _unfoldings(square.cells.reshape(d, d, d, d), _QOLS_ROWS)
    g = a @ a.conj().swapaxes(-1, -2)
    _subtract_diagonal(g, 1.0)
    q1, complete = _frobenius(g[:2], (-2, -1)).tolist()
    worst = {"Q1": (q1, ()), "Q1-completeness": (complete, ())}
    # g[2 + family] read as [i, p, j, q]: block (i, j) is g[2 + family, i, :, j, :]
    blocks = _frobenius(g[2:].reshape(4, d, d, d, d), (2, 4)).reshape(4, d * d)
    at = blocks.argmax(axis=1).tolist()
    for family, row, k in zip(_OVERLAP_FAMILIES, blocks.tolist(), at):
        worst[family] = (row[k], divmod(k, d))
    violations = [
        Violation(family, where, res)
        for family, (res, where) in worst.items()
        if res > tol
    ]
    families = {family: res for family, (res, _) in worst.items()}
    return _report("qols", tol, violations, families)


# ---------------------------------------------------------------------------
# orthogonal arrays


def _balance_violations(rows, levels, lam, projections) -> list:
    """Violation(condition, prefix + key, |n - lam|) per key seen n != lam times.

    rows holds symbols in [0, levels); projections maps tuples of k columns
    to (condition, prefix), in the order violations come; keys come in
    itertools.product order. One bincount counts every projection: a run's
    key in projection j is its symbols there read in base levels, plus
    j * levels**k.
    """
    subsets = list(projections)
    n, k = len(subsets), len(subsets[0])
    keys = rows[:, subsets] @ (levels ** np.arange(k - 1, -1, -1))
    keys += levels**k * np.arange(n)
    counts = np.bincount(keys.ravel(), minlength=n * levels**k)
    counts = counts.reshape((n,) + (levels,) * k)
    off = counts != lam
    residuals = np.abs(counts[off] - lam).tolist()
    labels = list(projections.values())
    return [
        Violation(labels[j][0], labels[j][1] + tuple(key), float(res))
        for (j, *key), res in zip(np.argwhere(off).tolist(), residuals)
    ]


def oa_from_latin(cells) -> OrthogonalArray:
    """The runs (r, c, symbol) of a Latin square as a strength-2 array."""
    arr = _as_cells(cells)
    rows = np.stack([*np.indices(arr.shape), arr], axis=-1).reshape(-1, 3)
    return OrthogonalArray(levels=arr.shape[0], strength=2, rows=rows)


def oa_verify(a: OrthogonalArray) -> DesignReport:
    """Exhaustive balance check of every strength-sized column projection."""
    rows = a.rows
    r, n_cols = rows.shape
    k = a.strength
    if not 1 <= k <= n_cols:
        raise DimensionError(f"strength {k} incompatible with {n_cols} columns")
    if ((rows < 0) | (rows >= a.levels)).any():
        where = tuple(int(x) for x in np.argwhere((rows < 0) | (rows >= a.levels))[0])
        return _report("oa", 0.0, [Violation("symbol-range", where, 0.0)])
    lam, rem = divmod(r, a.levels**k)
    if rem != 0 or lam < 1:
        return _report("oa", 0.0, [Violation("divisibility", (r, a.levels**k), 0.0)])
    subsets = itertools.combinations(range(n_cols), k)
    projections = {subset: ("balance", subset) for subset in subsets}
    return _report("oa", 0.0, _balance_violations(rows, a.levels, lam, projections))


def qoa_from_qols(square: QuantumSquare) -> QuantumOrthogonalArray:
    """One run |i>|j>|cell(i, j)> per cell: two classical and two quantum parties."""
    d = square.d
    if square.cell_dim != d * d:
        raise DimensionError(
            f"cells live in C**{square.cell_dim}, need C**{d * d}"
        )
    n = d * d
    runs = np.arange(n)  # run i*d + j holds |i>|j>, the cell's position
    states = np.zeros((n, n, n), dtype=complex)
    states[runs, runs] = square.cells.reshape(n, n)
    return QuantumOrthogonalArray(
        levels=d,
        strength=2,
        n_classical=2,
        n_quantum=2,
        states=states.reshape(n, n * n),
    )


def qoa_verify(a: QuantumOrthogonalArray, tol: float = 1e-10) -> DesignReport:
    """Check that every strength-sized marginal of the run states is flat.

    For each subset S of parties with |S| = strength, the sum over runs of the
    reduced projectors must equal (runs / levels**strength) times the identity.
    That sum is M M* for the unfolding M of the run states with S as its rows
    and the run axis among its columns; the subsets' unfoldings are gathered
    into one stack. tol must be a finite number >= 0.
    """
    _check_tol(tol)
    n = a.n_parties
    k = a.strength
    if not 1 <= k <= n:
        raise DimensionError(f"strength {k} incompatible with {n} parties")
    runs = a.states.shape[0]
    subsets = list(itertools.combinations(range(n), k))
    t = a.states.reshape((runs,) + (a.levels,) * n)  # axis 0 is the run
    rows = [tuple(q + 1 for q in keep) for keep in subsets]
    residuals = _marginal_defects(t, rows, runs / a.levels**k).tolist()
    families = {f"keep{keep}": res for keep, res in zip(subsets, residuals)}
    violations = [
        Violation("marginal", keep, res)
        for keep, res in zip(subsets, residuals)
        if res > tol
    ]
    return _report("qoa", tol, violations, families)
