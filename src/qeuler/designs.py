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
from .linalg import block_dim, gram_defect

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
        if not np.all(np.isfinite(arr)):
            raise NumericError("cells contain non-finite values")
        object.__setattr__(self, "cells", arr)

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


def _line_violations(cells, axis_name, line_getter, d):
    out = []
    for idx in range(d):
        line = line_getter(idx)
        counts = np.bincount(line, minlength=d)
        for sym in range(d):
            if counts[sym] != 1:
                out.append(
                    Violation(axis_name, (idx, sym), float(abs(counts[sym] - 1)))
                )
    return out


def verify_latin(cells) -> DesignReport:
    """Check that each symbol occurs exactly once per row and per column."""
    arr = _as_cells(cells)
    d = arr.shape[0]
    violations = []
    bad_range = np.argwhere((arr < 0) | (arr >= d))
    for r, c in bad_range:
        violations.append(Violation("symbol-range", (int(r), int(c)), 0.0))
    if not len(bad_range):
        violations += _line_violations(arr, "row", lambda r: arr[r, :], d)
        violations += _line_violations(arr, "column", lambda c: arr[:, c], d)
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
    f = _field_cached(q)
    els = f.elements()
    squares = []
    for a in els[1:]:
        sq = np.zeros((q, q), dtype=np.int64)
        for x in range(q):
            ax = a * els[x]
            for y in range(q):
                sq[x, y] = (ax + els[y]).label
        squares.append(sq)
    return squares


def verify_orthogonal_pair(pair: OrthogonalLatinPair) -> DesignReport:
    """Check the three Graeco-Latin conditions on a pair of squares.

    C1: every (rank, suit) pair occurs exactly once over the grid.
    C2: within each row, ranks are all distinct and suits are all distinct.
    C3: the same within each column.
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

    for name, arr in (("ranks", pair.ranks), ("suits", pair.suits)):
        for v in _line_violations(arr, "row", lambda r, a=arr: a[r, :], d):
            violations.append(Violation("C2", (name,) + v.where, v.residual))
        for v in _line_violations(arr, "column", lambda c, a=arr: a[:, c], d):
            violations.append(Violation("C3", (name,) + v.where, v.residual))

    counts = np.zeros((d, d), dtype=np.int64)
    np.add.at(counts, (pair.ranks.ravel(), pair.suits.ravel()), 1)
    for v, s in np.argwhere(counts != 1):
        violations.append(
            Violation("C1", (int(v), int(s)), float(abs(counts[v, s] - 1)))
        )
    return _report("ols", 0.0, violations)


def ols_function_tables(pair: OrthogonalLatinPair) -> FunctionTables:
    """The three cell functions of a valid pair, each a bijection on [0,d)^2."""
    report = verify_orthogonal_pair(pair)
    if not report.passed:
        raise InvalidDesignError(
            f"pair is not orthogonal Latin: {len(report.violations)} violation(s), "
            f"first {report.violations[0]}"
        )
    d = pair.d
    f1 = np.zeros((d, d, 2), dtype=np.int64)
    f2 = np.zeros((d, d, 2), dtype=np.int64)
    f3 = np.zeros((d, d, 2), dtype=np.int64)
    for r in range(d):
        for c in range(d):
            v = int(pair.ranks[r, c])
            s = int(pair.suits[r, c])
            f1[r, c] = (v, s)
            f2[s, c] = (v, r)
            f3[s, r] = (v, c)
    return FunctionTables(f1=f1, f2=f2, f3=f3)


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
    d = pair.d
    out = np.zeros((d * d, d * d), dtype=np.int64)
    rows = pair.ranks.ravel() * d + pair.suits.ravel()
    out[rows, np.arange(d * d)] = 1
    return out


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
    ranks = np.zeros((d, d), dtype=np.int64)
    suits = np.zeros((d, d), dtype=np.int64)
    holder = np.argmax(arr, axis=0)  # row index of the 1 in each column
    for col in range(d * d):
        r, c = divmod(col, d)
        v, s = divmod(int(holder[col]), d)
        ranks[r, c] = v
        suits[r, c] = s
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

    Cell (r, c) holding (v, s) becomes the basis vector |v*d + s> of C**(d*d).
    """
    report = verify_orthogonal_pair(pair)
    if not report.passed:
        raise InvalidDesignError(
            f"cannot embed an invalid pair; first violation {report.violations[0]}"
        )
    d = pair.d
    cells = np.zeros((d, d, d * d), dtype=complex)
    for r in range(d):
        for c in range(d):
            cells[r, c, int(pair.ranks[r, c]) * d + int(pair.suits[r, c])] = 1.0
    return QuantumSquare(cells=cells)


def square_from_unitary_rows(u) -> QuantumSquare:
    """Arrange the rows of an order d*d matrix into a d x d quantum square.

    Row i*d + j becomes cell (i, j). When u is 2-unitary the result satisfies
    every quantum Graeco-Latin condition.
    """
    arr = np.asarray(u, dtype=complex)
    d = block_dim(arr)
    return QuantumSquare(cells=arr.reshape(d, d, d * d))


def qls_verify(square: QuantumSquare, tol: float = 1e-10) -> DesignReport:
    """Quantum Latin square check: each row and column is an orthonormal set."""
    cells = square.cells  # [row, col, vector entry]
    rows = gram_defect(cells.swapaxes(-1, -2)).tolist()
    cols = gram_defect(cells.transpose(1, 2, 0)).tolist()
    violations = [Violation("row", (r,), x) for r, x in enumerate(rows) if x > tol]
    violations += [Violation("column", (c,), x) for c, x in enumerate(cols) if x > tol]
    return _report("qls", tol, violations, {"rows": max(rows), "columns": max(cols)})


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
    their maximum.
    """
    d = square.d
    if square.cell_dim != d * d:
        raise DimensionError(
            f"cells live in C**{square.cell_dim}, need C**{d * d} "
            "for the two-party conditions"
        )
    flat = square.cells.reshape(d * d, d * d)
    worst = {
        "Q1": (gram_defect(flat.T), ()),
        "Q1-completeness": (gram_defect(flat), ()),
    }
    # summed one-party overlaps of every pair (i, j) of rows or columns, with
    # cells as d x d coefficient matrices: tr_B -> X Y*, tr_A -> X^T conj(Y)
    blocks = square.cells.reshape(d, d, d, d)  # [row, col, party1, party2]
    conj = blocks.conj()
    diag = np.arange(d)
    for family, spec in (
        ("Q2-rows-trB", "ikpq,jkrq->ijpr"),
        ("Q2-rows-trA", "ikpq,jkpr->ijqr"),
        ("Q3-cols-trB", "kipq,kjrq->ijpr"),
        ("Q3-cols-trA", "kipq,kjpr->ijqr"),
    ):
        m = np.einsum(spec, blocks, conj)
        m[diag, diag] -= np.eye(d)
        res = np.linalg.norm(m, axis=(-2, -1))
        i, j = np.unravel_index(np.argmax(res), res.shape)
        worst[family] = (float(res[i, j]), (int(i), int(j)))
    violations = [
        Violation(family, where, res)
        for family, (res, where) in worst.items()
        if res > tol
    ]
    families = {family: res for family, (res, _) in worst.items()}
    return _report("qols", tol, violations, families)


# ---------------------------------------------------------------------------
# orthogonal arrays


def oa_from_latin(cells) -> OrthogonalArray:
    """The runs (r, c, symbol) of a Latin square as a strength-2 array."""
    arr = _as_cells(cells)
    d = arr.shape[0]
    rows = [(r, c, int(arr[r, c])) for r in range(d) for c in range(d)]
    return OrthogonalArray(levels=d, strength=2, rows=np.array(rows))


def oa_verify(a: OrthogonalArray) -> DesignReport:
    """Exhaustive balance check of every strength-sized column projection."""
    rows = a.rows
    r, n_cols = rows.shape
    k = a.strength
    violations = []
    if not 1 <= k <= n_cols:
        raise DimensionError(f"strength {k} incompatible with {n_cols} columns")
    if ((rows < 0) | (rows >= a.levels)).any():
        where = tuple(int(x) for x in np.argwhere((rows < 0) | (rows >= a.levels))[0])
        violations.append(Violation("symbol-range", where, 0.0))
        return _report("oa", 0.0, violations)
    lam, rem = divmod(r, a.levels**k)
    if rem != 0 or lam < 1:
        violations.append(Violation("divisibility", (r, a.levels**k), 0.0))
        return _report("oa", 0.0, violations)
    for subset in itertools.combinations(range(n_cols), k):
        counts = {}
        for row in rows:
            key = tuple(int(row[c]) for c in subset)
            counts[key] = counts.get(key, 0) + 1
        for key in itertools.product(range(a.levels), repeat=k):
            got = counts.get(key, 0)
            if got != lam:
                violations.append(
                    Violation("balance", subset + key, float(abs(got - lam)))
                )
    return _report("oa", 0.0, violations)


def qoa_from_qols(square: QuantumSquare) -> QuantumOrthogonalArray:
    """One run |i>|j>|cell(i, j)> per cell: two classical and two quantum parties."""
    d = square.d
    if square.cell_dim != d * d:
        raise DimensionError(
            f"cells live in C**{square.cell_dim}, need C**{d * d}"
        )
    states = np.zeros((d * d, d**4), dtype=complex)
    for i in range(d):
        for j in range(d):
            states[i * d + j, (i * d + j) * d * d : (i * d + j + 1) * d * d] = (
                square.cells[i, j]
            )
    return QuantumOrthogonalArray(
        levels=d, strength=2, n_classical=2, n_quantum=2, states=states
    )


def _summed_reduction(states, dims, keep):
    """Sum over runs j of the reduced projector of state j onto the kept parties."""
    r = states.shape[0]
    rest = tuple(q for q in range(len(dims)) if q not in keep)
    dk = int(np.prod([dims[q] for q in keep]))
    dr = int(np.prod([dims[q] for q in rest], initial=1))
    t = states.reshape((r,) + tuple(dims))
    perm = (0,) + tuple(q + 1 for q in keep) + tuple(q + 1 for q in rest)
    mat = t.transpose(perm).reshape(r, dk, dr)
    return np.einsum("jab,jcb->ac", mat, np.conj(mat))


def qoa_verify(a: QuantumOrthogonalArray, tol: float = 1e-10) -> DesignReport:
    """Check that every strength-sized marginal of the run states is flat.

    For each subset S of parties with |S| = strength, the sum over runs of the
    reduced projectors must equal (runs / levels**strength) times the identity.
    """
    n = a.n_parties
    k = a.strength
    if not 1 <= k <= n:
        raise DimensionError(f"strength {k} incompatible with {n} parties")
    runs = a.states.shape[0]
    dims = (a.levels,) * n
    lam = runs / a.levels**k
    eye = np.eye(a.levels**k)
    violations = []
    families = {}
    for keep in itertools.combinations(range(n), k):
        m = _summed_reduction(a.states, dims, keep)
        res = float(np.linalg.norm(m - lam * eye))
        families[f"keep{keep}"] = res
        if res > tol:
            violations.append(Violation("marginal", keep, res))
    return _report("qoa", tol, violations, families)
