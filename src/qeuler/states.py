"""Pure multi-party states: Schmidt data, reductions, and uniformity checks.

A state is a flat complex amplitude vector plus the tuple of party dimensions,
in row-major index order: for dims (dA, dB, ...) the amplitude of
|a>|b>|...> sits at ((a * dB + b) * ... ). Density matrices are returned as
plain arrays; they are Hermitian, positive semidefinite and unit trace by
construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .designs import OrthogonalLatinPair, verify_orthogonal_pair
from .errors import DimensionError, InvalidDesignError, NumericError
from .linalg import _check_tol, _frobenius, _subtract_diagonal, _unfoldings, block_dim

__all__ = [
    "PureState",
    "SchmidtDecomposition",
    "UniformityReport",
    "schmidt_decompose",
    "entanglement_entropy",
    "state_from_schmidt",
    "reduced_density",
    "k_uniform_check",
    "ame_check",
    "ame_from_ols",
    "state_from_two_unitary",
    "closest_separable_distance",
]

_NORM_TOL = 1e-8


@dataclass(frozen=True)
class PureState:
    """Normalized pure state on a tensor product of finite parties."""

    dims: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise DimensionError(f"invalid party dimensions {dims}")
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        total = math.prod(dims)
        if amps.size != total:
            raise DimensionError(
                f"{amps.size} amplitudes do not fill dimensions {dims} "
                f"(need {total})"
            )
        if not np.all(np.isfinite(amps)):
            raise NumericError("amplitudes contain non-finite values")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalized: |amplitudes| = {norm!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a bipartition.

    lambdas are the squared Schmidt coefficients in nonincreasing order and
    sum to 1. The columns of left_basis and right_basis are the Schmidt
    vectors; the coefficient matrix reconstructs as
    left_basis @ diag_rect(sqrt(lambdas)) @ right_basis.T.
    """

    lambdas: np.ndarray
    rank: int
    left_basis: np.ndarray
    right_basis: np.ndarray


def _split_sides(state: PureState, left):
    left = tuple(sorted(int(q) for q in left))
    n = state.n_parties
    if len(set(left)) != len(left) or any(not 0 <= q < n for q in left):
        raise ValueError(f"split {left} is not a subset of the {n} parties")
    if not 0 < len(left) < n:
        raise ValueError("split must leave at least one party on each side")
    right = tuple(q for q in range(n) if q not in left)
    return left, right


def _coefficient_matrix(state: PureState, left, right):
    dl = math.prod(state.dims[q] for q in left)
    dr = math.prod(state.dims[q] for q in right)
    return state.tensor().transpose(left + right).reshape(dl, dr)


def schmidt_decompose(state: PureState, left, rank_tol: float = 1e-12):
    """Schmidt decomposition across the bipartition (left parties | rest)."""
    left, right = _split_sides(state, left)
    c = _coefficient_matrix(state, left, right)
    u, s, vh = np.linalg.svd(c, full_matrices=True)
    lambdas = s**2
    rank = int(np.count_nonzero(lambdas > rank_tol))
    return SchmidtDecomposition(
        lambdas=lambdas, rank=rank, left_basis=u, right_basis=vh.T
    )


def entanglement_entropy(s: SchmidtDecomposition) -> float:
    """Von Neumann entropy -sum(l * ln l) of the Schmidt spectrum (natural log)."""
    lam = np.clip(np.asarray(s.lambdas, dtype=float), 0.0, None)
    lam = lam[lam > 0]
    return float(-np.sum(lam * np.log(lam)))


def state_from_schmidt(lambdas, u_a, u_b) -> PureState:
    """Assemble a bipartite state with the given Schmidt spectrum and bases.

    lambdas must be nonnegative and sum to 1; columns i of u_a and u_b pair up
    as the Schmidt vectors with weight sqrt(lambdas[i]).
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise DimensionError("lambdas must be a nonempty vector")
    if np.any(lam < -1e-12):
        raise ValueError("Schmidt weights must be nonnegative")
    if abs(lam.sum() - 1.0) > _NORM_TOL:
        raise ValueError(f"Schmidt weights must sum to 1, got {lam.sum()!r}")
    u_a = np.asarray(u_a, dtype=complex)
    u_b = np.asarray(u_b, dtype=complex)
    da, db = u_a.shape[0], u_b.shape[0]
    r = lam.size
    if u_a.shape != (da, da) or u_b.shape != (db, db) or r > min(da, db):
        raise DimensionError(
            f"need square bases admitting {r} Schmidt terms, got {u_a.shape} and {u_b.shape}"
        )
    coeff = (u_a[:, :r] * np.sqrt(np.clip(lam, 0.0, None))) @ u_b[:, :r].T
    return PureState(dims=(da, db), amplitudes=coeff.reshape(-1))


def reduced_density(state: PureState, keep) -> np.ndarray:
    """Density matrix of the kept parties (ascending order), rest traced out."""
    keep = tuple(sorted(int(q) for q in keep))
    n = state.n_parties
    if len(keep) == 0 or len(set(keep)) != len(keep):
        raise ValueError(f"keep {keep} must be a nonempty set of parties")
    if any(not 0 <= q < n for q in keep):
        raise ValueError(f"keep {keep} out of range for {n} parties")
    if len(keep) == n:
        amps = state.amplitudes
        return np.outer(amps, np.conj(amps))
    mat = _coefficient_matrix(state, keep, tuple(q for q in range(n) if q not in keep))
    return mat @ np.conj(mat.T)


@dataclass(frozen=True)
class UniformityReport:
    """Per-subset marginal flatness residuals of a pure state."""

    kind: str
    k: int
    tol: float
    passed: bool
    subset_residuals: dict
    max_residual: float
    worst_subset: tuple
    note: str = ""


def _uniformity_report(state: PureState, kind, k, subsets, tol, note=""):
    """Marginal flatness of the given k-party subsets, worst one named.

    The coefficient matrices of the subsets whose marginals have the same
    shape are gathered into one stack, so one product M M* gives all their
    reduced density matrices and one reduction their distances from I/dk.
    """
    _check_tol(tol)
    subsets = list(subsets)
    groups = {}  # dk -> the subsets whose marginals are dk x dk
    for keep in subsets:
        groups.setdefault(math.prod(state.dims[q] for q in keep), []).append(keep)
    found = {}
    for dk, group in groups.items():
        m = _unfoldings(state.tensor(), group)  # the coefficient matrices
        rho = m @ m.conj().swapaxes(-1, -2)
        _subtract_diagonal(rho, 1.0 / dk)
        found.update(zip(group, _frobenius(rho, (-2, -1)).tolist()))
    residuals = {keep: found[keep] for keep in subsets}
    worst = max(residuals, key=residuals.get)
    return UniformityReport(
        kind=kind,
        k=k,
        tol=tol,
        passed=residuals[worst] <= tol,
        subset_residuals=residuals,
        max_residual=residuals[worst],
        worst_subset=worst,
        note=note,
    )


def k_uniform_check(state: PureState, k: int, tol: float = 1e-10):
    """Check that every k-party marginal is maximally mixed.

    With unequal party dimensions the marginals come in several sizes; each
    size is checked by one stacked product. tol must be a finite number >= 0.
    """
    n = state.n_parties
    if not 1 <= k <= n // 2:
        raise ValueError(f"k must satisfy 1 <= k <= {n // 2}, got {k}")
    subsets = itertools.combinations(range(n), k)
    return _uniformity_report(state, "k-uniform", k, subsets, tol)


def ame_check(state: PureState, tol: float = 1e-10):
    """Absolutely-maximally-entangled check: floor(n/2)-party marginals flat.

    For even n only the half-size subsets containing party 0 are evaluated;
    the complementary marginals share their spectra, so nothing is lost. For
    odd n this is exactly the (n-1)/2-uniformity check, and the report says so.
    All marginals have the same size, so one stacked product M M* gives
    them all. tol must be a finite number >= 0.
    """
    n = state.n_parties
    if len(set(state.dims)) != 1:
        raise DimensionError(
            f"parties must have equal dimension, got {state.dims}"
        )
    if n < 2:
        raise DimensionError("need at least two parties")
    k = n // 2
    if n % 2:
        subsets = itertools.combinations(range(n), k)
        note = f"odd party count: maximal entanglement means {k}-uniformity"
    else:
        subsets = [
            (0,) + rest for rest in itertools.combinations(range(1, n), k - 1)
        ]
        note = "complementary marginals share spectra; only subsets with party 0 listed"
    return _uniformity_report(state, "ame", k, subsets, tol, note)


def ame_from_ols(pair: OrthogonalLatinPair) -> PureState:
    """Four-party state with amplitude 1/d on |r>|c>|rank(r,c)>|suit(r,c)>."""
    report = verify_orthogonal_pair(pair)
    if not report.passed:
        raise InvalidDesignError(
            f"pair is not orthogonal Latin; first violation {report.violations[0]}"
        )
    d = pair.d
    amps = np.zeros(d**4, dtype=complex)
    for r in range(d):
        for c in range(d):
            v = int(pair.ranks[r, c])
            s = int(pair.suits[r, c])
            amps[((r * d + c) * d + v) * d + s] = 1.0 / d
    return PureState(dims=(d, d, d, d), amplitudes=amps)


def state_from_two_unitary(u) -> PureState:
    """Four-party state whose coefficients across (12|34) are the entries of u.

    Parties one and two index the row of u as i*d + j (the square position),
    parties three and four index the column (the bipartite cell content). For
    unitary u the normalization is exactly 1/d per entry; non-unitary inputs
    are normalized by their Frobenius norm and yield non-uniform marginals,
    which is what makes them useful as negative examples. Non-finite
    entries raise NumericError.
    """
    arr = np.asarray(u, dtype=complex)
    d = block_dim(arr)
    if not np.all(np.isfinite(arr)):
        raise NumericError("matrix has non-finite entries")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise NumericError("cannot build a state from the zero matrix")
    return PureState(dims=(d, d, d, d), amplitudes=(arr / norm).reshape(-1))


def closest_separable_distance(state: PureState, left) -> float:
    """Fubini-Study angle from the state to the nearest product state.

    Across the bipartition (left | rest) this is arccos of the largest
    Schmidt coefficient: arccos(sqrt(max lambda)).
    """
    s = schmidt_decompose(state, left)
    overlap = min(1.0, math.sqrt(float(s.lambdas[0])))
    return math.acos(overlap)
