"""Pure multi-party states: Schmidt data, reductions, and uniformity checks.

A state is a flat complex amplitude vector plus the tuple of party dimensions,
in row-major index order: for dims (dA, dB, ...) the amplitude of
|a>|b>|...> sits at ((a * dB + b) * ... ). Density matrices are returned as
plain arrays; they are Hermitian, positive semidefinite and unit trace by
construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .designs import OrthogonalLatinPair, ols_to_permutation
from .errors import DimensionError, NumericError, _integer
from .linalg import (
    _check_tol,
    _marginal_defects,
    _subsets,
    _unfold,
    block_dim,
)

__all__ = [
    "PureState",
    "SchmidtDecomposition",
    "UniformityReport",
    "schmidt_decompose",
    "entanglement_entropy",
    "reduced_density",
    "k_uniform_check",
    "ame_check",
    "ame_from_ols",
    "state_from_two_unitary",
    "closest_separable_distance",
]

_NORM_TOL = 1e-8
# the smallest norm whose square is a normal float, so that dividing by it
# normalizes to full precision
_MIN_NORM = math.sqrt(sys.float_info.min)


def _norm(x) -> float:
    """Frobenius norm of x as np.linalg.norm takes it, inf where that overflows.

    A NaN or infinite entry makes it NaN or inf, so a finite norm shows that
    every entry is finite; only a norm that is not finite needs the
    entrywise test to tell non-finite entries from an overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(x))


@dataclass(frozen=True)
class PureState:
    """Normalized pure state on a tensor product of finite parties."""

    dims: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(_integer("party dimension", d, DimensionError) for d in self.dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise DimensionError(f"invalid party dimensions {dims}")
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        total = math.prod(dims)
        if amps.size != total:
            raise DimensionError(
                f"{amps.size} amplitudes do not fill dimensions {dims} "
                f"(need {total})"
            )
        norm = _norm(amps)
        if not math.isfinite(norm) and not np.isfinite(amps).all():
            raise NumericError("amplitudes contain non-finite values")
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalized: |amplitudes| = {norm!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _unchecked(cls, dims, amplitudes):
        """The state without __post_init__'s checks, for callers that ran them.

        dims must be a tuple of ints >= 1 and amplitudes a 1-D complex unit
        vector of their product's length. It stays for state_from_two_unitary,
        which has checked both: the constructor takes 6.5-11 us against 0.55 us
        here (2-core Xeon), some 6% of a 100-110 us order-9 certificate chain.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "dims", dims)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

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


def _parties(state: PureState, parties, what) -> tuple:
    """parties as a sorted tuple of at least one distinct integer party of state.

    Anything else (a float or bool, a repeat, a party out of range, no
    party at all) is a ValueError.
    """
    out = tuple(sorted(_integer(f"{what} party", q) for q in parties))
    n = state.n_parties
    if not out or len(set(out)) != len(out) or any(not 0 <= q < n for q in out):
        raise ValueError(f"{what} {out} is not a nonempty set of parties of the {n}")
    return out


def schmidt_decompose(state: PureState, left, rank_tol: float = 1e-12):
    """Schmidt decomposition across the bipartition (left parties | rest).

    left holds distinct integer parties, at least one and not all of them;
    rank_tol must be a finite number >= 0.
    """
    left = _parties(state, left, "split")
    if len(left) == state.n_parties:
        raise ValueError("split must leave at least one party on each side")
    _check_tol(rank_tol, "rank_tol")
    c = _unfold(state.tensor(), left)
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


def reduced_density(state: PureState, keep) -> np.ndarray:
    """Density matrix of the kept parties (ascending order), rest traced out.

    keep holds distinct integer parties, at least one.
    """
    keep = _parties(state, keep, "keep")
    mat = _unfold(state.tensor(), keep)
    return mat @ np.conj(mat.T)


@dataclass(frozen=True)
class UniformityReport:
    """Per-subset marginal flatness residuals of a pure state."""

    kind: str
    k: int
    tol: float
    subset_residuals: dict
    note: str = ""

    @property
    def worst_subset(self) -> tuple:
        """The subset of the largest residual, the first in subset order on ties."""
        return max(self.subset_residuals, key=self.subset_residuals.get)

    @property
    def max_residual(self) -> float:
        return self.subset_residuals[self.worst_subset]

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def _uniformity_report(state: PureState, kind, k, subsets, tol, note=""):
    """Marginal flatness residuals of the given k-party subsets.

    The coefficient matrices of the subsets whose marginals have the same
    shape are gathered into one stack, so one product M M* gives all their
    reduced density matrices and one reduction their distances from I/dk.
    With equal party dimensions that is one stack for all the subsets.
    """
    _check_tol(tol)
    dims = state.dims
    groups = {}  # dk -> the subsets whose marginals are dk x dk
    for keep in subsets:
        groups.setdefault(math.prod(dims[q] for q in keep), []).append(keep)
    residuals = dict.fromkeys(subsets)  # filled group by group, in subsets order
    for dk, group in groups.items():
        defects = _marginal_defects(state.tensor(), group, 1.0 / dk)
        residuals.update(zip(group, defects.tolist()))
    return UniformityReport(kind, k, tol, residuals, note)


def k_uniform_check(state: PureState, k: int, tol: float = 1e-10):
    """Check that every k-party marginal is maximally mixed.

    With unequal party dimensions the marginals come in several sizes; each
    size is checked by one stacked product. k must be an integer and tol a
    finite number >= 0.
    """
    n = state.n_parties
    k = _integer("k", k)
    if not 1 <= k <= n // 2:
        raise ValueError(f"k must satisfy 1 <= k <= {n // 2}, got {k}")
    return _uniformity_report(state, "k-uniform", k, _subsets(n, k), tol)


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
        note = f"odd party count: maximal entanglement means {k}-uniformity"
    else:
        note = "complementary marginals share spectra; only subsets with party 0 listed"
    subsets = _subsets(n, k, with_first=not n % 2)
    return _uniformity_report(state, "ame", k, subsets, tol, note)


def ame_from_ols(pair: OrthogonalLatinPair) -> PureState:
    """Four-party state with amplitude 1/d on |r>|c>|rank(r,c)>|suit(r,c)>.

    This is state_from_two_unitary of the transposed card encoding. A pair
    that is not orthogonal Latin raises NotAnOlsError.
    """
    return state_from_two_unitary(ols_to_permutation(pair).T)


def state_from_two_unitary(u) -> PureState:
    """Four-party state whose coefficients across (12|34) are the entries of u.

    Parties one and two index the row of u as i*d + j (the square position),
    parties three and four index the column (the bipartite cell content). For
    unitary u the normalization is exactly 1/d per entry; non-unitary inputs
    are normalized by their Frobenius norm and yield non-uniform marginals,
    which is what makes them useful as negative examples. The amplitudes
    are u.reshape(-1) / np.linalg.norm(u), the same bits; where that norm
    would overflow or lose precision to underflow, u is first divided by
    its largest real or imaginary part. One norm both normalizes and shows
    the entries finite: only a norm that is not finite, or too small to
    square without underflow, pays for the entrywise test. Non-finite
    entries raise NumericError, and so does the zero matrix.
    """
    arr = np.asarray(u, dtype=complex)
    d = block_dim(arr)
    norm = _norm(arr)
    if not _MIN_NORM <= norm < math.inf:
        if not np.isfinite(arr).all():
            raise NumericError("matrix has non-finite entries")
        parts = np.ascontiguousarray(arr).view(float)
        largest = np.abs(parts).max()
        if largest == 0.0:
            raise NumericError("cannot build a state from the zero matrix")
        arr = (parts / largest).view(complex)  # real division: no overflow
        norm = _norm(arr)
    return PureState._unchecked((d,) * 4, (arr / norm).reshape(-1))


def closest_separable_distance(state: PureState, left) -> float:
    """Fubini-Study angle from the state to the nearest product state.

    Across the bipartition (left | rest) this is arccos of the largest
    Schmidt coefficient: arccos(sqrt(max lambda)).
    """
    s = schmidt_decompose(state, left)
    overlap = min(1.0, math.sqrt(float(s.lambdas[0])))
    return math.acos(overlap)
