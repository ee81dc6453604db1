"""Alternating-projection search for 2-unitary matrices.

One update replaces the iterate by its closest unitary, makes the reshuffle of
that unitary again unitary the same way, and returns the partial transpose of
the result. Every 2-unitary matrix is a fixed point; convergence from a given
seed is not guaranteed and is simply observed. The defect that is traced and
tested is always evaluated on the unitary polar factor of the iterate, so a
converged terminal matrix is unitary by construction.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import CapabilityError, DimensionError, NumericError, _integer
from .linalg import (
    _card_permutation,
    _cards,
    _check_tol,
    _finite_square,
    _is_finite_number,
    gram_defect,
    partial_transpose,
    reshuffle,
    robust_svd,
)

__all__ = [
    "GoldenConstants",
    "GOLDEN",
    "SearchConfig",
    "SearchRun",
    "SearchSummary",
    "SEED_KINDS",
    "STOP_REASONS",
    "STALL_RTOL",
    "THREAD_MIN_SHARE",
    "seed_matrix",
    "sinkhorn_step",
    "search",
    "multi_seed_search",
    "brute_force_permutations",
    "amplitude_profile",
]


@dataclass(frozen=True)
class GoldenConstants:
    """Amplitude constants of the known order-36 solution.

    The three entry magnitudes are a, b and c = 1/sqrt(2), with b/a equal to
    the golden ratio phi and 2*(a**2 + b**2) = 1; omega = exp(i*pi/10) is the
    twentieth root of -1 appearing in the entry phases.
    """

    a: float = 0.5 * math.sqrt(1.0 - 1.0 / math.sqrt(5.0))
    b: float = 0.5 * math.sqrt(1.0 + 1.0 / math.sqrt(5.0))
    c: float = 1.0 / math.sqrt(2.0)
    phi: float = (1.0 + math.sqrt(5.0)) / 2.0
    omega: complex = cmath.exp(1j * math.pi / 10.0)


GOLDEN = GoldenConstants()

SEED_KINDS = ("random-unitary", "perturbed-permutation")

STOP_REASONS = ("converged", "stalled", "max_iter")

# A search stops as stalled once the singular values of its reshuffle have
# moved by at most STALL_RTOL times its defect over the last three steps (see
# search). One order-36 run (criterion 4's rng_seed 40) cycles with period 3
# at lag-3 ratios between 5e-10 and 4e-9 without settling, so the threshold
# sits an order below that; every run measured to stall at orders 4 and 36
# ends within a relative 1e-10 of its defect after 5000 iterations.
STALL_RTOL = 1e-10

# multi_seed_search splits a sweep over threads only when each thread gets at
# least this many matrix entries: seeds per thread times n*n for matrices of
# order n = d*d. Smaller shares measured faster as one batch in the calling
# thread, larger ones faster split.
THREAD_MIN_SHARE = 256


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one seeded search.

    max_iter defaults to 5000 for d >= 6 and 2000 below. base_matrix and
    epsilon feed the perturbed-permutation seed only (the default base is
    the built-in near-orthogonal one for the order at hand), so a
    random-unitary config given a base_matrix is a ValueError.
    """

    d: int
    seed_kind: str = "perturbed-permutation"
    rng_seed: int = 0
    epsilon: float = 0.1
    max_iter: int | None = None
    tol: float = 1e-10
    base_matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "d", _integer("d", self.d, DimensionError))
        if self.d < 2:
            raise DimensionError(f"search needs d >= 2, got {self.d}")
        if self.seed_kind not in SEED_KINDS:
            raise ValueError(f"unknown seed kind {self.seed_kind!r}; use {SEED_KINDS}")
        if self.seed_kind == "random-unitary" and self.base_matrix is not None:
            raise ValueError(
                "a random-unitary seed takes no base matrix; "
                "only perturbed-permutation seeds start from one"
            )
        object.__setattr__(self, "rng_seed", _integer("rng_seed", self.rng_seed))
        _check_tol(self.epsilon, "epsilon")
        if not (_is_finite_number(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a finite number > 0, got {self.tol!r}")
        if self.max_iter is not None:
            object.__setattr__(self, "max_iter", _integer("max_iter", self.max_iter))
            if self.max_iter < 0:
                raise ValueError("max_iter must be nonnegative")

    @property
    def resolved_max_iter(self) -> int:
        if self.max_iter is not None:
            return self.max_iter
        return 5000 if self.d >= 6 else 2000

    def describe_seed(self) -> dict:
        out = {"kind": self.seed_kind, "rng_seed": self.rng_seed, "d": self.d}
        if self.seed_kind == "perturbed-permutation":
            out["epsilon"] = self.epsilon
        return out


@dataclass(frozen=True)
class SearchRun:
    """Outcome of one seed: defect trace, terminal unitary, why it stopped.

    stop_reason is one of STOP_REASONS: "converged" when the defect fell to
    tol, "stalled" when the trace stopped moving, "max_iter" otherwise. The
    convergence flag and the iteration count are read off it and the trace.
    """

    seed: dict
    defect_trace: np.ndarray
    terminal: np.ndarray
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def iterations_used(self) -> int:
        return len(self.defect_trace) - 1


@dataclass(frozen=True)
class SearchSummary:
    """Aggregate of a multi-seed sweep."""

    n_runs: int
    best_defect: float
    iteration_histogram: Counter  # iterations_used -> converged runs, ascending

    @property
    def n_converged(self) -> int:
        return sum(self.iteration_histogram.values())

    @property
    def convergence_rate(self) -> float:
        return self.n_converged / self.n_runs


def _haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre sample, phases fixed.

    The complex standard normal is (g1 + i*g2)/sqrt(2) with g from the
    generator's standard_normal; dividing the R diagonal out of Q makes the
    distribution exactly Haar rather than merely unitary.
    """
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    return q * (diag / np.abs(diag))


def seed_matrix(config: SearchConfig, rng=None) -> np.ndarray:
    """Starting matrix of order d*d for the configured seed kind.

    Deterministic for a fixed config: the generator is numpy's default
    (PCG64) seeded with config.rng_seed unless one is passed in.
    """
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    n = config.d * config.d
    if config.seed_kind == "random-unitary":
        return _haar_unitary(n, rng)
    base = config.base_matrix
    if base is None:
        base = _near_ols_permutation(config.d)[0]
    base = np.asarray(base, dtype=complex)
    if base.shape != (n, n):
        raise DimensionError(
            f"base matrix has shape {base.shape}, expected ({n}, {n})"
        )
    noise = (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ) / math.sqrt(2)
    return base + config.epsilon * noise


def sinkhorn_step(x) -> np.ndarray:
    """One alternating-projection update toward 2-unitarity.

    Polar-projects x onto the unitaries, polar-projects the reshuffle of the
    result, and returns the partial transpose of that. The output is always
    the partial transpose of a unitary, and a 2-unitary input keeps defect 0.
    search iterates this same step.
    """
    return _step(_finite_square(x, bipartite=True))[0]


def _step(x):
    """The update of a finite matrix, or of a stack, with what it computed.

    Returns (partial_transpose(W), V, s): V is the unitary polar factor of x,
    s the singular values of reshuffle(V), and W the unitary polar factor of
    reshuffle(V). The two SVDs of an iteration are made here and nowhere else.
    """
    p, _, qh = robust_svd(x)
    v = p @ qh
    p, s, qh = robust_svd(reshuffle(v))
    return partial_transpose(p @ qh), v, s


def search(config: SearchConfig) -> SearchRun:
    """Iterate from the configured seed until the defect drops below tol.

    The defect trace holds the 2-unitarity defect of the unitary polar factor
    of every iterate, starting with the seed itself; a seed that is already
    2-unitary therefore converges at iteration 0. Runs are deterministic:
    the same config reproduces the same trace bit for bit.

    A run also stops, as stalled, once the map has reached a fixed point
    that is not 2-unitary: at iteration n >= 3, when no singular value of
    the reshuffle of the polar factor has moved by more than STALL_RTOL
    times the defect since iteration n - 3. One step cycles the three index
    pairings, so every third step returns to the same unfolding, and
    singular values do not change under local unitaries, so drift along
    that orbit does not count as movement. Otherwise it stops after
    max_iter iterations.

    Each iteration is one call of the step behind sinkhorn_step, and each
    trace entry is taken from what that step already holds: the U^R term
    ||Y*Y - I|| = sqrt(sum((s**2 - 1)**2)) from the singular values s of the
    reshuffle Y that the step decomposes anyway, the U^Gamma term from one
    Gram product. The polar factor itself is unitary by construction, so
    the trace equals its two_unitarity_defect up to rounding.
    """
    return _lockstep(config, [config.rng_seed])[0]


def _lockstep(config: SearchConfig, rng_seeds) -> list:
    """The searches of config from each of rng_seeds, stepped side by side.

    Each iteration is one _step of the stack of runs still going: one stacked
    SVD of the iterates and one of the reshuffles. Each run keeps its own
    trace and stop reason, and leaves the stack when it stops, before the
    next step; the reshuffle spectra of the last three steps, which the
    stall test compares, lose its row at the same time. Where several stop
    conditions hold at once, the first in STOP_REASONS names the stop.
    Every operation acts on each matrix of the stack on its own, so a run's
    numbers do not depend on the other runs beside it.
    """
    x = np.stack([seed_matrix(config, np.random.default_rng(r)) for r in rng_seeds])
    if not np.all(np.isfinite(x)):
        raise NumericError("seed matrix has non-finite entries")
    live = list(range(len(x)))  # the run of each row of the stack
    past = []  # s of the last three steps, oldest first, rows as in x
    traces = [[] for _ in live]
    runs = [None] * len(live)
    for n in range(config.resolved_max_iter + 1):
        x, v, s = _step(x)
        s2 = s * s - 1.0
        u_r = np.sqrt((s2 * s2).sum(axis=-1))
        defect = np.maximum(u_r, gram_defect(partial_transpose(v)))
        if len(past) == 3:
            moved = np.abs(s - past.pop(0)).max(axis=-1)
            fixed = (moved <= STALL_RTOL * defect).tolist()
        else:
            fixed = [False] * len(live)
        past.append(s)
        last = n == config.resolved_max_iter
        keep = []  # the rows of the runs that go on
        for r, (i, value, stalled) in enumerate(zip(live, defect.tolist(), fixed)):
            traces[i].append(value)
            holds = (value <= config.tol, stalled, last)  # in the order of STOP_REASONS
            if not any(holds):
                keep.append(r)
                continue
            runs[i] = SearchRun(
                seed={**config.describe_seed(), "rng_seed": rng_seeds[i]},
                defect_trace=np.array(traces[i]),
                terminal=v[r].copy(),
                stop_reason=STOP_REASONS[holds.index(True)],
            )
        if not keep:
            return runs
        if len(keep) < len(live):  # copying the stack on every step would cost time
            live = [live[r] for r in keep]
            x = x[keep]
            past = [p[keep] for p in past]


def multi_seed_search(config: SearchConfig, n_seeds: int, jobs: int | None = None):
    """Run n_seeds independent searches with seeds rng_seed + 0..n_seeds-1.

    The searches run in lockstep batches, one stacked SVD per step for a
    whole batch. The sweep is split into min(jobs, n_seeds) batches of
    consecutive seeds, one per thread (jobs defaults to the CPU count; the
    SVDs and matrix products release the GIL), unless a thread's share of
    seeds times n*n would be below THREAD_MIN_SHARE: then, as with jobs=1,
    the whole sweep is one batch in the calling thread. A run's result does
    not depend on its batch, so the sweep is the same bit for bit whatever
    jobs says, and each run equals search() of its own config. n_seeds and
    jobs must be integers (numpy integers become int).
    """
    n_seeds = _integer("n_seeds", n_seeds)
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    if jobs is not None:
        jobs = _integer("jobs", jobs)
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
    seeds = range(config.rng_seed, config.rng_seed + n_seeds)
    workers = min(n_seeds, jobs or os.cpu_count() or 1)
    if n_seeds // workers * config.d**4 < THREAD_MIN_SHARE:
        workers = 1
    if workers == 1:
        runs = _lockstep(config, seeds)
    else:
        cuts = [n_seeds * w // workers for w in range(workers + 1)]
        batches = [seeds[a:b] for a, b in zip(cuts, cuts[1:])]
        # imported here, so that a sweep in one thread never loads it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            run_batch = partial(_lockstep, config)
            runs = [run for batch in pool.map(run_batch, batches) for run in batch]
    summary = SearchSummary(
        n_runs=n_seeds,
        best_defect=min(float(r.defect_trace[-1]) for r in runs),
        iteration_histogram=Counter(sorted(r.iterations_used for r in runs if r.converged)),
    )
    return runs, summary


# ---------------------------------------------------------------------------
# seeds: near-orthogonal base permutations


# The order-6 pair of the base. No orthogonal pair of order 6 exists, and
# these squares hold 34 distinct (rank, suit) pairs, the most two Latin
# squares of order 6 can hold: the best near miss to Euler's 36 officers
# (as quoted by Rather et al., Phys. Rev. Lett. 128, 080507, 2022).
_ORDER_SIX_PAIR = (
    [[5, 4, 1, 2, 3, 0], [0, 3, 5, 4, 2, 1], [3, 0, 4, 5, 1, 2],
     [4, 5, 2, 1, 0, 3], [2, 1, 0, 3, 4, 5], [1, 2, 3, 0, 5, 4]],
    [[0, 2, 1, 5, 3, 4], [1, 5, 2, 4, 0, 3], [4, 0, 3, 1, 5, 2],
     [5, 3, 4, 0, 2, 1], [3, 4, 0, 2, 1, 5], [2, 1, 5, 3, 4, 0]],
)

# The order-2 pair: every pair of Latin squares of order 2 holds 2 distinct
# (rank, suit) pairs.
_ORDER_TWO_PAIR = ([[0, 1], [1, 0]], [[1, 0], [0, 1]])


def _prime_power_factors(d):
    """The prime powers whose product is d, by increasing prime."""
    factors = []
    p = 2
    while d > 1:
        q = 1
        while d % p == 0:
            d //= p
            q *= p
        if q > 1:
            factors.append(q)
        p += 1
    return factors


def _macneish(a, b):
    """MacNeish's product of two squares, b of order q.

    Cell (i1*q + i2, j1*q + j2) holds a[i1, j1]*q + b[i2, j2]. The product
    of two orthogonal pairs, square by square, is an orthogonal pair.
    """
    b = np.asarray(b, dtype=np.int64)
    q = len(b)
    return (a[:, None, :, None] * q + b[None, :, None, :]).reshape(len(a) * q, -1)


def _base_pair(d):
    """The pair of Latin squares of order d behind the base.

    Order 6 takes its pinned pair. Otherwise each prime-power factor q of d
    contributes the first two squares of mols_construct(q), or the order-2
    pair at q = 2, and the factors' pairs combine by MacNeish's product.
    So the pair is orthogonal at every d that is not 2 mod 4, and holds
    d*d/2 distinct pairs at the orders 2 mod 4 from 10 on.
    """
    if d == 6:
        return tuple(np.array(sq, dtype=np.int64) for sq in _ORDER_SIX_PAIR)
    ranks = suits = np.zeros((1, 1), dtype=np.int64)
    for q in _prime_power_factors(d):
        if q == 2:
            a, b = _ORDER_TWO_PAIR
        else:  # only here do the designs and the finite fields load
            from .designs import mols_construct

            a, b = mols_construct(q)[:2]
        ranks, suits = _macneish(ranks, a), _macneish(suits, b)
    return ranks, suits


@lru_cache(maxsize=None)
def _near_ols_permutation(d: int):
    """The base permutation of order d*d and its distinct-pair count.

    The card encoding of _base_pair(d), with cells holding duplicate pairs
    refilled with the unused pairs, so the encoding is a genuine
    permutation even where no orthogonal pair of order d exists. Returns
    (permutation matrix, distinct-pair count of the unrepaired squares):
    d*d wherever d is not 2 mod 4, 2 at order 2, 34 at order 6 and d*d/2
    at the other orders 2 mod 4. The cached matrix is read-only, since
    every caller shares it.
    """
    if d < 2:
        raise DimensionError(f"need order >= 2, got {d}")
    ranks, suits = _base_pair(d)
    perm = _repair_to_permutation(ranks, suits)
    perm.flags.writeable = False
    return perm, int(np.count_nonzero(np.bincount(_cards(ranks, suits))))


def _repair_to_permutation(ranks, suits):
    """Card-encode a pair, replacing duplicate cards by the missing ones.

    Scanning cells row by row, the k-th cell whose card an earlier cell
    already holds gets the k-th smallest card that no cell holds.
    """
    cards = _cards(ranks, suits)
    cells = np.arange(cards.size)
    first = np.full(cards.size, cards.size)  # the first cell holding each card
    np.minimum.at(first, cards, cells)
    cards[first[cards] != cells] = np.flatnonzero(first == cards.size)
    return _card_permutation(cards)


# ---------------------------------------------------------------------------
# exhaustive search over permutations


@lru_cache(maxsize=None)
def _latin_pairs(d: int) -> np.ndarray:
    """cards[k]: the card of each cell of the k-th ordered pair of Latin squares.

    The squares of order d are the d-tuples of rows from
    itertools.permutations whose columns are permutations too, that is,
    in which no (column, symbol) pair repeats. Each ordered pair of them
    is card-encoded cell by cell as _cards does, and the card vectors are
    sorted lexicographically: 4 pairs at d = 2, 144 at d = 3. The cached
    table is read-only, since every call shares it.
    """
    rows = itertools.permutations(range(d))
    squares = np.array(list(itertools.permutations(rows, d)), dtype=np.int64)
    held = 1 << (squares + d * np.arange(d))  # bit c*d + s: symbol s in column c
    squares = squares[np.add.reduce(held, axis=(1, 2)) == (1 << d * d) - 1]
    cards = (squares[:, None] * d + squares[None, :]).reshape(-1, d * d)
    cards = np.array(sorted(cards.tolist()), dtype=np.int64)
    cards.flags.writeable = False
    return cards


def brute_force_permutations(d: int) -> list:
    """All order d*d permutation matrices that are 2-unitary, exhaustively.

    Feasible only for d = 2 (4! = 24 candidates, provably none pass) and
    d = 3 (9! = 362880 candidates). A permutation is the card encoding of a
    pair of d x d arrays; its reshuffle and partial transpose are
    permutations exactly when both arrays are Latin squares, and it is one
    itself exactly when no card repeats. So the search tests every ordered
    pair of Latin squares (see _latin_pairs) for a repeated card, with one
    bit sum per pair, which decides all (d*d)! permutations. Results are
    int64 matrices in the lexicographic order of the underlying
    permutations, the order of the table. A warm call takes about 3 us at
    order 4 and 0.03 ms at order 9 on a 2-core Xeon. d must be an integer
    (numpy integers pass), else it is a DimensionError.
    """
    d = _integer("d", d, DimensionError)
    if d not in (2, 3):
        raise CapabilityError(
            f"d = {d}: exhausting the (d**2)! = {d * d}! permutations is out "
            "of reach; d must be 2 or 3"
        )
    n = d * d
    cards = _latin_pairs(d)
    orthogonal = np.add.reduce(1 << cards, axis=1) == (1 << n) - 1
    k = np.count_nonzero(orthogonal)  # cheaper than indexing when none pass
    if not k:
        return []
    perm = cards[orthogonal]  # perm[k, nu]: the row of column nu
    found = np.zeros((k, n, n), dtype=np.int64)
    found[np.arange(k)[:, None], perm, np.arange(n)] = 1
    return list(found)


def amplitude_profile(m, tol: float = 1e-9) -> list:
    """Grouped magnitudes of the nonzero entries of a matrix.

    Entries with magnitude at most tol count as zero and are dropped; the
    rest are clustered wherever consecutive sorted magnitudes differ by more
    than tol. Returns [(mean magnitude, multiplicity), ...] ascending.
    tol must be a finite number >= 0; a non-finite entry is a NumericError.
    """
    _check_tol(tol)
    arr = np.asarray(m, dtype=complex)
    if not np.isfinite(arr).all():
        raise NumericError("matrix has non-finite entries")
    mags = np.sort(np.abs(arr).ravel())
    mags = mags[mags > tol]
    if not mags.size:
        return []
    chunks = np.split(mags, np.flatnonzero(np.diff(mags) > tol) + 1)
    return [(float(chunk.mean()), int(chunk.size)) for chunk in chunks]
