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
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import (
    CapabilityError,
    DimensionError,
    InvalidDesignError,
    NotAPrimePowerError,
    NumericError,
)
from .designs import _card_permutation, _cards, cyclic_latin, mols_construct
from .linalg import (
    block_dim,
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
    "default_base_permutation",
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

    max_iter defaults to 5000 for d >= 6 and 2000 below. base_matrix feeds the
    perturbed-permutation seed (default: the built-in near-orthogonal base for
    the order at hand).
    """

    d: int
    seed_kind: str = "perturbed-permutation"
    rng_seed: int = 0
    epsilon: float = 0.1
    max_iter: int | None = None
    tol: float = 1e-10
    base_matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "d", operator.index(self.d))
        except TypeError:
            raise DimensionError(f"search needs an integer d, got {self.d!r}") from None
        if self.d < 2:
            raise DimensionError(f"search needs d >= 2, got {self.d}")
        if self.seed_kind not in SEED_KINDS:
            raise ValueError(f"unknown seed kind {self.seed_kind!r}; use {SEED_KINDS}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be a finite number >= 0, got {self.epsilon!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a finite number > 0, got {self.tol!r}")
        if self.max_iter is not None:
            try:
                object.__setattr__(self, "max_iter", operator.index(self.max_iter))
            except TypeError:
                raise ValueError(f"max_iter must be an int, got {self.max_iter!r}") from None
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
    """Outcome of one seed: defect trace, terminal unitary, convergence flag.

    stop_reason is one of STOP_REASONS: "converged" when the defect fell to
    tol, "stalled" when the trace stopped moving, "max_iter" otherwise.
    """

    seed: dict
    defect_trace: np.ndarray
    iterations_used: int
    converged: bool
    terminal: np.ndarray
    stop_reason: str


@dataclass(frozen=True)
class SearchSummary:
    """Aggregate of a multi-seed sweep."""

    n_runs: int
    n_converged: int
    convergence_rate: float
    best_defect: float
    iteration_histogram: dict  # iterations_used -> count, converged runs only


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
    x = np.asarray(x, dtype=complex)
    block_dim(x)
    if not np.all(np.isfinite(x)):
        raise NumericError("matrix has non-finite entries")
    return _step(x)[0]


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
    stall test compares, lose its row at the same time. Every operation acts
    on each matrix of the stack on its own, so a run's numbers do not depend
    on the other runs beside it.
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
        stopped = []
        for r, (i, value) in enumerate(zip(live, defect.tolist())):
            trace = traces[i]
            trace.append(value)
            if value <= config.tol:
                reason = "converged"
            elif fixed[r]:
                reason = "stalled"
            elif n == config.resolved_max_iter:
                reason = "max_iter"
            else:
                continue
            runs[i] = SearchRun(
                seed={**config.describe_seed(), "rng_seed": rng_seeds[i]},
                defect_trace=np.array(trace),
                iterations_used=n,
                converged=reason == "converged",
                terminal=v[r].copy(),
                stop_reason=reason,
            )
            stopped.append(r)
        if len(stopped) == len(live):
            return runs
        if stopped:
            keep = [r for r in range(len(live)) if r not in stopped]
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
    jobs says, and each run equals search() of its own config.
    """
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    if jobs is not None and jobs < 1:
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
        with ThreadPoolExecutor(max_workers=workers) as pool:
            run_batch = partial(_lockstep, config)
            runs = [run for batch in pool.map(run_batch, batches) for run in batch]
    n_conv = sum(r.converged for r in runs)
    hist = {}
    for r in runs:
        if r.converged:
            hist[r.iterations_used] = hist.get(r.iterations_used, 0) + 1
    summary = SearchSummary(
        n_runs=n_seeds,
        n_converged=n_conv,
        convergence_rate=n_conv / n_seeds,
        best_defect=min(float(r.defect_trace[-1]) for r in runs),
        iteration_histogram=dict(sorted(hist.items())),
    )
    return runs, summary


# ---------------------------------------------------------------------------
# seeds: near-orthogonal base permutations


def _random_latin(d, rng):
    sq = cyclic_latin(d)
    sq = sq[rng.permutation(d), :][:, rng.permutation(d)]
    return rng.permutation(d)[sq]


def _intercalate_flips(sq):
    """All 2x2 subsquares whose flip keeps the square Latin.

    Each is a list [r1, r2, c1, c2] with r1 < r2 and c1 < c2, in
    lexicographic order.
    """
    d = sq.shape[0]
    # same[r1, r2, c1, c2]: sq[r1, c1] == sq[r2, c2]
    same = sq[:, None, :, None] == sq[None, :, None, :]
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    hit = (
        same
        & same.transpose(0, 1, 3, 2)
        & upper[:, :, None, None]
        & upper[None, None, :, :]
    )
    return np.argwhere(hit).tolist()


def _climb(ranks, suits, rng):
    """Greedy intercalate-flip ascent of the distinct-pair count, in place.

    Repeats passes over ranks then suits until a pass over both improves
    nothing. A pass lists the square's flips once, shuffles them with rng and
    tries each in turn, keeping it only when it raises the count. A flip
    swaps the two columns of its 2x2 subsquare in the square as it stands,
    even when an earlier flip of the pass has broken the intercalate. The
    count is kept up to date from a table of pair multiplicities: a flip
    moves the four pairs of its cells. Returns the final count.
    """
    d = ranks.shape[0]
    # table[card]: the number of cells holding the pair with that card
    table = np.bincount(_cards(ranks, suits), minlength=d * d).tolist()
    count = d * d - table.count(0)
    improved = True
    while improved:
        improved = False
        # the key of a cell's pair is scale * (its value in sq)
        # + other_scale * (its value in the other square)
        for sq, other, scale, other_scale in (
            (ranks, suits, d, 1),
            (suits, ranks, 1, d),
        ):
            flips = _intercalate_flips(sq)
            rng.shuffle(flips)
            rows = sq.tolist()
            pairs = (other * other_scale).tolist()
            for r1, r2, c1, c2 in flips:
                row1, row2 = rows[r1], rows[r2]
                p1, p2 = pairs[r1], pairs[r2]
                x11, x12, x21, x22 = row1[c1], row1[c2], row2[c1], row2[c2]
                old = (
                    x11 * scale + p1[c1], x12 * scale + p1[c2],
                    x21 * scale + p2[c1], x22 * scale + p2[c2],
                )
                new = (
                    x12 * scale + p1[c1], x11 * scale + p1[c2],
                    x22 * scale + p2[c1], x21 * scale + p2[c2],
                )
                new_count = count
                for key in old:
                    table[key] -= 1
                    if not table[key]:
                        new_count -= 1
                for key in new:
                    if not table[key]:
                        new_count += 1
                    table[key] += 1
                if new_count > count:
                    count = new_count
                    improved = True
                    row1[c1], row1[c2] = x12, x11
                    row2[c1], row2[c2] = x22, x21
                else:
                    for key in new:
                        table[key] -= 1
                    for key in old:
                        table[key] += 1
            sq[...] = rows
    return count


_BASE_SEARCH_SEED = 36  # fixed: the default base must be reproducible
_BASE_RESTARTS = 60

# The most distinct (rank, suit) pairs two Latin squares of order d can
# hold: d*d wherever an orthogonal pair exists, which is every order except
# 2 and 6 (Bose, Shrikhande and Parker, 1960). At order 2 every pair of
# squares gives exactly 2, and at order 6 the classical maximum is 34, the
# best near miss to Euler's 36 officers (as quoted by Rather et al., Phys.
# Rev. Lett. 128, 080507, 2022). No restart whose squares stay Latin can
# beat a count that reaches this bound. (A pass can leave a square that is
# not Latin, see _climb; at order 6 none of 3000 restarts tried did.)
_MAX_DISTINCT_PAIRS = {2: 2, 6: 34}


@lru_cache(maxsize=None)
def _near_ols_permutation(d: int):
    """Best-effort orthogonal pair of order d, repaired and card-encoded.

    Local search over pairs of Latin squares (intercalate flips, greedy, with
    seeded restarts) maximizes the number of distinct (rank, suit) pairs.
    The restarts stop early once one reaches the most pairs two Latin
    squares of order d can hold (_MAX_DISTINCT_PAIRS: d*d, but 34 at order
    6, where no orthogonal pair exists, and 2 at order 2); only a strictly
    higher count replaces the best so far, so stopping there changes
    nothing. Where local search ends short of d*d pairs and the
    finite-field construction applies (prime-power d >= 3), its first two
    squares are used instead: intercalate flips cannot move cyclic squares
    of prime order, and stop at 17/25, 35/49, 62/64 and 58/81 at orders 5,
    7, 8 and 9. Otherwise cells holding duplicate pairs are refilled with
    the unused pairs, so the encoding is a genuine permutation even when no
    orthogonal pair of this order exists. Returns (permutation matrix,
    distinct-pair count of the unrepaired squares); the cached matrix is
    read-only, since every caller shares it.
    """
    if d < 2:
        raise DimensionError(f"need order >= 2, got {d}")
    rng = np.random.default_rng(_BASE_SEARCH_SEED + d)
    most = _MAX_DISTINCT_PAIRS.get(d, d * d)
    best_count = -1
    best = None
    for _ in range(_BASE_RESTARTS):
        ranks = _random_latin(d, rng)
        suits = _random_latin(d, rng)
        count = _climb(ranks, suits, rng)
        if count > best_count:
            best_count = count
            best = (ranks, suits)
        if best_count == most:
            break
    ranks, suits = best
    if best_count < d * d:
        try:
            ranks, suits = mols_construct(d)[:2]
            best_count = d * d
        except (NotAPrimePowerError, InvalidDesignError):
            pass
    perm = _repair_to_permutation(ranks, suits)
    perm.flags.writeable = False
    return perm, best_count


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


def default_base_permutation(d: int = 6):
    """The built-in order-36 base permutation and its distinct-pair count.

    Built from a pair of order-6 Latin squares chosen by local search to
    maximize the count of distinct (rank, suit) pairs, with the few duplicate
    pairs repaired to the unused ones. Deterministic across calls. Decoding
    it with permutation_to_ols fails by design: it is only nearly orthogonal.
    """
    if d != 6:
        raise CapabilityError(
            f"no canonical base permutation is defined for order {d}; only 6"
        )
    perm, count = _near_ols_permutation(6)
    return perm.copy(), count


# ---------------------------------------------------------------------------
# exhaustive search over permutations


def brute_force_permutations(d: int) -> list:
    """All order d*d permutation matrices that are 2-unitary, exhaustively.

    Feasible only for d = 2 (4! = 24 candidates, provably none pass) and
    d = 3 (9! = 362880 candidates). Columns nu = 0..n-1 are placed one at a
    time, each trying its row mu = a*d + i (nu = b*d + j) in increasing
    order. A placement claims five cells: row mu itself, the reshuffle's row
    (a, b) and column (i, j), and the partial transpose's row (a, j) and
    column (b, i). The first cell claimed twice prunes the whole subtree,
    which holds no solution, so all (d*d)! permutations are still decided.
    Results are integer matrices in the lexicographic order of the
    underlying permutations.
    """
    if d not in (2, 3):
        n = d * d if d >= 1 else 0
        raise CapabilityError(
            f"exhausting ({d}**2)! = {math.factorial(n)} permutations is out "
            "of reach; d must be 2 or 3"
        )
    n = d * d
    # masks[nu][mu]: the five cells as bits of five n-bit fields
    split = [divmod(k, d) for k in range(n)]
    masks = [
        [
            1 << mu | 1 << (n + a * d + b) | 1 << (2 * n + i * d + j)
            | 1 << (3 * n + a * d + j) | 1 << (4 * n + b * d + i)
            for mu, (a, i) in enumerate(split)
        ]
        for b, j in split
    ]
    perm = [0] * n
    results = []

    def place(nu, seen):
        if nu == n:
            results.append(_card_permutation(perm))
            return
        for mu, mask in enumerate(masks[nu]):
            if not seen & mask:
                perm[nu] = mu
                place(nu + 1, seen | mask)

    place(0, 0)
    return results


def amplitude_profile(m, tol: float = 1e-9) -> list:
    """Grouped magnitudes of the nonzero entries of a matrix.

    Entries with magnitude at most tol count as zero and are dropped; the
    rest are clustered wherever consecutive sorted magnitudes differ by more
    than tol. Returns [(mean magnitude, multiplicity), ...] ascending.
    """
    mags = np.sort(np.abs(np.asarray(m, dtype=complex)).ravel())
    mags = mags[mags > tol]
    groups = []
    start = 0
    for i in range(1, len(mags) + 1):
        if i == len(mags) or mags[i] - mags[i - 1] > tol:
            chunk = mags[start:i]
            groups.append((float(chunk.mean()), int(chunk.size)))
            start = i
    return groups
