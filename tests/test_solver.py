import itertools
import json
import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from qeuler import (
    GOLDEN,
    CapabilityError,
    DimensionError,
    NotAnOlsError,
    NumericError,
    OrthogonalLatinPair,
    SearchConfig,
    amplitude_profile,
    brute_force_permutations,
    mols_construct,
    multi_seed_search,
    ols_to_permutation,
    partial_transpose,
    permutation_to_ols,
    polar_decompose,
    prime_power_decompose,
    reshuffle,
    search,
    seed_matrix,
    sinkhorn_step,
    two_unitarity_defect,
    unitarity_defect,
    verify_latin,
    verify_orthogonal_pair,
)
from qeuler import jsonio, solver
from qeuler.linalg import robust_svd
from qeuler.solver import STOP_REASONS, THREAD_MIN_SHARE

import frozen
import oracles
import properties


# ---------------------------------------------------------------------------
# golden constants


def test_golden_identities():
    import cmath

    assert abs(GOLDEN.b / GOLDEN.a - GOLDEN.phi) <= 1e-15
    assert abs(2 * (GOLDEN.a**2 + GOLDEN.b**2) - 1.0) <= 1e-15
    assert GOLDEN.c == 1 / math.sqrt(2)
    # omega is the twentieth root of unity with phase pi/10; the power
    # identity itself is checked with slack for pow round-off
    assert abs(abs(GOLDEN.omega) - 1.0) <= 1e-15
    assert abs(cmath.phase(GOLDEN.omega) - math.pi / 10) <= 1e-15
    assert abs(GOLDEN.omega**10 + 1.0) <= 1e-15
    assert abs(GOLDEN.omega**20 - 1.0) <= 1e-14
    assert GOLDEN.a < GOLDEN.b < GOLDEN.c


# ---------------------------------------------------------------------------
# seeding


def test_search_config_validation():
    with pytest.raises(DimensionError):
        SearchConfig(d=1)
    with pytest.raises(ValueError):
        SearchConfig(d=3, seed_kind="coin-flips")
    with pytest.raises(ValueError):
        SearchConfig(d=3, epsilon=-0.5)
    with pytest.raises(ValueError):
        SearchConfig(d=3, tol=0.0)
    with pytest.raises(ValueError):
        SearchConfig(d=3, max_iter=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol", math.nan),
        ("tol", math.inf),
        ("tol", -1e-10),
        ("epsilon", math.nan),
        ("epsilon", math.inf),
        ("epsilon", -math.inf),
    ],
)
def test_search_config_rejects_non_finite_tolerance_and_noise(field, value):
    with pytest.raises(ValueError, match=field):
        SearchConfig(d=3, **{field: value})


def test_search_config_takes_integer_orders_only():
    for d in (2.0, 3.5, "3", None):
        with pytest.raises(DimensionError):
            SearchConfig(d=d)
    config = SearchConfig(d=np.int64(3))
    assert type(config.d) is int and config.d == 3


def test_search_config_takes_integer_iteration_caps_only():
    # a cap of 2.5 used to run 3 iterations and report iterations_used == 3
    for max_iter in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="max_iter"):
            SearchConfig(d=3, max_iter=max_iter, tol=1e-300)
    config = SearchConfig(d=3, max_iter=np.int64(7))
    assert type(config.max_iter) is int and config.resolved_max_iter == 7
    # so does the seed of a sweep: a numpy one used to reach the JSON record
    for rng_seed in (2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="rng_seed"):
            SearchConfig(d=3, rng_seed=rng_seed)
    config = SearchConfig(d=3, rng_seed=np.int64(2))
    assert type(config.rng_seed) is int and config.rng_seed == 2


def test_max_iter_defaults_scale_with_order():
    assert SearchConfig(d=3).resolved_max_iter == 2000
    assert SearchConfig(d=6).resolved_max_iter == 5000
    assert SearchConfig(d=7).resolved_max_iter == 5000
    assert SearchConfig(d=6, max_iter=123).resolved_max_iter == 123


def test_random_unitary_seed_is_haar_like():
    # first-entry second moment of a Haar unitary is 1/n; check loosely
    acc = 0.0
    n_samples = 400
    for i in range(n_samples):
        u = seed_matrix(SearchConfig(d=2, seed_kind="random-unitary", rng_seed=i))
        assert unitarity_defect(u) <= 1e-12
        acc += abs(u[0, 0]) ** 2
    assert acc / n_samples == pytest.approx(1 / 4, rel=0.2)


def test_perturbed_seed_stays_near_its_base(p9):
    config = SearchConfig(
        d=3, seed_kind="perturbed-permutation", epsilon=0.05, base_matrix=p9
    )
    x = seed_matrix(config)
    gap = np.linalg.norm(x - p9)
    # noise has unit-variance complex entries: |E*N| ~ eps * 9
    assert 0 < gap < 0.05 * 9 * 2


def test_epsilon_zero_reproduces_the_base_exactly(p9):
    config = SearchConfig(d=3, epsilon=0.0, base_matrix=p9)
    assert np.array_equal(seed_matrix(config), p9.astype(complex))


def test_every_seed_kind_draws_from_its_generator():
    # a kind that ignored its generator would run one search per sweep n times
    for seed_kind in solver.SEED_KINDS:
        first, second = (
            seed_matrix(SearchConfig(d=3, seed_kind=seed_kind, rng_seed=r))
            for r in (0, 1)
        )
        assert not np.array_equal(first, second)


def test_base_matrix_shape_is_checked(p9):
    with pytest.raises(DimensionError):
        seed_matrix(SearchConfig(d=2, base_matrix=p9))


def test_random_unitary_seed_takes_no_base(p9):
    # the Haar draw used to ignore the base, unchecked even for its shape
    for base in (p9, np.eye(25)):
        with pytest.raises(ValueError, match="random-unitary seed takes no base"):
            SearchConfig(d=3, seed_kind="random-unitary", base_matrix=base, epsilon=0.0)


def test_search_rejects_a_non_finite_seed(p9):
    base = p9.astype(complex)
    base[4, 2] = np.nan
    config = SearchConfig(d=3, epsilon=0.0, base_matrix=base)
    with pytest.raises(NumericError, match="non-finite"):
        search(config)
    with pytest.raises(NumericError, match="non-finite"):
        multi_seed_search(config, 2, jobs=1)


# ---------------------------------------------------------------------------
# the projection step and single searches


def test_step_output_is_partial_transpose_of_unitary(rng):
    x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    y = sinkhorn_step(x)
    assert unitarity_defect(partial_transpose(y)) <= 1e-12


def test_step_checks_its_input(rng):
    with pytest.raises(DimensionError):
        sinkhorn_step(np.zeros((9, 8)))
    with pytest.raises(DimensionError):
        sinkhorn_step(np.eye(8))  # 8 is not a perfect square
    x = rng.standard_normal((9, 9))
    x[4, 2] = np.nan
    with pytest.raises(NumericError):
        sinkhorn_step(x)


def test_two_unitary_point_is_fixed(p9):
    x = p9.astype(complex)
    for _ in range(10):
        x = sinkhorn_step(x)
        assert two_unitarity_defect(polar_decompose(x).unitary_part) <= 1e-12


def test_already_solved_seed_converges_at_iteration_zero(p9):
    run = search(SearchConfig(d=3, epsilon=0.0, base_matrix=p9, tol=1e-10))
    assert run.converged
    assert run.iterations_used == 0
    assert len(run.defect_trace) == 1
    assert run.defect_trace[0] <= 1e-12
    assert two_unitarity_defect(run.terminal) <= 1e-12


def test_search_is_deterministic(p9):
    config = SearchConfig(d=3, rng_seed=11, epsilon=0.1, base_matrix=p9, max_iter=40)
    a = search(config)
    b = search(config)
    assert np.array_equal(a.defect_trace, b.defect_trace)
    assert np.array_equal(a.terminal, b.terminal)
    assert a.iterations_used == b.iterations_used


def test_defect_trace_is_recorded_per_iteration(p9):
    run = search(SearchConfig(d=3, rng_seed=3, epsilon=0.3, base_matrix=p9, max_iter=60))
    assert len(run.defect_trace) == run.iterations_used + 1
    assert run.seed["kind"] == "perturbed-permutation"
    assert run.seed["epsilon"] == 0.3


def _reference_trace(config):
    """Defect trace of the projection map, built from the public primitives."""
    v = polar_decompose(seed_matrix(config)).unitary_part
    trace = [two_unitarity_defect(v)]
    for _ in range(config.resolved_max_iter):
        w = polar_decompose(reshuffle(v)).unitary_part
        v = polar_decompose(partial_transpose(w)).unitary_part
        trace.append(two_unitarity_defect(v))
    return np.array(trace)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_search_trace_is_the_documented_defect(d):
    # search reads its defects off the step's own SVDs and Gram products;
    # they must agree with two_unitarity_defect of every polar factor
    config = SearchConfig(d=d, rng_seed=5, epsilon=0.1, max_iter=50, tol=1e-300)
    run = search(config)
    reference = _reference_trace(config)
    assert reference.shape == (51,)
    # no 2-unitary of order 4 exists, and its run stalls within a few steps
    if d == 2:
        assert run.stop_reason == "stalled"
        assert 3 <= run.iterations_used < 20
    else:
        assert run.stop_reason == "max_iter"
        assert run.iterations_used == 50
    assert run.defect_trace.shape == (run.iterations_used + 1,)
    reference = reference[: run.iterations_used + 1]
    assert np.max(np.abs(run.defect_trace - reference)) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 6])
def test_search_iterates_sinkhorn_step(d):
    # one step function: k sinkhorn_steps from the seed, then a polar
    # projection, give the terminal matrix of a k-iteration search
    config = SearchConfig(d=d, rng_seed=2, max_iter=7, tol=1e-300)
    run = search(config)
    x = seed_matrix(config)
    for _ in range(run.iterations_used):
        x = sinkhorn_step(x)
    assert run.iterations_used == 7
    assert np.array_equal(polar_decompose(x).unitary_part, run.terminal)


def test_search_near_the_order_nine_solution_converges(p9):
    runs, summary = multi_seed_search(
        SearchConfig(d=3, epsilon=0.1, base_matrix=p9, tol=1e-10), 6
    )
    assert summary.n_runs == 6
    assert summary.n_converged >= 1
    assert summary.best_defect <= 1e-10
    for run in runs:
        if run.converged:
            assert two_unitarity_defect(run.terminal) <= 1e-10
            # converged points are genuine fixed points
            stepped = sinkhorn_step(run.terminal)
            assert (
                two_unitarity_defect(polar_decompose(stepped).unitary_part) <= 1e-9
            )


def _same_run(a, b):
    return (
        a.iterations_used == b.iterations_used
        and a.stop_reason == b.stop_reason
        and np.array_equal(a.defect_trace, b.defect_trace)
        and np.array_equal(a.terminal, b.terminal)
    )


def _assert_sweep_is_schedule_independent(config, n_seeds):
    # every schedule gives every run exactly as search() gives it alone
    alone = [search(replace(config, rng_seed=config.rng_seed + i)) for i in range(n_seeds)]
    summaries = []
    for jobs in (1, 2):
        runs, summary = multi_seed_search(config, n_seeds, jobs=jobs)
        summaries.append(summary)
        assert len(runs) == n_seeds
        for a, b in zip(runs, alone):
            assert _same_run(a, b)
    assert summaries[0] == summaries[1]
    return alone


def test_multi_seed_sweep_is_schedule_independent(p9):
    _assert_sweep_is_schedule_independent(
        SearchConfig(d=3, epsilon=0.2, base_matrix=p9, max_iter=30), 5
    )
    # at order 36 each of two seeds is a share above the cut-off, so jobs=2
    # really splits the sweep over two threads
    assert 36 * 36 >= THREAD_MIN_SHARE
    runs = _assert_sweep_is_schedule_independent(SearchConfig(d=6, max_iter=12), 2)
    assert [r.stop_reason for r in runs] == ["max_iter", "max_iter"]


def test_multi_seed_search_rejects_worker_counts_below_one(p9):
    config = SearchConfig(d=3, epsilon=0.1, base_matrix=p9, max_iter=5)
    for jobs in (0, -2):
        with pytest.raises(ValueError):
            multi_seed_search(config, 2, jobs=jobs)
    # seed and worker counts are integers: these used to fail inside range()
    for n_seeds, jobs in ((2.0, None), (2, 1.5), ("2", None), (2, "1")):
        with pytest.raises(ValueError, match="n_seeds" if jobs is None else "jobs"):
            multi_seed_search(config, n_seeds, jobs=jobs)
    # numpy integers become int, so the sweep's record serialises
    config = replace(config, rng_seed=np.int64(3))
    runs, summary = multi_seed_search(config, np.int64(2), jobs=np.int64(1))
    assert type(summary.n_runs) is int and summary.n_runs == 2
    assert [r.seed["rng_seed"] for r in runs] == [3, 4]
    json.dumps(jsonio.search_result_to_json(config, runs, summary))


def test_multi_seed_search_uses_consecutive_seeds(p9, monkeypatch):
    runs, _ = multi_seed_search(
        SearchConfig(d=3, rng_seed=7, epsilon=0.1, base_matrix=p9, max_iter=5), 3
    )
    assert [r.seed["rng_seed"] for r in runs] == [7, 8, 9]
    with pytest.raises(ValueError):
        multi_seed_search(SearchConfig(d=3), 0)
    # for every seed kind each run describes its own seed, in describe_seed's
    # key order, whether the sweep is one batch (jobs=1) or two (jobs=2 with
    # no share cut-off)
    monkeypatch.setattr(solver, "THREAD_MIN_SHARE", 0)
    for seed_kind in solver.SEED_KINDS:
        config = SearchConfig(d=3, seed_kind=seed_kind, rng_seed=4, max_iter=3)
        for jobs in (1, 2):
            runs, _ = multi_seed_search(config, 3, jobs=jobs)
            for i, run in enumerate(runs):
                want = replace(config, rng_seed=config.rng_seed + i).describe_seed()
                assert list(run.seed.items()) == list(want.items())


def test_sweep_takes_no_step_after_its_last_run_stops(monkeypatch):
    sizes = []

    def counting_svd(m):
        sizes.append(len(m))
        return robust_svd(m)

    monkeypatch.setattr(solver, "robust_svd", counting_svd)
    runs, _ = multi_seed_search(SearchConfig(d=3, max_iter=2000), 8, jobs=1)
    last = max(r.iterations_used for r in runs)
    assert all(r.converged for r in runs) and last < 40
    # two SVDs per iteration, and none once every run has stopped
    assert len(sizes) <= 2 * (last + 1)
    assert 0 not in sizes


# ---------------------------------------------------------------------------
# stop reasons


def test_flat_order_four_trace_stops_as_stalled():
    # no 2-unitary of order 4 exists: the trace is flat within ~10 iterations
    config = SearchConfig(d=2, rng_seed=3, max_iter=10_000)
    run = search(config)
    assert run.stop_reason == "stalled"
    assert not run.converged
    # the reshuffle spectrum settles within a few iterations; the stall rule
    # compares it with the one three steps back, so it can fire from step 3
    assert 3 <= run.iterations_used < 20
    # the stop changes nothing but the length: running on gives the same defect
    reference = _reference_trace(replace(config, max_iter=2500))
    assert run.defect_trace[-1] == pytest.approx(reference[-1], rel=1e-9, abs=0)
    assert abs(two_unitarity_defect(run.terminal) - run.defect_trace[-1]) <= 1e-12


def test_slowly_moving_trace_is_not_cut_off():
    # order 16 converges sublinearly from the built-in base: the defect is
    # still falling after thousands of iterations, so only max_iter ends it
    max_iter = 2300
    run = search(SearchConfig(d=4, rng_seed=1000, max_iter=max_iter))
    assert run.stop_reason == "max_iter"
    assert run.iterations_used == max_iter
    assert not run.converged


def test_period_three_creep_is_not_cut_off():
    # criterion 4's rng_seed 40 never settles: its trace cycles with period
    # 3 at about 1e-9 relative, so a stall threshold of 1e-9 stops it early
    run = search(SearchConfig(d=6, rng_seed=40, epsilon=0.1, max_iter=1500, tol=1e-8))
    assert run.stop_reason == "max_iter"
    assert run.iterations_used == 1500


def test_already_solved_seed_stops_as_converged(p9):
    run = search(SearchConfig(d=3, epsilon=0.0, base_matrix=p9))
    assert run.stop_reason == "converged"
    assert run.converged


def test_first_stop_reason_wins_where_two_hold():
    assert STOP_REASONS == ("converged", "stalled", "max_iter")
    # the built-in order-9 base is 2-unitary: converged and at the cap at 0
    run = search(SearchConfig(d=3, epsilon=0.0, max_iter=0))
    assert (run.stop_reason, run.iterations_used, run.converged) == ("converged", 0, True)
    # this order-4 seed stalls at iteration 6; capped there, it still stalls
    free = search(SearchConfig(d=2, rng_seed=0))
    capped = search(SearchConfig(d=2, rng_seed=0, max_iter=6))
    assert (free.stop_reason, free.iterations_used) == ("stalled", 6)
    assert (capped.stop_reason, capped.iterations_used) == ("stalled", 6)
    assert capped.defect_trace.tobytes() == free.defect_trace.tobytes()
    # where only the cap holds, it names the stop
    run = search(SearchConfig(d=2, max_iter=0))
    assert (run.stop_reason, run.iterations_used, run.converged) == ("max_iter", 0, False)


def test_mixed_sweep_counts_agree_with_its_runs():
    # capped at 20, these order-9 seeds converge at 18, 19 and 20 (at 20 the
    # cap holds too) and one is still above tol at the cap
    config = SearchConfig(d=3, epsilon=0.7, max_iter=20)
    runs, summary = multi_seed_search(config, 10)
    assert {r.stop_reason for r in runs} == {"converged", "max_iter"}
    for r in runs:
        assert r.converged == (r.stop_reason == "converged")
        assert r.converged == (r.defect_trace[-1] <= config.tol)
        assert r.iterations_used == len(r.defect_trace) - 1
    iters = [r.iterations_used for r in runs if r.converged]
    assert sorted(set(iters)) == [18, 19, 20]
    assert summary.n_converged == len(iters) == 9
    assert summary.convergence_rate == len(iters) / 10
    assert summary.iteration_histogram == Counter(iters)
    assert list(summary.iteration_histogram) == [18, 19, 20]
    doc = json.loads(json.dumps(jsonio.search_result_to_json(config, runs, summary)))
    rows = [(row["converged"], row["iterations_used"], row["stop_reason"]) for row in doc["runs"]]
    assert rows == [(r.converged, r.iterations_used, r.stop_reason) for r in runs]
    assert doc["summary"] == {
        "n_runs": 10,
        "n_converged": 9,
        "convergence_rate": 0.9,
        "best_defect": min(float(r.defect_trace[-1]) for r in runs),
        "iteration_histogram": {str(k): iters.count(k) for k in (18, 19, 20)},
    }
    assert list(doc["summary"]["iteration_histogram"]) == ["18", "19", "20"]


def test_stalled_sweep_is_schedule_independent(monkeypatch):
    config = SearchConfig(d=2, max_iter=10_000)
    runs = _assert_sweep_is_schedule_independent(config, 3)
    assert all(r.stop_reason == "stalled" for r in runs)
    # runs that stall at different iterations leave their batch at different
    # steps; with no cut-off, jobs=2 splits even these three seeds
    assert len({r.iterations_used for r in runs}) > 1
    monkeypatch.setattr(solver, "THREAD_MIN_SHARE", 0)
    _assert_sweep_is_schedule_independent(config, 3)


def test_svd_fallback_touches_only_the_failing_seed(monkeypatch):
    import scipy.linalg

    config = SearchConfig(d=3, max_iter=30)
    clean, _ = multi_seed_search(config, 4, jobs=1)
    marked_config = replace(config, rng_seed=config.rng_seed + 2)
    marked = seed_matrix(marked_config)
    other = seed_matrix(config)
    real_svd, real_scipy_svd = np.linalg.svd, scipy.linalg.svd
    expected = real_scipy_svd(marked, lapack_driver="gesvd")

    def flaky_svd(m, *args, **kwargs):
        # gesdd "fails" on any stack that holds the marked seed matrix
        if any(np.array_equal(x, marked) for x in m.reshape(-1, *m.shape[-2:])):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(m, *args, **kwargs)

    fallbacks = []

    def spy_svd(m, *args, **kwargs):
        fallbacks.append(kwargs.get("lapack_driver"))
        return real_scipy_svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky_svd)
    monkeypatch.setattr(scipy.linalg, "svd", spy_svd)
    # the marked matrix gets scipy's gesvd factors, its neighbours gesdd's
    p, s, qh = robust_svd(np.stack([other, marked, other]))
    assert fallbacks == ["gesvd"]
    for got, want in zip((p[1], s[1], qh[1]), expected):
        assert np.array_equal(got, want)
    for got, want in zip((p[2], s[2], qh[2]), real_svd(other)):
        assert np.array_equal(got, want)
    # in a sweep only the marked seed's run moves off the clean one
    runs, _ = multi_seed_search(config, 4, jobs=1)
    assert fallbacks == ["gesvd"] * 2
    for i in (0, 1, 3):
        assert _same_run(runs[i], clean[i])
    assert _same_run(runs[2], search(marked_config))
    assert fallbacks == ["gesvd"] * 3
    assert runs[2].stop_reason == clean[2].stop_reason == "converged"


# ---------------------------------------------------------------------------
# base permutations


def test_default_base_is_a_near_orthogonal_permutation():
    base, count = solver._near_ols_permutation(6)
    assert base.shape == (36, 36)
    assert np.all((base == 0) | (base == 1))
    assert (base.sum(axis=0) == 1).all() and (base.sum(axis=1) == 1).all()
    # no orthogonal pair of order six exists, so no pair of Latin squares
    # reaches 36 distinct pairs; the built-in one holds 34
    assert count == 34
    assert unitarity_defect(base) == 0.0
    assert two_unitarity_defect(base) > 0.0
    with pytest.raises(NotAnOlsError):
        permutation_to_ols(base)


def test_bases_of_orders_two_and_six_are_pinned():
    # no orthogonal pair exists at these orders: every pair of order 2 holds
    # 2 distinct (rank, suit) pairs, and the order-6 pair holds 34, the
    # classical maximum
    for d, count in ((2, 2), (6, 34)):
        base, got = solver._near_ols_permutation(d)
        assert got == count
        assert np.array_equal(base, solver._card_permutation(frozen.BASE_CARDS[d]))


def test_prime_power_bases_are_orthogonal_pairs():
    # every order that is not 2 mod 4 has an orthogonal pair: the
    # finite-field pair at prime powers, and MacNeish's product of those at
    # 12, 15, 20 and 21
    for d in range(3, 22):
        if d % 4 == 2:
            continue
        base, count = solver._near_ols_permutation(d)
        assert count == d * d
        assert base.shape == (d * d, d * d)
        assert two_unitarity_defect(base) == 0.0
        if prime_power_decompose(d) is not None:
            want = oracles.repaired_card_matrix_by_loops(*mols_construct(d)[:2])
            assert np.array_equal(base, want), d
        else:
            pair = OrthogonalLatinPair(*solver._base_pair(d))
            assert verify_orthogonal_pair(pair).passed
            assert np.array_equal(base, ols_to_permutation(pair))


@pytest.mark.parametrize("d", range(4, 9))
def test_repair_equals_the_loop_repair(d):
    # two independent random Latin squares share many duplicate pairs
    rng = np.random.default_rng(4100 + d)
    for _ in range(4):
        ranks = oracles.random_latin_by_permutations(d, rng)
        suits = oracles.random_latin_by_permutations(d, rng)
        assert oracles.distinct_pair_count(ranks, suits) < d * d
        got = solver._repair_to_permutation(ranks, suits)
        want = oracles.repaired_card_matrix_by_loops(ranks, suits)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_bases_of_orders_two_to_ten_come_from_latin_squares(monkeypatch):
    # the squares handed to the repair are Latin at every order, 2-24 here;
    # at the orders 2 mod 4 from 10 on, the product with the order-2 pair
    # holds half of the d*d pairs
    repaired = []

    def recorded(ranks, suits):
        repaired.append((ranks.copy(), suits.copy()))
        return repair(ranks, suits)

    repair = solver._repair_to_permutation
    monkeypatch.setattr(solver, "_repair_to_permutation", recorded)
    for d in range(2, 25):
        repaired.clear()
        base, count = solver._near_ols_permutation.__wrapped__(d)
        (ranks, suits), = repaired
        assert np.array_equal(base, solver._near_ols_permutation(d)[0])
        assert oracles.latin_violations_by_loops(ranks) == [], d
        assert oracles.latin_violations_by_loops(suits) == [], d
        assert count == oracles.distinct_pair_count(ranks, suits)
        if d % 4 == 2 and d >= 10:
            assert count == d * d // 2


def test_cached_base_is_read_only():
    base, _ = solver._near_ols_permutation(3)
    with pytest.raises(ValueError):
        base[0] = 0


# ---------------------------------------------------------------------------
# exhaustive permutation search


def test_no_two_unitary_permutation_of_order_four():
    assert brute_force_permutations(2) == []


def test_order_four_search_agrees_with_trying_every_permutation(p9):
    # all 24 candidates checked one by one, independently of the search, by
    # a check that does tell a 2-unitary permutation from one that is not
    assert oracles.is_two_unitary_permutation_by_loops(p9, 3)
    assert not oracles.is_two_unitary_permutation_by_loops(np.eye(9), 3)
    assert oracles.two_unitary_permutations_by_enumeration(2) == []
    assert brute_force_permutations(2) == []


def test_order_nine_search_finds_the_classic_encoding(p9):
    found = brute_force_permutations(3)
    assert len(found) >= 1
    assert any(np.array_equal(m, p9) for m in found)
    for m in found[:50]:
        assert two_unitarity_defect(m) == 0.0


def test_order_nine_search_is_every_orthogonal_pair_in_order():
    # 12 Latin squares of order 3 give 72 ordered orthogonal pairs, each
    # card-encoded independently of the search
    assert len(oracles.all_latin_squares(3)) == 12
    expected = oracles.card_encoded_orthogonal_pairs(3)
    assert len(expected) == 72
    found = brute_force_permutations(3)
    assert [tuple(m.argmax(axis=0)) for m in found] == expected
    for m in found:
        assert m.dtype == np.int64
        assert two_unitarity_defect(m) == 0.0


def test_brute_force_results_are_separate_writable_arrays():
    first, second = brute_force_permutations(3), brute_force_permutations(3)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    for m in first:
        assert m.dtype == np.int64 and m.flags.writeable
    first[0][:] = 7
    first[-1][0, 0] = 7
    assert all(m.sum() == 9 for m in second)
    assert all(m.sum() == 9 for m in brute_force_permutations(3))


def test_cached_latin_pairs_are_read_only():
    # every ordered pair of Latin squares: 2 squares of order 2, 12 of order 3
    for d, count in ((2, 4), (3, 144)):
        cards = solver._latin_pairs(d)
        assert cards is solver._latin_pairs(d)
        assert cards.shape == (count, d * d) and cards.dtype == np.int64
        with pytest.raises(ValueError):
            cards[0, 0] = 0


@pytest.mark.parametrize("d", [2, 3])
def test_latin_pairs_are_every_ordered_pair_of_latin_squares_in_order(d):
    # the squares by backtracking in the oracle, each ordered pair
    # card-encoded cell by cell, the card vectors in lexicographic order
    squares = oracles.all_latin_squares(d)
    expected = sorted(
        tuple((r * d + s).ravel().tolist()) for r in squares for s in squares
    )
    cards = solver._latin_pairs(d)
    assert [tuple(c) for c in cards.tolist()] == expected
    ranks, suits = np.divmod(cards.reshape(-1, d, d), d)
    for square in (*ranks, *suits):
        assert verify_latin(square).passed


def test_order_nine_search_agrees_with_trying_every_permutation():
    # all 9! candidates, 8! at a time in lexicographic order, each kept when
    # its reshuffle and its partial transpose are permutations too, which
    # does not go through Latin squares
    n = 9
    tails = np.array(list(itertools.permutations(range(n - 1))))
    columns = np.arange(n)
    found = []
    for first in range(n):
        perm = np.insert(np.delete(columns, first)[tails], 0, first, axis=1)
        m = np.zeros((len(perm), n, n), dtype=np.int8)
        m[np.arange(len(perm))[:, None], perm, columns] = 1
        ok = np.ones(len(perm), dtype=bool)
        for u in (reshuffle(m), partial_transpose(m)):
            ok &= (u.sum(axis=1) == 1).all(axis=1) & (u.sum(axis=2) == 1).all(axis=1)
        found += [tuple(p) for p in perm[ok].tolist()]
    assert len(found) == 72
    assert [tuple(m.argmax(axis=0).tolist()) for m in brute_force_permutations(3)] == found


def test_brute_force_bound():
    # refused without computing (d**2)!: 1600! alone has 4434 digits, past
    # Python's int-to-str limit
    for d in (1, 4, 40, 10**6):
        t0 = time.perf_counter()
        with pytest.raises(CapabilityError, match="out of reach"):
            brute_force_permutations(d)
        assert time.perf_counter() - t0 < 0.1, d
    for d in (2.0, 3.5, "3"):
        with pytest.raises(DimensionError, match="must be an int"):
            brute_force_permutations(d)
    assert brute_force_permutations(np.int64(2)) == []


# ---------------------------------------------------------------------------
# amplitude profiles


def test_amplitude_profile_of_permutation(p9):
    assert amplitude_profile(p9) == [(1.0, 9)]


def test_amplitude_profile_of_scaled_hadamard():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    profile = amplitude_profile(h)
    assert len(profile) == 1
    value, multiplicity = profile[0]
    assert multiplicity == 4
    assert value == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_amplitude_profile_groups_distinct_magnitudes():
    m = np.diag([GOLDEN.a, GOLDEN.a, GOLDEN.b, GOLDEN.c])
    profile = amplitude_profile(m)
    assert [mult for _, mult in profile] == [2, 1, 1]
    assert profile[0][0] == pytest.approx(GOLDEN.a, abs=1e-15)
    assert amplitude_profile(np.zeros((3, 3))) == []


# ---------------------------------------------------------------------------
# randomized suite (shared with the acceptance run)


def test_defect_zero_preservation_suite():
    worst = properties.check_defect_zero_preservation(200)
    assert worst <= 1e-12
