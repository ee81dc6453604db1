"""End-to-end checks of the shipped guarantees, one verdict line each.

Every test computes its result first, prints a single
"criterion N: PASS|FAIL (...)" line, and only then asserts, so the verdict
table survives in the captured output of passing and failing runs alike.
Run with -rP to see the lines for passing tests.
"""

import math
import time

import numpy as np
from click.testing import CliRunner

from qeuler import (
    GOLDEN,
    NotAPrimePowerError,
    SearchConfig,
    ame_check,
    ame_from_ols,
    closest_separable_distance,
    jsonio,
    k_uniform_check,
    mols_construct,
    multi_seed_search,
    ols_to_permutation,
    qoa_from_qols,
    qoa_verify,
    qols_verify,
    square_from_unitary_rows,
    state_from_two_unitary,
    two_unitarity_defect,
    verify_latin,
    verify_orthogonal_pair,
)
from qeuler.cli import main
from qeuler.designs import OrthogonalLatinPair
from qeuler.states import PureState

import frozen
import properties


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_exhaustive_permutation_search(tmp_path):
    runner = CliRunner()
    t0 = time.perf_counter()
    r2 = runner.invoke(main, ["bruteforce", "--dim", "2"], catch_exceptions=False)
    t2 = time.perf_counter() - t0
    out3 = tmp_path / "found3.json"
    t0 = time.perf_counter()
    r3 = runner.invoke(
        main, ["bruteforce", "--dim", "3", "--out", str(out3)],
        catch_exceptions=False,
    )
    t3 = time.perf_counter() - t0
    doc = jsonio.load_json(out3)
    ok = (
        r2.exit_code == 0
        and "searched 24 permutations of order 4" in r2.output
        and "0 found" in r2.output
        and t2 < 1.0
        and r3.exit_code == 0
        and "searched 362880 permutations of order 9" in r3.output
        and doc["count"] >= 1
        and frozen.P9_ONE_ROWS in doc["one_positions"]
        and t3 < 60.0
    )
    assert _verdict(
        1,
        ok,
        f"order 4: none of 24 in {t2:.3f}s; order 9: {doc['count']} of 362880 "
        f"incl. the classic card pattern in {t3:.3f}s",
    )


def test_criterion_02_order_three_state_marginals(classic_pair):
    t0 = time.perf_counter()
    psi = ame_from_ols(classic_pair)
    nonzero = [int(i) for i in np.flatnonzero(psi.amplitudes)]
    report = k_uniform_check(psi, 2, tol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = (
        nonzero == frozen.AME33_NONZERO
        and bool(np.all(psi.amplitudes[nonzero] == 1.0 / 3.0))
        and report.passed
        and len(report.subset_residuals) == 6
        and all(r < 1e-12 for r in report.subset_residuals.values())
        and elapsed < 1.0
    )
    assert _verdict(
        2,
        ok,
        f"9 amplitudes of 1/3 at the card positions, worst 2-party residual "
        f"{report.max_residual:.3e} in {elapsed:.3f}s",
    )


def test_criterion_03_pairwise_orthogonal_families():
    t0 = time.perf_counter()
    ok = True
    for q in (3, 4, 5, 7, 8, 9):
        squares = mols_construct(q)
        ok = ok and len(squares) == q - 1
        ok = ok and all(verify_latin(sq).passed for sq in squares)
        for i in range(len(squares)):
            for j in range(i + 1, len(squares)):
                pair = OrthogonalLatinPair(ranks=squares[i], suits=squares[j])
                ok = ok and verify_orthogonal_pair(pair).passed
    try:
        mols_construct(6)
        raised = False
    except NotAPrimePowerError:
        raised = True
    elapsed = time.perf_counter() - t0
    ok = ok and raised and elapsed < 5.0
    assert _verdict(
        3,
        ok,
        f"q-1 squares pairwise orthogonal for q in 3,4,5,7,8,9; order 6 "
        f"rejected; {elapsed:.2f}s",
    )


def test_criterion_04_order_36_search():
    config = SearchConfig(
        d=6,
        seed_kind="perturbed-permutation",
        rng_seed=0,
        epsilon=0.1,
        max_iter=5000,
        tol=1e-8,
    )
    t0 = time.perf_counter()
    runs, summary = multi_seed_search(config, 100)
    elapsed = time.perf_counter() - t0
    checks = []
    if summary.n_converged:
        best = min(runs, key=lambda r: float(r.defect_trace[-1]))
        defect = two_unitarity_defect(best.terminal)
        sq = square_from_unitary_rows(best.terminal)
        st = state_from_two_unitary(best.terminal)
        checks = [
            defect < 1e-8,
            qols_verify(sq, tol=1e-7).passed,
            ame_check(st, tol=1e-7).passed,
        ]
        iters = sorted(r.iterations_used for r in runs if r.converged)
        info = f"converged iterations min {iters[0]} max {iters[-1]}"
    else:
        info = "no converged runs"
    ok = summary.n_converged >= 1 and all(checks)
    assert _verdict(
        4,
        ok,
        f"{summary.n_converged}/100 converged at order 36, best terminal "
        f"defect {summary.best_defect:.4g}, {info}, {elapsed:.0f}s",
    ), (
        "no seed in this sweep reached a 2-unitary of order 36; the sweep "
        "configuration is reported as-is rather than tuned to pass"
    )


def test_criterion_05_order_four_frustration():
    config = SearchConfig(
        d=2,
        seed_kind="perturbed-permutation",
        rng_seed=0,
        epsilon=0.1,
        max_iter=10_000,
        tol=1e-10,
    )
    t0 = time.perf_counter()
    runs, summary = multi_seed_search(config, 100)
    elapsed = time.perf_counter() - t0
    min_observed = min(float(min(r.defect_trace)) for r in runs)
    ok = summary.n_converged == 0 and min_observed > 1e-3 and elapsed < 120.0
    assert _verdict(
        5,
        ok,
        f"0/100 converged at order 4, minimum observed defect "
        f"{min_observed:.6f} stays above 1e-3, {elapsed:.0f}s",
    )


def test_criterion_06_separable_distances():
    bell = PureState(
        dims=(2, 2), amplitudes=np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    )
    gen = PureState(
        dims=(3, 3),
        amplitudes=np.array([1, 0, 0, 0, 1, 0, 0, 0, 1], dtype=complex) / math.sqrt(3),
    )
    d_bell = closest_separable_distance(bell, (0,))
    d_gen = closest_separable_distance(gen, (0,))
    err_bell = abs(d_bell - math.pi / 4)
    err_gen = abs(d_gen - math.acos(1.0 / math.sqrt(3.0)))
    ok = err_bell <= 1e-12 and err_gen <= 1e-12
    assert _verdict(
        6,
        ok,
        f"two-qubit distance off by {err_bell:.2e}, two-qutrit by {err_gen:.2e}",
    )


def test_criterion_07_golden_amplitude_identities():
    err_ratio = abs(GOLDEN.b / GOLDEN.a - GOLDEN.phi)
    err_norm = abs(2.0 * (GOLDEN.a**2 + GOLDEN.b**2) - 1.0)
    ok = err_ratio <= 1e-15 and err_norm <= 1e-15
    assert _verdict(
        7,
        ok,
        f"b/a - phi = {err_ratio:.2e}, 2(a^2+b^2) - 1 = {err_norm:.2e}",
    )


def test_criterion_08_randomized_property_suites():
    worst = {
        "involutions": properties.check_reordering_involutions(n_cases=200),
        "flattenings": properties.check_flattening_identities(n_cases=200),
        "lu-invariance": properties.check_lu_invariance(n_cases=200, tol=1e-12),
        "polar": properties.check_polar_reconstruction(n_cases=200, tol=1e-10),
        "fixed-point": properties.check_defect_zero_preservation(
            n_cases=200, tol=1e-12
        ),
    }
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    assert _verdict(8, True, f"200 cases per suite, worst residuals: {detail}")


def test_criterion_09_representation_chain(classic_pair):
    t0 = time.perf_counter()
    pair_report = verify_orthogonal_pair(classic_pair)
    p9 = ols_to_permutation(classic_pair)
    defect = two_unitarity_defect(p9)
    psi = state_from_two_unitary(p9)
    state_report = ame_check(psi, tol=1e-12)
    sq = square_from_unitary_rows(p9)
    sq_report = qols_verify(sq, tol=1e-12)
    arr = qoa_from_qols(sq)
    arr_report = qoa_verify(arr, tol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = (
        pair_report.passed
        and pair_report.max_residual == 0.0
        and defect == 0.0
        and state_report.passed
        and sq_report.passed
        and arr_report.passed
        and arr.n_parties == 4
        and arr.n_classical == 2
        and arr.strength == 2
        and len(arr.states) == 9
        and elapsed < 5.0
    )
    assert _verdict(
        9,
        ok,
        "pair -> permutation (defect 0) -> 4-party state -> quantum square "
        f"-> quantum array all verified, worst float residual "
        f"{max(state_report.max_residual, sq_report.max_residual, arr_report.max_residual):.2e}, "
        f"{elapsed:.2f}s",
    )
