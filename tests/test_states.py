import itertools
import math
import warnings

import numpy as np
import pytest

from qeuler import (
    DimensionError,
    InvalidDesignError,
    NumericError,
    OrthogonalLatinPair,
    PureState,
    ame_check,
    ame_from_ols,
    closest_separable_distance,
    cyclic_latin,
    entanglement_entropy,
    k_uniform_check,
    mols_construct,
    multi_unitarity_check,
    reduced_density,
    schmidt_decompose,
    state_from_two_unitary,
    two_unitarity_defect,
)
from qeuler import linalg

import frozen
import oracles
import properties
from conftest import random_state_vector, random_unitary


def bell():
    return PureState(dims=(2, 2), amplitudes=np.array([1, 0, 0, 1]) / math.sqrt(2))


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(dims=(2, 2), amplitudes=np.ones(4))  # norm 2
    with pytest.raises(DimensionError):
        PureState(dims=(2, 2), amplitudes=np.array([1.0, 0.0]))
    with pytest.raises(DimensionError):
        PureState(dims=(), amplitudes=np.array([1.0]))
    with pytest.raises(DimensionError):
        PureState(dims=(2, 0), amplitudes=np.array([]))
    with pytest.raises(NumericError):
        PureState(dims=(2,), amplitudes=np.array([np.nan, 0.0]))


def test_pure_state_takes_integer_party_dimensions_only():
    amps = np.ones(4) / 2
    for dims in [(2.7, 2), ("2", 2), (2.0, 2), (None, 2)]:
        with pytest.raises(DimensionError, match="must be an int"):
            PureState(dims=dims, amplitudes=amps)
    psi = PureState(dims=(np.int64(2), np.int32(2)), amplitudes=amps)
    assert psi.dims == (2, 2)
    assert all(type(d) is int for d in psi.dims)


def test_pure_state_rejects_norm_overflow_as_not_normalized():
    # finite amplitudes whose norm overflows are simply not a unit vector
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not normalized"):
            PureState(dims=(2,), amplitudes=np.array([1e200, 0.0]))
        with pytest.raises(NumericError, match="non-finite"):
            PureState(dims=(2,), amplitudes=np.array([1e200, np.inf]))


# ---------------------------------------------------------------------------
# Schmidt data


def test_bell_state_schmidt_spectrum():
    s = schmidt_decompose(bell(), (0,))
    assert np.allclose(s.lambdas, [0.5, 0.5], atol=1e-15)
    assert s.rank == 2
    assert entanglement_entropy(s) == pytest.approx(math.log(2), abs=1e-12)


def test_product_state_has_rank_one():
    psi = PureState(dims=(2, 2), amplitudes=np.array([1.0, 0, 0, 0]))
    s = schmidt_decompose(psi, (0,))
    assert np.allclose(s.lambdas, [1.0, 0.0], atol=1e-15)
    assert s.rank == 1
    assert entanglement_entropy(s) == 0.0


def test_hadamard_coefficient_state():
    # amplitudes proportional to the 2x2 Hadamard matrix: maximally entangled
    amps = np.array([1, 1, 1, -1]) / 2.0
    s = schmidt_decompose(PureState(dims=(2, 2), amplitudes=amps), (0,))
    assert np.allclose(s.lambdas, [0.5, 0.5], atol=1e-15)
    assert entanglement_entropy(s) == pytest.approx(math.log(2), abs=1e-12)


def test_uniform_spectrum_entropy_is_log_three():
    s = schmidt_decompose(
        PureState(dims=(3, 3), amplitudes=np.eye(3).ravel() / math.sqrt(3)), (0,)
    )
    assert entanglement_entropy(s) == pytest.approx(math.log(3), abs=1e-12)


def test_schmidt_spectrum_matches_density_oracle(rng):
    dims = (3, 4)
    amps = random_state_vector(12, rng)
    s = schmidt_decompose(PureState(dims=dims, amplitudes=amps), (0,))
    expected = oracles.schmidt_lambdas_by_density(amps, dims, (0,))
    assert np.allclose(np.sort(s.lambdas), np.sort(expected[:3]), atol=1e-12)
    assert s.lambdas.sum() == pytest.approx(1.0, abs=1e-12)


def test_schmidt_split_validation():
    with pytest.raises(ValueError):
        schmidt_decompose(bell(), ())
    with pytest.raises(ValueError):
        schmidt_decompose(bell(), (0, 1))
    with pytest.raises(ValueError):
        schmidt_decompose(bell(), (3,))


# ---------------------------------------------------------------------------
# reductions


def test_bell_reductions_are_maximally_mixed():
    for keep in ((0,), (1,)):
        rho = reduced_density(bell(), keep)
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-15)


def test_reduced_density_matches_loop_oracle(rng):
    dims = (2, 3, 2)
    amps = random_state_vector(12, rng)
    psi = PureState(dims=dims, amplitudes=amps)
    for keep in ((0,), (1,), (2,), (0, 2), (1, 2)):
        rho = reduced_density(psi, keep)
        expected = oracles.reduced_density_by_loops(amps, dims, keep)
        assert np.allclose(rho, expected, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_tracing_out_in_stages_matches_direct(rng):
    dims = (2, 2, 3)
    psi = PureState(dims=dims, amplitudes=random_state_vector(12, rng))
    direct = reduced_density(psi, (0,))
    rho_01 = reduced_density(psi, (0, 1))
    # trace the second factor out of the two-party density by hand
    staged = rho_01.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    assert np.allclose(direct, staged, atol=1e-12)


def test_reduced_density_subset_validation():
    with pytest.raises(ValueError):
        reduced_density(bell(), ())
    with pytest.raises(ValueError):
        reduced_density(bell(), (0, 0))
    with pytest.raises(ValueError):
        reduced_density(bell(), (5,))


def test_one_unfolding_is_transposed_not_gathered(monkeypatch, rng):
    # reduced_density and schmidt_decompose build and cache no gather index,
    # and give the bits of the gathered unfolding
    psi = PureState(dims=(2, 3, 2, 3), amplitudes=random_state_vector(36, rng))
    sides = [(0,), (1,), (3,), (0, 1), (0, 2), (1, 3), (0, 1, 2), (1, 2, 3)]
    gathered = [linalg._unfoldings(psi.tensor(), [side])[0] for side in sides]

    def no_index(shape, row_sets):
        raise AssertionError(f"built an unfolding index for {row_sets}")

    monkeypatch.setattr(linalg, "_unfolding_index", no_index)
    for side, mat in zip(sides, gathered):
        rho = reduced_density(psi, side)
        want = mat @ np.conj(mat.T)
        assert rho.shape == want.shape and rho.tobytes() == want.tobytes(), side
        got = schmidt_decompose(psi, side)
        u, s, vh = np.linalg.svd(mat, full_matrices=True)
        for a, b in ((got.lambdas, s**2), (got.left_basis, u), (got.right_basis, vh.T)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), side


# ---------------------------------------------------------------------------
# uniformity checks


def ghz():
    amps = np.zeros(8)
    amps[0] = amps[7] = 1 / math.sqrt(2)
    return PureState(dims=(2, 2, 2), amplitudes=amps)


def test_ghz_is_one_uniform():
    report = k_uniform_check(ghz(), 1)
    assert report.passed
    assert len(report.subset_residuals) == 3


def test_product_state_is_not_two_uniform():
    amps = np.zeros(16)
    amps[0] = 1.0
    report = k_uniform_check(PureState(dims=(2,) * 4, amplitudes=amps), 2)
    assert not report.passed
    assert report.max_residual > 0.5


def test_k_range_validation():
    with pytest.raises(ValueError):
        k_uniform_check(ghz(), 2)  # floor(3/2) = 1
    with pytest.raises(ValueError):
        k_uniform_check(ghz(), 0)


def test_ame_check_rejects_mixed_dimensions():
    psi = PureState(dims=(2, 3), amplitudes=np.array([1.0] + [0.0] * 5))
    with pytest.raises(DimensionError):
        ame_check(psi)


def test_ame_check_odd_party_count_is_flagged():
    report = ame_check(ghz())
    assert report.passed
    assert report.k == 1
    assert "odd" in report.note


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _marginal_residuals_by_loops(psi, subsets):
    out = {}
    for keep in subsets:
        rho = oracles.reduced_density_by_loops(psi.amplitudes, psi.dims, keep)
        out[keep] = float(np.linalg.norm(rho - np.eye(len(rho)) / len(rho)))
    return out


def _assert_matches_loops(report, want):
    # same subsets in the same order, residuals within rounding, the first
    # worst subset named
    assert list(report.subset_residuals) == list(want)
    for keep, value in want.items():
        got = report.subset_residuals[keep]
        assert type(got) is float
        assert _close(got, value), keep
    assert report.max_residual == report.subset_residuals[report.worst_subset]
    assert report.worst_subset == max(
        report.subset_residuals, key=report.subset_residuals.get
    )
    assert report.passed == (report.max_residual <= report.tol)


@pytest.mark.parametrize(
    "dims, k",
    [((2, 3), 1), ((2, 3, 2), 1), ((3, 2, 2, 3), 2), ((2, 3, 2, 3, 2), 2), ((2,) * 5, 1)],
)
def test_k_uniform_check_matches_loop_oracle(dims, k, rng):
    # unequal dimensions give marginals of several shapes
    total = math.prod(dims)
    for amps in (random_state_vector(total, rng), np.eye(total)[0]):
        psi = PureState(dims=dims, amplitudes=amps)
        subsets = list(itertools.combinations(range(len(dims)), k))
        _assert_matches_loops(
            k_uniform_check(psi, k), _marginal_residuals_by_loops(psi, subsets)
        )


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 4), (2, 5), (2, 6)])
def test_ame_check_matches_loop_oracle(d, n, rng):
    k = n // 2
    if n % 2:
        subsets = list(itertools.combinations(range(n), k))
    else:
        subsets = [(0,) + rest for rest in itertools.combinations(range(1, n), k - 1)]
    states = [random_state_vector(d**n, rng)]
    if n == 4:
        u = random_unitary(d * d, rng)
        states += [state_from_two_unitary(u).amplitudes]
    for amps in states:
        psi = PureState(dims=(d,) * n, amplitudes=amps)
        _assert_matches_loops(ame_check(psi), _marginal_residuals_by_loops(psi, subsets))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
def test_uniformity_checks_reject_malformed_tolerances(tol):
    with pytest.raises(ValueError, match="tol"):
        ame_check(bell(), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        k_uniform_check(ghz(), 1, tol=tol)


def test_uniformity_checks_accept_zero_tolerance():
    # amplitudes +-1/2 make the marginals exactly I/2 in floating point
    psi = PureState(dims=(2, 2), amplitudes=np.array([1, 1, 1, -1]) / 2)
    report = ame_check(psi, tol=0.0)
    assert report.max_residual == 0.0
    assert report.passed


# ---------------------------------------------------------------------------
# four-party constructions


def test_classic_pair_state_amplitudes_and_uniformity(classic_pair):
    psi = ame_from_ols(classic_pair)
    assert psi.dims == (3, 3, 3, 3)
    nonzero = np.flatnonzero(psi.amplitudes)
    assert list(nonzero) == frozen.AME33_NONZERO
    assert np.allclose(psi.amplitudes[nonzero], 1 / 3, atol=1e-15)
    assert np.array_equal(
        psi.amplitudes,
        oracles.ame4_amplitudes_by_loops(classic_pair.ranks, classic_pair.suits),
    )
    report = k_uniform_check(psi, 2, tol=1e-12)
    assert report.passed
    assert len(report.subset_residuals) == 6
    ame = ame_check(psi)
    assert ame.passed
    # the pair-of-parties reduction is exactly flat
    assert np.allclose(reduced_density(psi, (0, 2)), np.eye(9) / 9, atol=1e-12)


def test_ame_from_field_constructed_pairs():
    for q in (4, 5):
        squares = mols_construct(q)
        pair = OrthogonalLatinPair(ranks=squares[0], suits=squares[1])
        report = ame_check(ame_from_ols(pair), tol=1e-12)
        assert report.passed, f"q={q}"


def test_ame_from_ols_equals_the_loop_amplitudes(field_pair):
    psi = ame_from_ols(field_pair)
    want = oracles.ame4_amplitudes_by_loops(field_pair.ranks, field_pair.suits)
    assert psi.dims == (field_pair.d,) * 4
    assert psi.amplitudes.dtype == want.dtype
    assert np.array_equal(psi.amplitudes, want)


def test_ame_from_ols_rejects_invalid_pairs():
    sq = cyclic_latin(3)
    with pytest.raises(InvalidDesignError):
        ame_from_ols(OrthogonalLatinPair(ranks=sq, suits=sq))


def test_state_from_two_unitary_p9(p9):
    psi = state_from_two_unitary(p9)
    assert ame_check(psi, tol=1e-12).passed
    # rows of the matrix are the cell contents: same state as the design route
    assert psi.dims == (3, 3, 3, 3)


def test_state_from_identity_fails_ame():
    psi = state_from_two_unitary(np.eye(4))
    report = ame_check(psi)
    assert not report.passed


def test_no_order_four_permutation_gives_ame():
    # exhausts all 24 permutation-encoded four-qubit states
    for perm in itertools.permutations(range(4)):
        u = np.zeros((4, 4))
        u[list(perm), np.arange(4)] = 1.0
        assert not ame_check(state_from_two_unitary(u)).passed


def test_ame_pass_tracks_two_unitarity_on_order_nine_samples(rng, p9):
    samples = [p9.astype(float)]
    for _ in range(6):
        perm = rng.permutation(9)
        u = np.zeros((9, 9))
        u[perm, np.arange(9)] = 1.0
        samples.append(u)
    for u in samples:
        expected = two_unitarity_defect(u) <= 1e-8
        assert ame_check(state_from_two_unitary(u), tol=1e-8).passed == expected


@pytest.mark.parametrize("d, seed", [(2, 401), (3, 402), (4, 403), (6, 404)])
def test_two_unitarity_defects_are_the_ame_residuals_of_a_unitary(d, seed):
    # the paper's equivalence away from a solution: for a unitary u the
    # three unitarity defects of its balanced unfoldings are d**2 times the
    # flatness residuals of the marginals on (0,1), (0,2) and (0,3) of the
    # state whose coefficients are u / d
    u = random_unitary(d * d, np.random.default_rng(seed))
    report = multi_unitarity_check(u, d, 2)
    ame = ame_check(state_from_two_unitary(u))
    assert [rows for rows, _ in report.defects] == list(ame.subset_residuals)
    assert list(ame.subset_residuals) == [(0, 1), (0, 2), (0, 3)]
    for (_, defect), residual in zip(report.defects, ame.subset_residuals.values()):
        assert defect == pytest.approx(d**2 * residual, rel=1e-12)
    assert two_unitarity_defect(u) == report.max_defect


def test_state_from_two_unitary_normalizes_and_rejects_zero():
    psi = state_from_two_unitary(2 * np.eye(4))
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NumericError):
        state_from_two_unitary(np.zeros((4, 4)))


def test_state_from_two_unitary_rejects_non_finite_entries():
    for scale in (1.0, 1e200):  # 1e200: the norm overflows before the inf shows
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
            u = scale * np.eye(4, dtype=complex)
            u[0, 1] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError, match="non-finite"):
                    state_from_two_unitary(u)


@pytest.mark.parametrize(
    "size, phase",
    [(1e200, 1), (1e308, -1), (1.7e308, 1 + 1j), (1e-160, 1j), (1e-200, 1), (5e-324, 1)],
)
def test_state_from_two_unitary_normalizes_whatever_the_scale(size, phase):
    # the Frobenius norm of these finite matrices overflows or underflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = state_from_two_unitary(size * phase * np.eye(4))
    want = state_from_two_unitary(phase * np.eye(4)).amplitudes
    assert np.abs(psi.amplitudes - want).max() <= 1e-16
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_state_from_two_unitary_is_the_checked_constructor(d, rng):
    n = d * d
    for u in (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        random_unitary(n, rng),
    ):
        got = state_from_two_unitary(u)
        want = PureState(dims=(d,) * 4, amplitudes=u.reshape(-1) / np.linalg.norm(u))
        assert got.dims == want.dims == (d, d, d, d)
        assert all(type(q) is int for q in got.dims)
        assert got.amplitudes.ndim == 1
        assert got.amplitudes.dtype == want.amplitudes.dtype == complex
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


# ---------------------------------------------------------------------------
# distances


def test_bell_distance_is_quarter_pi():
    assert closest_separable_distance(bell(), (0,)) == pytest.approx(
        math.pi / 4, abs=1e-12
    )


def test_generalized_bell_distance_order_three():
    psi = PureState(dims=(3, 3), amplitudes=np.eye(3).ravel() / math.sqrt(3))
    assert closest_separable_distance(psi, (0,)) == pytest.approx(
        math.acos(1 / math.sqrt(3)), abs=1e-12
    )


def test_separable_state_distance_is_zero():
    psi = PureState(dims=(2, 2), amplitudes=np.array([1.0, 0, 0, 0]))
    assert closest_separable_distance(psi, (0,)) == 0.0


def test_entropy_bounds_on_random_states(rng):
    for _ in range(50):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        psi = PureState(
            dims=(da, db), amplitudes=random_state_vector(da * db, rng)
        )
        s = entanglement_entropy(schmidt_decompose(psi, (0,)))
        assert -1e-12 <= s <= math.log(min(da, db)) + 1e-12


def test_local_unitary_invariance_suite():
    worst = properties.check_lu_invariance(200)
    assert worst <= 1e-12
