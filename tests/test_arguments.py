"""Each kind of argument has one check, and every entry point raises its error.

The kinds are integers (orders, party counts and party indices), tolerances
and party subsets; each test below holds inputs that an entry point used to
take silently or answer with a bare numpy or Python error.
"""

import math

import numpy as np
import pytest

from qeuler import (
    DimensionError,
    FormatError,
    NumericError,
    PureState,
    SearchConfig,
    ame_check,
    amplitude_profile,
    closest_separable_distance,
    cyclic_latin,
    flattenings,
    k_uniform_check,
    multi_seed_search,
    multi_unitarity_check,
    partial_transpose,
    permutation_to_ols,
    qls_verify,
    reduced_density,
    reshuffle,
    schmidt_decompose,
    sinkhorn_step,
    square_from_unitary_rows,
    state_from_two_unitary,
    two_unitarity_defect,
)
from qeuler.jsonio import matrix_to_json


def ghz():
    amps = np.zeros(8)
    amps[0] = amps[7] = 1 / math.sqrt(2)
    return PureState(dims=(2, 2, 2), amplitudes=amps)


@pytest.mark.parametrize(
    "call, parties",
    [
        (reduced_density, [0.5]),
        (reduced_density, [1.9]),
        (schmidt_decompose, [0.7, 1.2]),
        (closest_separable_distance, [2.5]),
        (reduced_density, [True]),
    ],
)
def test_party_indices_must_be_integers(call, parties):
    # int(q) used to truncate each index: these ran on parties 0, 1, (0, 1)
    # and 2, and True on party 1
    with pytest.raises(ValueError, match="party must be an int"):
        call(ghz(), parties)
    call(ghz(), [np.int64(1)])  # numpy integers pass


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: cyclic_latin(True), DimensionError),
        (lambda: multi_seed_search(SearchConfig(d=2, max_iter=1), True), ValueError),
        (lambda: PureState(dims=(True, 2), amplitudes=[1, 0]), DimensionError),
        (lambda: k_uniform_check(ghz(), True), ValueError),
        (lambda: multi_unitarity_check(np.eye(4), True, 2), DimensionError),
        (lambda: matrix_to_json(np.eye(1), block_dim=True), FormatError),
    ],
    ids=[
        "cyclic_latin",
        "multi_seed_search",
        "PureState",
        "k_uniform_check",
        "multi_unitarity",
        "matrix_to_json",
    ],
)
def test_bools_are_not_integers(call, error):
    # True used to pass as 1: cyclic_latin(True) was [[0]], the sweep ran one
    # seed and the state had dims (1, 2); a JSON record said "block_dim": true
    with pytest.raises(error, match="must be an int"):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: multi_unitarity_check(np.eye(4), -2, 2), DimensionError, "axes of length -2"),
        (lambda: multi_unitarity_check(np.zeros(0), 0, 2), DimensionError, "axes of length 0"),
        (lambda: multi_unitarity_check(np.eye(4), 2.0, 2), DimensionError, "dim must be an int"),
        (lambda: multi_unitarity_check(np.eye(4), 2, 2.0), DimensionError, "half_order must be"),
        (lambda: k_uniform_check(ghz(), 1.5), ValueError, "k must be an int"),
    ],
)
def test_malformed_counts_raise_the_documented_error(call, error, message):
    # these used to raise numpy's bare ValueError from a reshape, or a bare
    # TypeError from range()
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: amplitude_profile(np.eye(3), tol=tol),
        lambda tol: amplitude_profile(np.zeros((2, 2)), tol=tol),
        lambda tol: schmidt_decompose(ghz(), [0], rank_tol=tol),
    ],
    ids=["amplitude_profile-eye", "amplitude_profile-zeros", "schmidt_decompose"],
)
def test_tolerances_must_be_finite_and_nonnegative(call, tol):
    # a NaN tolerance used to drop every magnitude, and give rank 0; a
    # negative one kept the zeros as four groups of (0.0, 1)
    with pytest.raises(ValueError, match="must be a finite number >= 0"):
        call(tol)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ame_check(ghz(), tol="1e-3"), "tol must be a finite number >= 0"),
        (lambda: qls_verify(square_from_unitary_rows(np.eye(4)), tol=None), "tol must be"),
        (lambda: amplitude_profile(np.eye(3), tol="x"), "tol must be a finite number >= 0"),
        (lambda: multi_unitarity_check(np.eye(9), 3, 2, tol=[1]), "tol must be"),
        (lambda: schmidt_decompose(ghz(), [0], rank_tol=1j), "rank_tol must be"),
        (lambda: SearchConfig(d=2, epsilon="0.1"), "epsilon must be a finite number >= 0"),
        (lambda: SearchConfig(d=2, tol=None), "tol must be a finite number > 0"),
        (lambda: SearchConfig(d=2, tol=True), "tol must be a finite number > 0"),
        (lambda: qls_verify(square_from_unitary_rows(np.eye(4)), tol=True), "tol must be"),
        (lambda: SearchConfig(d=2, epsilon=False), "epsilon must be a finite number >= 0"),
        (lambda: ame_check(ghz(), tol=np.False_), "tol must be a finite number >= 0"),
    ],
    ids=[
        "ame_check", "qls_verify", "amplitude_profile", "multi_unitarity_check",
        "schmidt_decompose", "SearchConfig-epsilon", "SearchConfig-tol",
        "SearchConfig-tol-True", "qls_verify-True", "SearchConfig-epsilon-False",
        "ame_check-False",
    ],
)
def test_tolerances_that_are_not_numbers_are_value_errors(call, message):
    # these used to raise a bare TypeError from math.isfinite; a bool passed
    # as 1 or 0, so a search config stored tol True and wrote "tol": true
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: two_unitarity_defect(np.zeros((0, 0))),
        lambda: sinkhorn_step(np.zeros((0, 0))),
        lambda: reshuffle(np.zeros((0, 0))),
        lambda: partial_transpose(np.zeros((0, 0))),
        lambda: flattenings(np.zeros((0,) * 4)),
        lambda: state_from_two_unitary(np.zeros((0, 0))),
        lambda: permutation_to_ols(np.zeros((0, 0))),
        lambda: square_from_unitary_rows(np.zeros((0, 0))),
    ],
    ids=[
        "two_unitarity_defect", "sinkhorn_step", "reshuffle", "partial_transpose",
        "flattenings", "state_from_two_unitary", "permutation_to_ols",
        "square_from_unitary_rows",
    ],
)
def test_order_zero_is_not_a_bipartite_order(call):
    # 0 = 0 * 0, so block_dim used to return d = 0 and these raised numpy's
    # bare ValueError from a reshape, a max or an argmax
    with pytest.raises(DimensionError, match="order 0 is not the square of a positive"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: amplitude_profile(np.array([[np.nan, 1.0]])),
        lambda: amplitude_profile(np.array([[np.inf, -np.inf]])),
        lambda: amplitude_profile(np.array([[1.0, complex(0, np.nan)]])),
    ],
    ids=[
        "amplitude_profile-nan", "amplitude_profile-inf", "amplitude_profile-complex-nan",
    ],
)
def test_non_finite_matrices_are_numeric_errors(call):
    # amplitude_profile used to drop a NaN and answer [(1.0, 1)], and two
    # infinities raised a bare RuntimeWarning from np.diff
    with pytest.raises(NumericError, match="matrix has non-finite entries"):
        call()
