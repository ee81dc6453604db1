import itertools
import math

import numpy as np
import pytest

from qeuler import (
    CapabilityError,
    DimensionError,
    NumericError,
    block_dim,
    flattenings,
    multi_unitarity_check,
    partial_transpose,
    polar_decompose,
    reshuffle,
    two_unitarity_defect,
    unitarity_defect,
)

from qeuler import linalg
from qeuler.linalg import _subsets, _subtract_diagonal, gram_defect

import frozen
import oracles
import properties
from conftest import random_unitary


# ---------------------------------------------------------------------------
# reorderings on the counting matrix, frozen entry by entry


def test_reshuffle_counting_matrix():
    assert np.array_equal(reshuffle(frozen.COUNT_4), frozen.RESHUFFLE_COUNT_4)


def test_reshuffle_dual_counting_matrix():
    assert np.array_equal(
        reshuffle(frozen.COUNT_4, dual=True), frozen.RESHUFFLE_COUNT_4_DUAL
    )


def test_partial_transpose_counting_matrix_both_sides():
    assert np.array_equal(
        partial_transpose(frozen.COUNT_4), frozen.PT_COUNT_4_SECOND
    )
    assert np.array_equal(
        partial_transpose(frozen.COUNT_4, side="first"), frozen.PT_COUNT_4_FIRST
    )


def test_partial_transpose_rejects_unknown_side():
    with pytest.raises(ValueError):
        partial_transpose(frozen.COUNT_4, side="third")


def test_reorderings_match_entrywise_enumeration(rng):
    for d in (2, 3, 6):
        m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal(
            (d * d, d * d)
        )
        assert np.array_equal(reshuffle(m), oracles.reshuffle_by_enumeration(m, d))
        assert np.array_equal(
            reshuffle(m, dual=True), oracles.reshuffle_by_enumeration(m, d, dual=True)
        )
        assert np.array_equal(
            partial_transpose(m), oracles.partial_transpose_by_enumeration(m, d)
        )
        assert np.array_equal(
            partial_transpose(m, side="first"),
            oracles.partial_transpose_by_enumeration(m, d, side="first"),
        )


def test_reshuffle_commutes_with_scaling(rng):
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    alpha = complex(rng.standard_normal(), rng.standard_normal())
    assert np.allclose(reshuffle(alpha * m), alpha * reshuffle(m), atol=0, rtol=1e-15)


def test_block_dim_accepts_square_orders_only():
    assert block_dim(np.eye(4)) == 2
    assert block_dim(np.eye(36)) == 6
    with pytest.raises(DimensionError):
        block_dim(np.eye(3))  # order is not a perfect square
    with pytest.raises(DimensionError):
        block_dim(np.zeros((4, 9)))


# ---------------------------------------------------------------------------
# flattenings


def test_flattenings_small_tensor_by_enumeration(rng):
    for d in (2, 3):
        t = rng.standard_normal((d,) * 4) + 1j * rng.standard_normal((d,) * 4)
        x, y, z = flattenings(t)
        ox, oy, oz = oracles.flattenings_by_enumeration(t)
        assert np.array_equal(x, ox)
        assert np.array_equal(y, oy)
        assert np.array_equal(z, oz)
        # the first flattening is just the row-major reshape
        assert np.array_equal(x, t.reshape(d * d, d * d))


def test_flattenings_reject_non_tensor_input():
    with pytest.raises(DimensionError):
        flattenings(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionError):
        flattenings(np.zeros((2, 2, 2, 3)))


# ---------------------------------------------------------------------------
# polar decomposition


def test_polar_factors_of_random_matrix(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    f = polar_decompose(m)
    assert np.allclose(f.positive_part @ f.unitary_part, m, atol=1e-12)
    assert unitarity_defect(f.unitary_part) <= 1e-13
    assert np.allclose(f.positive_part, f.positive_part.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(f.positive_part).min() >= -1e-12


def test_polar_of_unitary_is_itself(rng):
    u = random_unitary(9, rng)
    f = polar_decompose(u)
    assert np.allclose(f.unitary_part, u, atol=1e-12)
    assert np.allclose(f.positive_part, np.eye(9), atol=1e-12)


def test_polar_of_rank_deficient_diagonal():
    m = np.diag([2.0, 0.0])
    f = polar_decompose(m)
    # the factorization still holds and the unitary factor is exactly unitary
    assert np.allclose(f.positive_part @ f.unitary_part, m, atol=1e-14)
    assert unitarity_defect(f.unitary_part) <= 1e-14


def test_polar_rejects_bad_input():
    with pytest.raises(DimensionError):
        polar_decompose(np.zeros((2, 3)))
    with pytest.raises(NumericError):
        polar_decompose(np.array([[1.0, np.nan], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# defects


def test_unitarity_defect_of_zero_matrix_is_root_n():
    for n in (2, 4, 9):
        assert unitarity_defect(np.zeros((n, n))) == math.sqrt(n)


def test_unitarity_defect_examples():
    assert unitarity_defect(np.eye(5)) == 0.0
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    assert unitarity_defect(h) <= 1e-15
    assert unitarity_defect(2 * np.eye(3)) == pytest.approx(3 * math.sqrt(3))  # |4I-I|_F


def test_unitarity_defect_exact_on_permutations(p9):
    # a float Gram product of 0/1 entries is exact, so the zero is not rounded
    assert unitarity_defect(p9) == 0.0
    assert two_unitarity_defect(p9) == 0.0


@pytest.mark.parametrize("n", [4, 9, 36, 144])
def test_binary_defects_equal_integer_arithmetic(n, rng):
    d = math.isqrt(n)
    perm = np.zeros((n, n), dtype=np.int64)
    perm[rng.permutation(n), np.arange(n)] = 1
    cases = [perm] + [
        (rng.random((n, n)) < density).astype(np.int64) for density in (0.05, 0.5)
    ]
    for b in cases:
        want = oracles.unitarity_defect_by_integers(b)
        want2 = max(
            want,
            oracles.unitarity_defect_by_integers(oracles.reshuffle_by_enumeration(b, d)),
            oracles.unitarity_defect_by_integers(
                oracles.partial_transpose_by_enumeration(b, d)
            ),
        )
        for dtype in (np.int64, float, complex):
            m = b.astype(dtype)
            assert unitarity_defect(m) == want
            assert two_unitarity_defect(m) == want2
    assert unitarity_defect(perm) == 0.0


def test_unitarity_defect_invariant_under_unitaries(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    base = unitarity_defect(m)
    for _ in range(20):
        u = random_unitary(4, rng)
        v = random_unitary(4, rng)
        assert abs(unitarity_defect(u @ m @ v) - base) <= 1e-12


def test_unitarity_defect_rejects_bad_input():
    with pytest.raises(DimensionError):
        unitarity_defect(np.zeros((2, 3)))
    with pytest.raises(NumericError):
        unitarity_defect(np.full((2, 2), np.inf))


def test_gram_defect_is_the_norm_formula_bit_for_bit(rng):
    # the search's traces come from gram_defect, so its bits must not move
    for shape in ((4, 4), (9, 9), (3, 9, 9), (36, 36), (2, 5, 16, 16), (7, 4)):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g = m.conj().swapaxes(-1, -2) @ m
        want = np.linalg.norm(g - np.eye(shape[-1]), axis=(-2, -1))
        got = gram_defect(m)
        assert np.array_equal(got, want)
        if m.ndim == 2:
            assert type(got) is float


@pytest.mark.parametrize(
    "shape, row_sets, c",
    [
        # balanced unfoldings of an order-9 matrix, unitarity: c = 1
        ((3, 3, 3, 3), [(0, 1), (0, 2), (0, 3)], 1.0),
        # two-party marginals of a state of unequal parties, c = 1/dk
        ((2, 3, 2, 3), [(0, 1), (0, 3), (1, 2), (2, 3)], 1 / 6),
        ((2, 3, 4), [(2,)], 1 / 4),
        # qoa_verify's marginals with the run axis 0 among the columns,
        # c = runs / levels**k
        ((9, 3, 3, 3, 3), list(itertools.combinations(range(1, 5), 2)), 9 / 3**2),
        # the balanced unfoldings of two_unitarity_defect and
        # multi_unitarity_check, c = 1
        ((4, 4, 4, 4), _subsets(4, 2, True), 1.0),
        ((3,) * 6, _subsets(6, 3, True), 1.0),
    ],
)
def test_marginal_defects_are_the_row_gram_formula_bit_for_bit(
    shape, row_sets, c, rng, monkeypatch
):
    # _marginal_defects takes the Gram defect of each transposed unfolding;
    # it must keep the bits of ||M M* - c I|| over the unfoldings M
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = []
    for rows in row_sets:
        cols = tuple(q for q in range(t.ndim) if q not in rows)
        m = t.transpose(rows + cols).reshape(math.prod(shape[q] for q in rows), -1)
        g = m @ m.conj().T
        want.append(np.linalg.norm(g - c * np.eye(len(g)), axis=(-2, -1)).hex())
    for limit in (0, len(row_sets) * t.size):  # one at a time, then gathered
        monkeypatch.setattr(linalg, "_STACK_LIMIT", limit)
        got = linalg._marginal_defects(t, row_sets, c).tolist()
        assert [x.hex() for x in got] == want


def test_subtract_diagonal_is_the_identity_subtraction_bit_for_bit(rng):
    for shape in ((4, 4), (3, 9, 9), (2, 5, 16, 16), (6, 36, 36)):
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for c in (1.0, 1 / 9):
            got = g.copy()
            _subtract_diagonal(got, c)
            assert got.tobytes() == (g - c * np.eye(shape[-1])).tobytes()


def test_gram_defect_of_a_gathered_stack_of_unitaries(rng):
    # unitaries picked out of a stack by a fancy index can have a Gram
    # product that is not C-contiguous; the identity must still come off its
    # diagonal, as it does in any layout
    q = np.stack([random_unitary(9, rng) for _ in range(6)])
    picked = q.reshape(2, 3, 81)[:, np.array([0, 1, 2])].reshape(2, 3, 9, 9)
    assert np.all(gram_defect(picked) <= 1e-13)
    g = rng.standard_normal((4, 6, 6)).swapaxes(-1, -2).copy(order="K")
    want = (g - np.eye(6)).tobytes()
    _subtract_diagonal(g, 1.0)
    assert g.tobytes() == want


def test_subsets_are_built_once_in_lexicographic_order():
    balanced = _subsets(6, 3, with_first=True)
    assert balanced is _subsets(6, 3, with_first=True)
    assert balanced == tuple(
        rows for rows in itertools.combinations(range(6), 3) if rows[0] == 0
    )
    assert _subsets(5, 2) == tuple(itertools.combinations(range(5), 2))


def test_two_unitarity_defect_of_identity_and_swap():
    # both are unitary, but their reorderings have rank d instead of d*d
    swap = np.zeros((4, 4), dtype=np.int64)
    swap[0, 0] = swap[1, 2] = swap[2, 1] = swap[3, 3] = 1
    assert two_unitarity_defect(np.eye(4, dtype=np.int64)) == math.sqrt(12)
    assert two_unitarity_defect(swap) == math.sqrt(12)


def test_p9_reorderings_stay_two_unitary(p9):
    assert two_unitarity_defect(partial_transpose(reshuffle(p9))) == 0.0
    assert two_unitarity_defect(reshuffle(p9, dual=True)) == 0.0


# ---------------------------------------------------------------------------
# multi-unitarity report


def test_multi_unitarity_of_identity_tensor():
    report = multi_unitarity_check(np.eye(4), dim=2, half_order=2)
    assert not report.passed
    rows = [axes for axes, _ in report.defects]
    assert rows == [(0, 1), (0, 2), (0, 3)]
    defects = [v for _, v in report.defects]
    assert defects[0] == 0.0  # plain unfolding is the identity
    assert defects[1] == math.sqrt(12)  # middle unfolding collapses
    assert defects[2] == 0.0  # outer unfolding is again a permutation
    assert report.max_defect == math.sqrt(12)


def test_multi_unitarity_of_perfect_order_nine_permutation(p9):
    report = multi_unitarity_check(p9, dim=3, half_order=2)
    assert report.passed
    assert report.max_defect == 0.0
    assert len(report.defects) == 3


def test_multi_unitarity_half_order_three_lists_ten_unfoldings(rng):
    t = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    report = multi_unitarity_check(t, dim=2, half_order=3)
    assert len(report.defects) == 10
    assert all(axes[0] == 0 and len(axes) == 3 for axes, _ in report.defects)
    assert not report.passed  # a random tensor is nowhere near unitary


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _defects_by_unfolding(t, dim, half_order):
    """Float Gram defect of each unfolding, unfolded entry by entry."""
    n_axes = 2 * half_order
    out = []
    for rows in itertools.combinations(range(n_axes), half_order):
        if rows[0] == 0:
            m = oracles.unfolding_by_row_axes(t, dim, n_axes, rows)
            g = m.conj().T @ m - np.eye(m.shape[1])
            out.append((rows, math.sqrt(float(np.sum(np.abs(g) ** 2)))))
    return out


@pytest.mark.parametrize("dim, half_order", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_multi_unitarity_matches_unfolding_oracle(dim, half_order, rng):
    n = dim**half_order
    size = n * n
    cases = [
        rng.standard_normal(size) + 1j * rng.standard_normal(size),
        random_unitary(n, rng),
        np.eye(n),
    ]
    for t in cases:
        report = multi_unitarity_check(t, dim, half_order)
        want = _defects_by_unfolding(t, dim, half_order)
        assert [rows for rows, _ in report.defects] == [rows for rows, _ in want]
        for (_, got), (_, value) in zip(report.defects, want):
            assert type(got) is float
            assert _close(got, value)
        assert report.passed == (max(v for _, v in want) <= 1e-10)


def test_multi_unitarity_is_exact_on_binary_tensors(p9, rng):
    # every unfolding of a 0/1 tensor gets its integer defect, so the
    # unfoldings that are permutations give exactly 0.0
    cases = [(p9, 3, 2), (np.eye(8, dtype=np.int64), 2, 3)]
    cases += [((rng.random(64) < 0.3).astype(np.int64), 2, 3)]
    for t, dim, half_order in cases:
        report = multi_unitarity_check(t, dim, half_order)
        for rows, got in report.defects:
            m = oracles.unfolding_by_row_axes(t, dim, 2 * half_order, rows)
            assert got == oracles.unitarity_defect_by_integers(m)
    # an unfolding of the identity is a permutation iff its rows hold one
    # axis of each pair (q, q + 3): (0,1,2), (0,1,5), (0,2,4) and (0,4,5)
    identity = multi_unitarity_check(np.eye(8), 2, 3).defects
    exact = [rows for rows, v in identity if v == 0.0]
    assert exact == [rows for rows, _ in identity if len({q % 3 for q in rows}) == 3]
    assert len(exact) == 4


def test_large_unfoldings_are_each_taken_alone_bit_for_bit(rng, monkeypatch):
    # beyond linalg._STACK_LIMIT entries the unfoldings are taken one at a
    # time with no cached index; each defect keeps the bits of one stack
    m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    t = rng.standard_normal(5**6) + 1j * rng.standard_normal(5**6)
    assert 3 * m.size > linalg._STACK_LIMIT and 10 * t.size > linalg._STACK_LIMIT
    before = linalg._unfolding_index.cache_info()
    worst = two_unitarity_defect(m)

    def defects(t, half_order):
        rows = _subsets(2 * half_order, half_order, True)
        return [x.hex() for x in linalg._marginal_defects(t, rows, 1.0).tolist()]

    m4, t6 = m.reshape((16,) * 4), t.reshape((5,) * 6)
    alone = [defects(m4, 2), [v.hex() for _, v in multi_unitarity_check(t, 5, 3).defects]]
    assert linalg._unfolding_index.cache_info() == before
    monkeypatch.setattr(linalg, "_STACK_LIMIT", 10 * t.size)
    stacked = [defects(m4, 2), defects(t6, 3)]
    assert alone == stacked
    assert worst.hex() == max(alone[0], key=float.fromhex)


def test_multi_unitarity_rejects_non_finite_tensors():
    for bad in (np.nan, np.inf):
        t = np.eye(4, dtype=complex)
        t[1, 2] = bad
        with pytest.raises(NumericError):
            multi_unitarity_check(t, 2, 2)
        with pytest.raises(NumericError):
            two_unitarity_defect(t)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_multi_unitarity_rejects_malformed_tolerances(tol):
    with pytest.raises(ValueError, match="tol"):
        multi_unitarity_check(np.eye(4), 2, 2, tol=tol)


def test_multi_unitarity_accepts_zero_tolerance(p9):
    assert multi_unitarity_check(p9, 3, 2, tol=0.0).passed
    assert not multi_unitarity_check(np.eye(4), 2, 2, tol=0.0).passed


def test_multi_unitarity_rejects_unsupported_requests():
    with pytest.raises(CapabilityError):
        multi_unitarity_check(np.zeros(2**8), dim=2, half_order=4)
    with pytest.raises(CapabilityError):
        multi_unitarity_check(np.zeros(4), dim=2, half_order=1)
    with pytest.raises(DimensionError):
        multi_unitarity_check(np.zeros(17), dim=2, half_order=2)


# ---------------------------------------------------------------------------
# randomized suites (shared with the acceptance run)


def test_reordering_involutions_suite():
    properties.check_reordering_involutions(200)


def test_flattening_identity_suite():
    properties.check_flattening_identities(200)


def test_polar_reconstruction_suite():
    worst = properties.check_polar_reconstruction(200)
    assert worst <= 1e-10
