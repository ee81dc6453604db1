import itertools

import numpy as np
import pytest

from qeuler import (
    DimensionError,
    InvalidDesignError,
    NotAPrimePowerError,
    NotAnOlsError,
    NumericError,
    OrthogonalArray,
    OrthogonalLatinPair,
    QuantumOrthogonalArray,
    QuantumSquare,
    classical_embed,
    cyclic_latin,
    mols_construct,
    oa_from_latin,
    oa_verify,
    ols_function_tables,
    ols_to_permutation,
    partial_transpose,
    permutation_to_ols,
    qls_verify,
    qoa_from_qols,
    qoa_verify,
    qols_verify,
    reshuffle,
    square_from_unitary_rows,
    two_unitarity_defect,
    verify_latin,
    verify_orthogonal_pair,
)

import frozen
import oracles
from conftest import random_unitary


# ---------------------------------------------------------------------------
# classical Latin squares


def test_cyclic_latin_order_three():
    assert np.array_equal(cyclic_latin(3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert np.array_equal(cyclic_latin(1), [[0]])
    with pytest.raises(DimensionError):
        cyclic_latin(0)


def test_cyclic_squares_verify_clean():
    for d in range(1, 8):
        report = verify_latin(cyclic_latin(d))
        assert report.passed
        assert report.max_residual == 0.0
        assert not oracles.latin_violations_by_loops(cyclic_latin(d))


def test_verify_latin_locates_duplicates():
    cells = cyclic_latin(4)
    cells[0, 1] = cells[0, 0]  # duplicate in row 0, hole elsewhere
    report = verify_latin(cells)
    assert not report.passed
    conditions = {v.condition for v in report.violations}
    assert conditions == {"row", "column"}
    # the oracle sees the same broken lines
    assert oracles.latin_violations_by_loops(cells)


def test_verify_latin_flags_out_of_range_symbols():
    cells = cyclic_latin(3)
    cells[2, 2] = 7
    report = verify_latin(cells)
    assert not report.passed
    assert report.violations[0].condition == "symbol-range"
    assert report.violations[0].where == (2, 2)


def test_cells_must_be_integer_grids():
    with pytest.raises(InvalidDesignError):
        verify_latin(np.full((2, 2), 0.5))
    with pytest.raises(DimensionError):
        verify_latin(np.zeros((2, 3), dtype=np.int64))


# ---------------------------------------------------------------------------
# orthogonal pairs


def test_classic_pair_is_orthogonal(classic_pair):
    report = verify_orthogonal_pair(classic_pair)
    assert report.passed
    assert report.max_residual == 0.0
    assert report.violations == ()
    assert oracles.pair_is_orthogonal_by_loops(
        classic_pair.ranks, classic_pair.suits
    )


def test_identical_squares_fail_the_pair_condition():
    sq = cyclic_latin(3)
    report = verify_orthogonal_pair(OrthogonalLatinPair(ranks=sq, suits=sq))
    assert not report.passed
    # both squares are Latin, so only the distinct-pairs condition can fail
    assert {v.condition for v in report.violations} == {"C1"}


def test_non_latin_component_reports_line_conditions():
    ranks = cyclic_latin(3)
    ranks[0] = ranks[1]  # two equal rows break columns, and rows stay fine
    report = verify_orthogonal_pair(
        OrthogonalLatinPair(ranks=ranks, suits=cyclic_latin(3))
    )
    assert not report.passed
    conditions = {v.condition for v in report.violations}
    assert "C3" in conditions
    assert "C1" in conditions


def test_pair_shape_mismatch_is_rejected():
    with pytest.raises(DimensionError):
        OrthogonalLatinPair(ranks=cyclic_latin(3), suits=cyclic_latin(4))


def test_function_tables_of_the_classic_pair(classic_pair):
    tables = ols_function_tables(classic_pair)
    assert tuple(tables.f1[0, 0]) == (0, 0)
    d = classic_pair.d
    for table in tables:
        seen = {tuple(table[a, b]) for a in range(d) for b in range(d)}
        assert len(seen) == d * d  # each table is a bijection on pairs
    for r in range(d):
        for c in range(d):
            v, s = tables.f1[r, c]
            assert tuple(tables.f2[s, c]) == (v, r)
            assert tuple(tables.f3[s, r]) == (v, c)


def test_function_tables_reject_invalid_pairs():
    sq = cyclic_latin(3)
    with pytest.raises(InvalidDesignError):
        ols_function_tables(OrthogonalLatinPair(ranks=sq, suits=sq))


# ---------------------------------------------------------------------------
# card encoding


def test_classic_pair_encodes_to_frozen_permutation(classic_pair, p9):
    assert np.array_equal(
        p9, oracles.card_matrix_by_loops(classic_pair.ranks, classic_pair.suits)
    )
    assert list(p9.argmax(axis=1)) == frozen.P9_ONE_COLS
    assert list(p9.argmax(axis=0)) == frozen.P9_ONE_ROWS
    assert (p9.sum(axis=0) == 1).all() and (p9.sum(axis=1) == 1).all()


def test_encoded_pair_is_exactly_two_unitary(p9):
    assert two_unitarity_defect(p9) == 0.0
    for reordered in (reshuffle(p9), partial_transpose(p9)):
        assert (reordered.sum(axis=0) == 1).all()
        assert (reordered.sum(axis=1) == 1).all()
        assert np.all((reordered == 0) | (reordered == 1))


def test_permutation_round_trip(classic_pair, p9):
    back = permutation_to_ols(p9)
    assert np.array_equal(back.ranks, classic_pair.ranks)
    assert np.array_equal(back.suits, classic_pair.suits)


def test_round_trip_on_field_constructed_pairs():
    for q in (4, 5, 7):
        squares = mols_construct(q)
        pair = OrthogonalLatinPair(ranks=squares[0], suits=squares[1])
        back = permutation_to_ols(ols_to_permutation(pair))
        assert np.array_equal(back.ranks, pair.ranks)
        assert np.array_equal(back.suits, pair.suits)


def test_identity_permutation_does_not_decode():
    # decodes to constant-rank rows, which are not Latin
    with pytest.raises(NotAnOlsError):
        permutation_to_ols(np.eye(9, dtype=np.int64))


def test_non_permutations_do_not_decode(p9):
    doubled = p9.copy()
    doubled[:, 0] = doubled[:, 1]
    with pytest.raises(NotAnOlsError):
        permutation_to_ols(doubled)
    with pytest.raises(NotAnOlsError):
        permutation_to_ols(p9 * 2)
    with pytest.raises(NotAnOlsError):
        permutation_to_ols(p9 * (1 + 1j))


def test_encoding_rejects_non_orthogonal_pairs():
    sq = cyclic_latin(3)
    with pytest.raises(NotAnOlsError):
        ols_to_permutation(OrthogonalLatinPair(ranks=sq, suits=sq))


# ---------------------------------------------------------------------------
# finite-field families


def test_mols_families_saturate_and_are_pairwise_orthogonal():
    for q in (3, 4, 5, 7, 8, 9):
        squares = mols_construct(q)
        assert len(squares) == q - 1
        for sq in squares:
            assert verify_latin(sq).passed
        for a, b in itertools.combinations(range(q - 1), 2):
            pair = OrthogonalLatinPair(ranks=squares[a], suits=squares[b])
            assert verify_orthogonal_pair(pair).passed
            assert oracles.pair_is_orthogonal_by_loops(squares[a], squares[b])


def test_mols_order_six_is_impossible():
    with pytest.raises(NotAPrimePowerError) as err:
        mols_construct(6)
    assert "order 6" in str(err.value)


def test_mols_rejects_other_bad_orders():
    with pytest.raises(NotAPrimePowerError):
        mols_construct(10)
    with pytest.raises(NotAPrimePowerError):
        mols_construct(12)
    with pytest.raises(InvalidDesignError):
        mols_construct(2)
    with pytest.raises(NotAPrimePowerError):
        mols_construct(1)


def test_mols_order_three_matches_classic_up_to_relabeling(classic_pair):
    squares = mols_construct(3)
    assert np.array_equal(squares[0], classic_pair.ranks)
    # the second square equals the classic suits after swapping symbols 1 and 2
    relabel = np.array([0, 2, 1])
    assert np.array_equal(relabel[squares[1]], classic_pair.suits)


# ---------------------------------------------------------------------------
# quantum squares


def test_classical_embed_passes_all_quantum_conditions(classic_pair):
    square = classical_embed(classic_pair)
    assert square.d == 3 and square.cell_dim == 9
    qls = qls_verify(square)
    qols = qols_verify(square)
    assert qls.passed and qls.max_residual == 0.0
    assert qols.passed and qols.max_residual == 0.0
    assert set(qols.family_residuals) == {
        "Q1",
        "Q1-completeness",
        "Q2-rows-trB",
        "Q2-rows-trA",
        "Q3-cols-trB",
        "Q3-cols-trA",
    }


def test_quantum_conditions_survive_local_rotations(classic_pair, rng):
    square = classical_embed(classic_pair)
    local = np.kron(random_unitary(3, rng), random_unitary(3, rng))
    rotated = QuantumSquare(cells=square.cells @ local.T)
    report = qols_verify(rotated)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_embedding_rejects_invalid_pairs():
    sq = cyclic_latin(3)
    with pytest.raises(InvalidDesignError):
        classical_embed(OrthogonalLatinPair(ranks=sq, suits=sq))


def test_qls_verify_locates_repeated_cells():
    cells = np.zeros((2, 2, 4), dtype=complex)
    cells[0, 0, 0] = cells[0, 1, 0] = 1.0  # same vector twice in row 0
    cells[1, 0, 1] = cells[1, 1, 2] = 1.0
    report = qls_verify(QuantumSquare(cells=cells))
    assert not report.passed
    assert any(v.condition == "row" and v.where == (0,) for v in report.violations)


def test_quantum_square_rejects_non_finite_cells():
    # a NaN cell would pass both verifiers: no residual compares above tol
    for bad in (np.nan, np.inf):
        cells = np.zeros((3, 3, 9), dtype=complex)
        cells[1, 2, 4] = bad
        with pytest.raises(NumericError):
            QuantumSquare(cells=cells)


def test_qols_verify_needs_bipartite_cells():
    with pytest.raises(DimensionError):
        qols_verify(QuantumSquare(cells=np.zeros((2, 2, 2), dtype=complex)))


def test_unitary_rows_pass_iff_two_unitary(classic_pair, p9, rng):
    # the six quantum conditions on the row square mirror the defect check
    cases = [
        (p9.astype(complex), True),
        (np.eye(9, dtype=complex), False),
        (random_unitary(9, rng), False),
    ]
    for u, expect in cases:
        report = qols_verify(square_from_unitary_rows(u))
        assert report.passed == expect
        assert report.passed == (two_unitarity_defect(u) <= 1e-10)


def _oracle_squares(d, rng):
    """Random, locally rotated and one-cell-perturbed squares of order d."""
    n = d * d
    if d == 3:
        base = classical_embed(
            OrthogonalLatinPair(ranks=frozen.CLASSIC3_RANKS, suits=frozen.CLASSIC3_SUITS)
        ).cells
    else:  # no quantum orthogonal Latin square of order d from permutations
        base = square_from_unitary_rows(np.eye(n)).cells
    local = np.kron(random_unitary(d, rng), random_unitary(d, rng))
    perturbed = base.copy()
    perturbed[d - 1, 0] += 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return [
        rng.standard_normal((d, d, n)) + 1j * rng.standard_normal((d, d, n)),
        base @ local.T,
        perturbed,
    ]


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


@pytest.mark.parametrize("d", [2, 3, 6])
def test_quantum_square_verifiers_match_loop_oracle(d, rng):
    tol = 1e-10
    for cells in _oracle_squares(d, rng):
        square = QuantumSquare(cells=cells)
        want = oracles.qols_residuals_by_loops(cells)

        qls = qls_verify(square, tol)
        assert _close(qls.family_residuals["rows"], max(want["rows"]))
        assert _close(qls.family_residuals["columns"], max(want["columns"]))
        for v in qls.violations:
            line = want["rows" if v.condition == "row" else "columns"]
            assert _close(v.residual, line[v.where[0]])
        flagged = {(v.condition, v.where[0]) for v in qls.violations}
        assert flagged == {
            (name, i)
            for name, key in (("row", "rows"), ("column", "columns"))
            for i, res in enumerate(want[key])
            if res > tol
        }

        qols = qols_verify(square, tol)
        assert set(qols.family_residuals) == {
            "Q1",
            "Q1-completeness",
            "Q2-rows-trB",
            "Q2-rows-trA",
            "Q3-cols-trB",
            "Q3-cols-trA",
        }
        for family, res in qols.family_residuals.items():
            assert _close(res, want[family][0]), family
        assert {v.condition for v in qols.violations} == {
            family for family in qols.family_residuals if want[family][0] > tol
        }
        for v in qols.violations:
            worst, where = want[v.condition]
            assert _close(v.residual, worst)
            if v.condition.startswith("Q1"):
                assert v.where == ()
                continue
            # the worst pair; where pairs tie up to rounding, any of them
            pairs = want[v.condition + "-pairs"]
            tied = [
                (i, j) for i in range(d) for j in range(d) if _close(pairs[i][j], worst)
            ]
            assert v.where in tied
            if len(tied) == 1:
                assert v.where == where


def test_qols_verify_names_the_first_worst_pair_of_exact_ties(rng):
    # on 0/1 cells every residual is the root of an integer, so ties are
    # exact and the worst pair must be the first in row-major order
    squares = []
    for d in (2, 3, 4):
        n = d * d
        for _ in range(4):
            u = np.zeros((n, n))
            u[rng.permutation(n), np.arange(n)] = 1.0
            squares.append(square_from_unitary_rows(u))
    for square in squares:
        want = oracles.qols_residuals_by_loops(square.cells)
        report = qols_verify(square)
        for family, res in report.family_residuals.items():
            assert res == want[family][0], family
        for v in report.violations:
            assert v.where == want[v.condition][1], v.condition


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-12])
def test_quantum_verifiers_reject_malformed_tolerances(tol, classic_pair):
    square = classical_embed(classic_pair)
    for verify, design in (
        (qls_verify, square),
        (qols_verify, square),
        (qoa_verify, qoa_from_qols(square)),
    ):
        with pytest.raises(ValueError, match="tol"):
            verify(design, tol)


def test_quantum_verifiers_accept_zero_tolerance(classic_pair):
    # the classical embedding is exact, so it passes with no slack at all
    square = classical_embed(classic_pair)
    assert qls_verify(square, 0.0).passed
    assert qols_verify(square, 0.0).passed
    assert qoa_verify(qoa_from_qols(square), 0.0).passed


def test_no_order_two_quantum_pair_from_permutations():
    # classical impossibility survives the product-basis embedding
    for perm in itertools.permutations(range(4)):
        u = np.zeros((4, 4))
        u[list(perm), np.arange(4)] = 1.0
        assert not qols_verify(square_from_unitary_rows(u)).passed


# ---------------------------------------------------------------------------
# orthogonal arrays


def test_latin_square_yields_strength_two_array():
    arr = oa_from_latin(cyclic_latin(3))
    assert arr.levels == 3 and arr.strength == 2
    assert arr.rows.shape == (9, 3)
    report = oa_verify(arr)
    assert report.passed
    # every 2-column projection sees each pair exactly once
    counts = oracles.oa_counts_by_loops(arr.rows, 3, 2)
    assert all(
        set(c.values()) == {1} and len(c) == 9 for c in counts.values()
    )


def test_oa_verify_locates_unbalanced_projections():
    arr = oa_from_latin(cyclic_latin(3))
    rows = arr.rows.copy()
    rows[0, 2] = (rows[0, 2] + 1) % 3
    report = oa_verify(OrthogonalArray(levels=3, strength=2, rows=rows))
    assert not report.passed
    assert {v.condition for v in report.violations} == {"balance"}


def test_oa_verify_rejects_degenerate_arrays():
    single = OrthogonalArray(levels=3, strength=2, rows=np.zeros((1, 3), dtype=int))
    report = oa_verify(single)
    assert not report.passed
    assert report.violations[0].condition == "divisibility"

    bad_symbol = OrthogonalArray(
        levels=3, strength=2, rows=np.full((9, 3), 5, dtype=int)
    )
    assert oa_verify(bad_symbol).violations[0].condition == "symbol-range"

    with pytest.raises(DimensionError):
        oa_verify(OrthogonalArray(levels=2, strength=4, rows=np.zeros((4, 2), dtype=int)))


def test_qoa_from_embedded_classic_pair(classic_pair):
    square = classical_embed(classic_pair)
    arr = qoa_from_qols(square)
    assert (arr.levels, arr.strength) == (3, 2)
    assert (arr.n_classical, arr.n_quantum) == (2, 2)
    assert arr.n_parties == 4
    assert arr.states.shape == (9, 81)
    report = qoa_verify(arr)
    assert report.passed
    assert report.max_residual <= 1e-12
    assert len(report.family_residuals) == 6  # all 2-of-4 party subsets


def test_qoa_detects_non_uniform_marginals():
    arr = qoa_from_qols(square_from_unitary_rows(np.eye(9)))
    report = qoa_verify(arr)
    assert not report.passed
    assert any(v.condition == "marginal" for v in report.violations)


def test_qoa_strength_out_of_range():
    states = np.zeros((2, 16), dtype=complex)
    states[:, 0] = 1.0
    arr = QuantumOrthogonalArray(
        levels=2, strength=5, n_classical=2, n_quantum=2, states=states
    )
    with pytest.raises(DimensionError):
        qoa_verify(arr)
