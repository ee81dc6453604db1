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
    multi_unitarity_check,
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

from qeuler.linalg import gram_defect

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


@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_latin_violations_come_in_the_loop_order(d, rng):
    # rows before columns, then line by line and symbol by symbol; a pair
    # lists its ranks' lines, then its suits', then C1
    for _ in range(5):
        cells = rng.integers(0, d, size=(d, d))
        got = [(v.condition,) + v.where for v in verify_latin(cells).violations]
        assert got == oracles.latin_violations_by_loops(cells)
        report = verify_orthogonal_pair(OrthogonalLatinPair(ranks=cells, suits=cells.T))
        got = [(v.condition,) + v.where for v in report.violations if v.condition != "C1"]
        want = [
            ("C2" if axis == "row" else "C3", name, line, sym)
            for name, sq in (("ranks", cells), ("suits", cells.T))
            for axis, line, sym in oracles.latin_violations_by_loops(sq)
        ]
        assert got == want


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


def test_pair_reports_every_out_of_range_symbol_and_nothing_else():
    ranks, suits = cyclic_latin(3), cyclic_latin(3).T.copy()
    ranks[1, 2] = 3
    suits[0, 0] = -1
    suits[2, 1] = 7
    report = verify_orthogonal_pair(OrthogonalLatinPair(ranks=ranks, suits=suits))
    assert not report.passed and report.max_residual == 0.0
    assert [(v.condition, v.where, v.residual) for v in report.violations] == [
        ("symbol-range", ("ranks", 1, 2), 0.0),
        ("symbol-range", ("suits", 0, 0), 0.0),
        ("symbol-range", ("suits", 2, 1), 0.0),
    ]


def test_pair_shape_mismatch_is_rejected():
    with pytest.raises(DimensionError):
        OrthogonalLatinPair(ranks=cyclic_latin(3), suits=cyclic_latin(4))


def test_function_tables_equal_the_loop_tables(field_pair):
    tables = ols_function_tables(field_pair)
    want = oracles.function_tables_by_loops(field_pair.ranks, field_pair.suits)
    for got, table in zip(tables, want):
        assert got.dtype == table.dtype
        assert np.array_equal(got, table)


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


def test_encoded_pair_is_exactly_two_unitary(field_pair):
    perm = ols_to_permutation(field_pair)
    want = oracles.card_matrix_by_loops(field_pair.ranks, field_pair.suits)
    assert perm.dtype == want.dtype
    assert np.array_equal(perm, want)
    assert two_unitarity_defect(perm) == 0.0
    for reordered in (reshuffle(perm), partial_transpose(perm)):
        assert (reordered.sum(axis=0) == 1).all()
        assert (reordered.sum(axis=1) == 1).all()
        assert np.all((reordered == 0) | (reordered == 1))


def test_permutation_round_trip(field_pair):
    back = permutation_to_ols(ols_to_permutation(field_pair))
    assert np.array_equal(back.ranks, field_pair.ranks)
    assert np.array_equal(back.suits, field_pair.suits)


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


def test_mols_equal_the_field_loops_bit_for_bit():
    # every prime power up to 27: prime fields, GF(2^n) and GF(3^n)
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        squares = mols_construct(q)
        want = oracles.mols_by_field_loops(q)
        assert len(squares) == len(want) == q - 1
        for got, sq in zip(squares, want):
            assert got.dtype == sq.dtype == np.int64
            assert got.tobytes() == sq.tobytes()


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


def test_classical_embed_equals_the_loop_square(field_pair):
    cells = classical_embed(field_pair).cells
    want = oracles.classical_cells_by_loops(field_pair.ranks, field_pair.suits)
    assert cells.dtype == want.dtype
    assert np.array_equal(cells, want)


def test_embedding_rejects_invalid_pairs():
    sq = cyclic_latin(3)
    with pytest.raises(NotAnOlsError):
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


def test_square_from_unitary_rows_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        u = np.eye(9, dtype=complex)
        u[4, 2] = bad
        with pytest.raises(NumericError, match="non-finite"):
            square_from_unitary_rows(u)


def test_verifiers_fail_a_finite_matrix_whose_gram_product_overflows():
    # the overflowed products hold NaN as well as inf, and a NaN residual
    # would pass, since NaN > tol is False
    m = 1e200 * np.eye(4)
    with pytest.warns(RuntimeWarning):
        square = square_from_unitary_rows(m)
        reports = [
            qls_verify(square),
            qols_verify(square),
            qoa_verify(qoa_from_qols(square)),
        ]
        unfoldings = multi_unitarity_check(m.reshape(2, 2, 2, 2), 2, 2)
        defect = two_unitarity_defect(m)
    for report in reports:
        assert not report.passed
        assert report.max_residual == np.inf
    assert not unfoldings.passed
    assert defect == np.inf


@pytest.mark.parametrize("d", [2, 3, 6])
def test_square_from_unitary_rows_is_the_checked_constructor(d, rng):
    n = d * d
    for u in (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        np.eye(n, dtype=int),
    ):
        got = square_from_unitary_rows(u)
        want = QuantumSquare(cells=u.reshape(d, d, n))
        assert got.cells.shape == want.cells.shape == (d, d, n)
        assert got.cells.dtype == want.cells.dtype == complex
        assert got.cells.tobytes() == want.cells.tobytes()


@pytest.mark.parametrize("d", [2, 3, 6])
def test_qols_completeness_families_are_the_gram_defects(d, rng):
    # Q1 and Q1-completeness come out of the stacked product A A*; they are
    # the Gram defects of the transposed and the plain cell matrix, bit for bit
    n = d * d
    for u in (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        random_unitary(n, rng),
    ):
        report = qols_verify(square_from_unitary_rows(u))
        assert report.family_residuals["Q1"] == gram_defect(np.ascontiguousarray(u.T))
        assert report.family_residuals["Q1-completeness"] == gram_defect(u)


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


def _report_fields(report):
    # repr of these fields also tells a numpy scalar from a Python number
    violations = [(v.condition, v.where, v.residual) for v in report.violations]
    return repr(
        (report.kind, report.passed, report.tol, report.max_residual, violations,
         report.family_residuals)
    )


def test_classical_verifiers_equal_the_counting_references(rng):
    # every report, violation order included, equals the one the separate
    # line, pair and per-subset counts gave before they became one count
    for d in range(1, 8):
        latin = cyclic_latin(d)[rng.permutation(d)][:, rng.permutation(d)]
        grids = [cyclic_latin(d), rng.permutation(d)[latin]]
        grids += [rng.integers(0, d, (d, d)) for _ in range(3)]
        grids += [rng.integers(-1, d + 2, (d, d)) for _ in range(2)]
        for cells in grids:
            want = oracles.verify_latin_by_counts(cells)
            assert _report_fields(verify_latin(cells)) == repr(want)
        for ranks, suits in itertools.product(grids, repeat=2):
            want = oracles.verify_orthogonal_pair_by_counts(ranks, suits)
            got = verify_orthogonal_pair(OrthogonalLatinPair(ranks=ranks, suits=suits))
            assert _report_fields(got) == repr(want)
    for q in (3, 4, 5, 7):
        squares = mols_construct(q)
        squares += [rng.integers(0, q, (q, q)), cyclic_latin(q)]
        for ranks, suits in itertools.product(squares, repeat=2):
            want = oracles.verify_orthogonal_pair_by_counts(ranks, suits)
            got = verify_orthogonal_pair(OrthogonalLatinPair(ranks=ranks, suits=suits))
            assert _report_fields(got) == repr(want)


def _strength_three_array(s):
    # the runs (a, b, c, a + b + c mod s): an OA(s**3, 4, s, 3) of index 1
    abc = np.array(list(itertools.product(range(s), repeat=3)))
    return np.column_stack([abc, abc.sum(axis=1) % s])


def test_oa_verify_equals_the_per_subset_loop_counts(rng):
    arrays = []  # (rows, levels, strength)
    for s in (2, 3, 4):
        perms = np.column_stack([rng.permutation(s) for _ in range(3)])
        latin = oa_from_latin(cyclic_latin(s)).rows
        designs = [(perms, 1), (latin, 2), (_strength_three_array(s), 3)]
        if s > 2:
            sq = mols_construct(s)
            pair = np.column_stack([oa_from_latin(sq[0]).rows, sq[1].ravel()])
            designs.append((pair, 2))
        for rows, k in designs:
            twice = np.concatenate([rows, rows[rng.permutation(len(rows))]])
            broken = rows.copy()
            broken[0, -1] = (broken[0, -1] + 1) % s
            out_of_range = rows.copy()
            out_of_range[-1, 0] = s
            arrays += [
                (rows, s, k),  # index 1
                (twice, s, k),  # index 2
                (broken, s, k),
                (rows[:-1], s, k),  # runs not a multiple of s**k
                (out_of_range, s, k),
                (rng.integers(0, s, rows.shape), s, k),
                (rng.integers(0, s, twice.shape), s, k),
                (rows, s, 1),
            ]
    for rows, levels, k in arrays:
        got = oa_verify(OrthogonalArray(levels=levels, strength=k, rows=rows))
        assert _report_fields(got) == repr(oracles.oa_verify_by_loops(rows, levels, k))


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


def test_oa_from_latin_equals_the_loop_runs(rng):
    squares = [cyclic_latin(1), cyclic_latin(4), mols_construct(5)[2]]
    squares.append(rng.integers(0, 6, (6, 6)))  # any grid, Latin or not
    for sq in squares:
        arr = oa_from_latin(sq)
        want = oracles.oa_rows_by_loops(sq)
        assert arr.levels == sq.shape[0]
        assert arr.rows.dtype == want.dtype and arr.rows.shape == want.shape
        assert arr.rows.tobytes() == want.tobytes()


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


def test_qoa_from_qols_equals_the_loop_runs(field_pair, rng):
    d = field_pair.d
    for square in (
        classical_embed(field_pair),
        square_from_unitary_rows(random_unitary(d * d, rng)),
    ):
        states = qoa_from_qols(square).states
        want = oracles.qoa_states_by_loops(square.cells)
        assert states.dtype == want.dtype
        assert np.array_equal(states, want)


@pytest.mark.parametrize("d", [2, 3])
def test_qoa_verify_matches_summed_loop_marginals(d, rng):
    # the run states of a unitary's rows have flat (0, 1) and (2, 3)
    # marginals and uneven mixed ones; perturbed rows spoil (0, 1) as well
    tol = 1e-10
    u = random_unitary(d * d, rng)
    noise = rng.standard_normal((d * d, d * d))
    for rows in (u, u + 0.1 * noise):
        arr = qoa_from_qols(square_from_unitary_rows(rows))
        report = qoa_verify(arr, tol)
        lam = len(arr.states) / d**2
        want = {}
        for keep in itertools.combinations(range(4), 2):
            summed = sum(
                oracles.reduced_density_by_loops(run, (d,) * 4, keep)
                for run in arr.states
            )
            want[keep] = float(np.linalg.norm(summed - lam * np.eye(d * d)))
        assert list(report.family_residuals) == [f"keep{keep}" for keep in want]
        for keep, value in want.items():
            assert _close(report.family_residuals[f"keep{keep}"], value), keep
        assert [v.where for v in report.violations] == [
            keep for keep, value in want.items() if value > tol
        ]
        assert {v.condition for v in report.violations} <= {"marginal"}
        assert report.passed == all(value <= tol for value in want.values())


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
