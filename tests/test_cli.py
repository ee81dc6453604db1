import itertools
import json

import numpy as np
import pytest
from click.testing import CliRunner

from qeuler import (
    cyclic_latin,
    jsonio,
    oa_from_latin,
    qoa_from_qols,
    square_from_unitary_rows,
    state_from_two_unitary,
    two_unitarity_defect,
)
from qeuler.cli import main

import oracles


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


# ---------------------------------------------------------------------------
# design commands


def test_gen_latin_square_to_stdout(runner):
    result = invoke(runner, "design", "gen", "--kind", "ls", "--order", "4")
    assert result.exit_code == 0
    kind, cells = jsonio.design_from_json(json.loads(result.output))
    assert kind == "ls"
    assert cells.shape == (4, 4)


def test_gen_writes_file_and_verify_passes(runner, tmp_path):
    path = tmp_path / "pair.json"
    result = invoke(
        runner, "design", "gen", "--kind", "ols", "--order", "5", "--out", str(path)
    )
    assert result.exit_code == 0
    assert f"wrote {path}" in result.output
    check = invoke(runner, "design", "verify", "--in", str(path))
    assert check.exit_code == 0
    assert "ols: PASS" in check.output


def test_gen_mols_order_six_is_a_math_failure(runner):
    result = invoke(runner, "design", "gen", "--kind", "mols", "--order", "6")
    assert result.exit_code == 1
    assert "failed:" in result.output
    assert "order 6" in result.output


def test_gen_cards_rendering(runner):
    result = invoke(
        runner, "design", "gen", "--kind", "ols", "--order", "3",
        "--render", "cards",
    )
    assert result.exit_code == 0
    # the order-3 construction holds (x+y, 2x+y) at cell (x, y)
    assert "A♠ K♦ Q♣" in result.output
    assert "K♣ Q♠ A♦" in result.output
    assert "Q♦ A♣ K♠" in result.output


def test_gen_digit_rendering(runner):
    result = invoke(
        runner, "design", "gen", "--kind", "ols", "--order", "3",
        "--render", "digits",
    )
    assert result.exit_code == 0
    assert "00 11 22" in result.output


def test_gen_renders_latin_squares_and_families(runner):
    result = invoke(
        runner, "design", "gen", "--kind", "ls", "--order", "3", "--render", "digits"
    )
    assert result.exit_code == 0
    assert result.output.endswith("0 1 2\n1 2 0\n2 0 1\n")
    result = invoke(
        runner, "design", "gen", "--kind", "mols", "--order", "3", "--render", "cards"
    )
    assert result.exit_code == 0
    # square a holds a*x + y in cell (x, y)
    assert result.output.endswith(
        "square 1:\n0 1 2\n1 2 0\n2 0 1\nsquare 2:\n0 1 2\n2 0 1\n1 2 0\n"
    )


def test_no_rendering_without_the_flag(runner):
    result = invoke(runner, "design", "gen", "--kind", "ols", "--order", "3")
    assert "♠" not in result.output


def test_verify_reports_violations_and_fails(runner, tmp_path):
    cells = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    cells[0, 0] = 1  # duplicate symbol in row 0 and column 0
    path = tmp_path / "bad.json"
    jsonio.save_json(jsonio.design_to_json("ls", cells), path)
    result = invoke(runner, "design", "verify", "--in", str(path))
    assert result.exit_code == 1
    assert "latin: FAIL" in result.output
    assert "violation" in result.output


def test_verify_mols_checks_every_pair(runner, tmp_path):
    path = tmp_path / "mols.json"
    gen = invoke(
        runner, "design", "gen", "--kind", "mols", "--order", "4", "--out", str(path)
    )
    assert gen.exit_code == 0
    result = invoke(runner, "design", "verify", "--in", str(path))
    assert result.exit_code == 0
    assert "pair(0,1): PASS" in result.output
    assert "pair(1,2): PASS" in result.output
    assert "latin[2]: PASS" in result.output


def test_verify_non_finite_quantum_square_is_a_math_failure(runner, tmp_path):
    # Python's json reads the NaN token; a NaN cell must not verify as PASS
    cells = [[[[1.0, 0.0]] + [[0.0, 0.0]] * 3] * 2] * 2
    doc = {"kind": "qols", "d": 2, "cell_dim": 4, "cells": cells}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc).replace("1.0", "NaN", 1))
    result = invoke(runner, "design", "verify", "--in", str(path))
    assert result.exit_code == 1
    assert "failed:" in result.output
    assert "non-finite" in result.output
    assert "PASS" not in result.output


@pytest.mark.parametrize("kind", ["qls", "qols", "qoa"])
def test_verify_quantum_designs_list_their_family_residuals(runner, tmp_path, p9, kind):
    families = {
        "qls": ["columns", "rows"],
        "qols": [
            "Q1", "Q1-completeness", "Q2-rows-trA", "Q2-rows-trB",
            "Q3-cols-trA", "Q3-cols-trB",
        ],
        "qoa": [f"keep{keep}" for keep in itertools.combinations(range(4), 2)],
    }[kind]
    # the rows of any unitary make a quantum Latin square, so the qls file
    # that fails is made from a unitary scaled by 2
    rng = np.random.default_rng(11)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    haar = np.linalg.qr(g)[0]
    failing = 2 * haar if kind == "qls" else haar
    for u, code in ((p9, 0), (failing, 1)):
        square = square_from_unitary_rows(u)
        obj = qoa_from_qols(square) if kind == "qoa" else square
        path = tmp_path / f"{kind}.json"
        jsonio.save_json(jsonio.design_to_json(kind, obj), path)
        result = invoke(runner, "design", "verify", "--in", str(path))
        assert result.exit_code == code
        lines = result.output.splitlines()
        assert lines[0].startswith(f"{kind}: {'FAIL' if code else 'PASS'} (tol 1e-10, ")
        assert [line.split(":")[0].strip() for line in lines[1 : 1 + len(families)]] == families
        violations = [line for line in lines if line.startswith("  violation ")]
        assert bool(violations) == bool(code)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
def test_verify_malformed_tolerance_is_usage_error(runner, tmp_path, tol):
    # the rows of a random unitary fail the quantum conditions by far, so a
    # tolerance that passed them would turn a FAIL into PASS
    rng = np.random.default_rng(7)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    path = tmp_path / "square.json"
    jsonio.save_json(
        jsonio.design_to_json("qols", square_from_unitary_rows(np.linalg.qr(g)[0])), path
    )
    result = invoke(runner, "design", "verify", "--in", str(path), "--tol", tol)
    assert result.exit_code == 2
    assert "error: tol must be a finite number >= 0" in result.output
    assert "PASS" not in result.output


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("kind", ["ls", "ols", "mols", "oa"])
def test_verify_rejects_malformed_tolerance_on_every_kind(runner, tmp_path, kind, tol):
    # these kinds are checked combinatorially, with no tolerance, and pass
    path = tmp_path / f"{kind}.json"
    if kind == "oa":
        jsonio.save_json(jsonio.design_to_json("oa", oa_from_latin(cyclic_latin(3))), path)
    else:
        gen = invoke(
            runner, "design", "gen", "--kind", kind, "--order", "4", "--out", str(path)
        )
        assert gen.exit_code == 0
    assert invoke(runner, "design", "verify", "--in", str(path)).exit_code == 0
    result = invoke(runner, "design", "verify", "--in", str(path), "--tol", tol)
    assert result.exit_code == 2
    assert "error: tol must be a finite number >= 0" in result.output
    assert "PASS" not in result.output


def test_verify_missing_file_is_usage_error(runner, tmp_path):
    result = invoke(runner, "design", "verify", "--in", str(tmp_path / "no.json"))
    assert result.exit_code == 2


def test_verify_malformed_json_is_usage_error(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = invoke(runner, "design", "verify", "--in", str(path))
    assert result.exit_code == 2
    assert "error:" in result.output


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "qls", "d": 1, "cell_dim": 10**15, "cells": [[[[1, 0]]]]},
        {"kind": "qoa", "levels": 3, "strength": 1, "n_classical": 10**9,
         "n_quantum": 0, "states": [[[1, 0]]]},
    ],
    ids=["qls-cell-dim", "qoa-party-count"],
)
def test_verify_checks_the_data_before_its_declared_sizes(runner, tmp_path, doc):
    # the qls reader used to allocate d x d x cell_dim amplitudes first and
    # exit 1 with an uncaught memory error; the qoa reader computed
    # levels ** (n_classical + n_quantum) before it looked at a state
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, "design", "verify", "--in", str(path))
    assert result.exit_code == 2
    assert "error:" in result.output


def test_encode_classic_pair(runner, tmp_path, classic_pair, p9):
    pair_path = tmp_path / "pair.json"
    jsonio.save_json(jsonio.design_to_json("ols", classic_pair), pair_path)
    out_path = tmp_path / "perm.json"
    result = invoke(
        runner, "design", "encode", "--in", str(pair_path), "--out", str(out_path)
    )
    assert result.exit_code == 0
    encoded = jsonio.matrix_from_json(jsonio.load_json(out_path))
    assert np.array_equal(encoded.real.astype(np.int64), p9)


def test_encode_rejects_wrong_kind(runner, tmp_path):
    path = tmp_path / "ls.json"
    jsonio.save_json(jsonio.design_to_json("ls", np.array([[0, 1], [1, 0]])), path)
    result = invoke(runner, "design", "encode", "--in", str(path))
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# state commands


def test_state_build_and_check_pass(runner, tmp_path, classic_pair):
    pair_path = tmp_path / "pair.json"
    jsonio.save_json(jsonio.design_to_json("ols", classic_pair), pair_path)
    state_path = tmp_path / "state.json"
    built = invoke(
        runner, "state", "build", "--from", "ols",
        "--in", str(pair_path), "--out", str(state_path),
    )
    assert built.exit_code == 0
    checked = invoke(runner, "state", "check", "--in", str(state_path))
    assert checked.exit_code == 0
    assert "PASS" in checked.output
    assert "max residual" in checked.output


def test_state_check_k_flag_and_failure(runner, tmp_path):
    amps = [[0.0, 0.0]] * 16
    amps[0] = [1.0, 0.0]
    path = tmp_path / "product.json"
    jsonio.save_json({"dims": [2, 2, 2, 2], "amplitudes": amps}, path)
    result = invoke(runner, "state", "check", "--in", str(path), "--k", "2")
    assert result.exit_code == 1
    assert "FAIL" in result.output
    assert "parties (0, 1)" in result.output


def test_state_check_malformed_tolerance_is_usage_error(runner, tmp_path, p9):
    path = tmp_path / "state.json"
    jsonio.save_json(jsonio.state_to_json(state_from_two_unitary(p9)), path)
    for tol in ("nan", "inf"):
        result = invoke(runner, "state", "check", "--in", str(path), "--tol", tol)
        assert result.exit_code == 2
        assert "tol must be a finite number" in result.output


def test_state_build_from_matrix(runner, tmp_path, p9):
    m_path = tmp_path / "m.json"
    jsonio.save_json(jsonio.matrix_to_json(p9.astype(complex)), m_path)
    out = tmp_path / "state.json"
    built = invoke(
        runner, "state", "build", "--from", "matrix",
        "--in", str(m_path), "--out", str(out),
    )
    assert built.exit_code == 0
    psi = jsonio.state_from_json(jsonio.load_json(out))
    assert psi.dims == (3, 3, 3, 3)
    expected = state_from_two_unitary(p9.astype(complex))
    assert np.array_equal(psi.amplitudes, expected.amplitudes)


def test_state_build_kind_mismatch(runner, tmp_path):
    path = tmp_path / "ls.json"
    jsonio.save_json(jsonio.design_to_json("ls", np.array([[0, 1], [1, 0]])), path)
    result = invoke(runner, "state", "build", "--from", "ols", "--in", str(path))
    assert result.exit_code == 2


# JSON true is a Python bool, and bool is a subclass of int: every integer
# field must still refuse it
@pytest.mark.parametrize(
    "command, doc",
    [
        (
            ("state", "build", "--from", "matrix"),
            {"order": True, "block_dim": 1, "entries": [[1, 0]]},
        ),
        (
            ("state", "build", "--from", "matrix"),
            {"order": 1, "block_dim": True, "entries": [[1, 0]]},
        ),
        (
            ("state", "build", "--from", "matrix"),
            {"order": 1, "block_dim": 1, "entries": [[True, 0]]},
        ),
        (("design", "verify"), {"kind": "ls", "d": True, "cells": [[0]]}),
        (("state", "check"), {"dims": [True, True], "amplitudes": [[1, 0]]}),
    ],
    ids=["order", "block_dim", "entry", "d", "dims"],
)
def test_json_booleans_are_usage_errors(runner, tmp_path, command, doc):
    path = tmp_path / "doc.json"
    jsonio.save_json(doc, path)
    result = invoke(runner, *command, "--in", str(path))
    assert result.exit_code == 2
    assert "error:" in result.output


# ---------------------------------------------------------------------------
# search command


def test_search_converges_near_order_three_solution(runner, tmp_path, p9):
    base_path = tmp_path / "base.json"
    jsonio.save_json(jsonio.matrix_to_json(p9.astype(complex)), base_path)
    record = tmp_path / "record.json"
    best = tmp_path / "best.json"
    trace = tmp_path / "trace.csv"
    result = invoke(
        runner, "search", "--dim", "3", "--seeds", "4", "--rng-seed", "1",
        "--epsilon", "0.1", "--base-matrix", str(base_path),
        "--out", str(record), "--best-matrix", str(best),
        "--trace-csv", str(trace),
    )
    assert result.exit_code == 0
    assert "runs 4, converged" in result.output
    assert "best terminal defect" in result.output
    assert "converged after iterations:" in result.output

    doc = jsonio.load_json(record)
    assert doc["config"]["n_seeds"] == 4
    assert doc["summary"]["n_converged"] >= 1
    terminal = jsonio.matrix_from_json(jsonio.load_json(best))
    assert two_unitarity_defect(terminal) <= 1e-10
    assert trace.read_text().startswith("iteration,defect")


def test_search_zero_convergence_exits_one(runner):
    result = invoke(
        runner, "search", "--dim", "2", "--seeds", "3", "--max-iter", "60",
    )
    assert result.exit_code == 1
    assert "converged 0" in result.output


def test_search_reports_stalled_runs(runner, tmp_path):
    record = tmp_path / "record.json"
    result = invoke(
        runner, "search", "--dim", "2", "--seeds", "2", "--max-iter", "10000",
        "--out", str(record),
    )
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert lines[0] == "runs 2, converged 0, rate 0"
    assert lines[1].startswith("best terminal defect ")
    assert lines[2] == "stop reasons: converged 0, stalled 2, max_iter 0"
    doc = jsonio.load_json(record)
    assert [run["stop_reason"] for run in doc["runs"]] == ["stalled", "stalled"]
    assert all(run["iterations_used"] < 10_000 for run in doc["runs"])


def test_search_env_var_seeds_the_sweep(runner, tmp_path, p9):
    base_path = tmp_path / "base.json"
    jsonio.save_json(jsonio.matrix_to_json(p9.astype(complex)), base_path)

    def run(env):
        out = tmp_path / f"r{env.get('QEULER_RNG_SEED', 'none')}.json"
        res = invoke(
            runner, "search", "--dim", "3", "--seeds", "1", "--max-iter", "10",
            "--base-matrix", str(base_path), "--out", str(out),
            env=env,
        )
        assert res.exit_code in (0, 1)
        return jsonio.load_json(out)

    doc = run({"QEULER_RNG_SEED": "42"})
    assert doc["config"]["rng_seed"] == 42
    assert doc["runs"][0]["seed"]["rng_seed"] == 42


def test_search_user_matrix_seed(runner, tmp_path, p9):
    m_path = tmp_path / "m.json"
    jsonio.save_json(jsonio.matrix_to_json(p9.astype(complex)), m_path)
    result = invoke(
        runner, "search", "--dim", "3", "--seeds", "1",
        "--base-matrix", str(m_path), "--epsilon", "0",
    )
    # the seed is already 2-unitary, so the search converges immediately
    assert result.exit_code == 0
    assert "converged after iterations: min 0" in result.output
    # a user's matrix is a base; there is no seed kind that reads a file
    result = invoke(
        runner, "search", "--dim", "3", "--seeds", "1", "--seed-kind", "user-matrix"
    )
    assert result.exit_code == 2


def test_search_random_unitary_with_a_base_is_usage_error(runner, tmp_path, p9):
    # the Haar draw used to ignore the file, run and exit 0, even for a base
    # of the wrong order, which the default kind rejects with exit 2
    for base in (p9, np.eye(25)):
        m_path = tmp_path / "m.json"
        jsonio.save_json(jsonio.matrix_to_json(base.astype(complex)), m_path)
        result = invoke(
            runner, "search", "--dim", "3", "--seed-kind", "random-unitary",
            "--base-matrix", str(m_path), "--epsilon", "0",
        )
        assert result.exit_code == 2
        assert "error: a random-unitary seed takes no base matrix" in result.output
        assert "converged" not in result.output


def test_search_bad_dimension_is_usage_error(runner):
    result = invoke(runner, "search", "--dim", "1", "--seeds", "1")
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "nan"), ("--tol", "inf"), ("--epsilon", "nan"), ("--epsilon", "inf")],
)
def test_search_malformed_tolerance_or_noise_is_usage_error(runner, flag, value):
    # caught before any run: --tol inf used to report every run as converged
    result = invoke(runner, "search", "--dim", "3", "--seeds", "2", flag, value)
    assert result.exit_code == 2
    assert f"error: {flag[2:]} must be a finite number" in result.output
    assert "converged" not in result.output


def test_search_zero_jobs_is_usage_error(runner):
    result = invoke(runner, "search", "--dim", "2", "--seeds", "2", "--jobs", "0")
    assert result.exit_code == 2
    assert "jobs" in result.output


# ---------------------------------------------------------------------------
# bruteforce command


def test_bruteforce_order_four_finds_nothing(runner):
    result = invoke(runner, "bruteforce", "--dim", "2")
    assert result.exit_code == 0
    assert "searched 24 permutations of order 4" in result.output
    assert "0 found" in result.output


def test_bruteforce_order_nine_writes_every_orthogonal_pair(runner, tmp_path):
    path = tmp_path / "found.json"
    result = invoke(runner, "bruteforce", "--dim", "3", "--out", str(path))
    assert result.exit_code == 0
    assert "searched 362880 permutations of order 9" in result.output
    assert "72 found" in result.output
    doc = jsonio.load_json(path)
    assert doc["count"] == 72
    expected = oracles.card_encoded_orthogonal_pairs(3)
    assert doc["one_positions"] == [list(p) for p in expected]


def test_bruteforce_out_of_reach_is_usage_error(runner):
    result = invoke(runner, "bruteforce", "--dim", "4")
    assert result.exit_code == 2
    assert "out of reach" in result.output


def test_bruteforce_far_out_of_reach_is_usage_error(runner):
    # the refusal states 1600! without computing it
    result = invoke(runner, "bruteforce", "--dim", "40")
    assert result.exit_code == 2
    assert (
        "error: d = 40: exhausting the (d**2)! = 1600! permutations is out of reach"
        in result.output
    )


def test_missing_required_flag_is_usage_error(runner):
    result = invoke(runner, "search")
    assert result.exit_code == 2
