import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import qeuler

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# modules that only some entry points need
OPTIONAL = {
    "qeuler.designs",
    "qeuler.gf",
    "qeuler.states",
    "qeuler.jsonio",
    "statistics",
    "concurrent.futures",
}


# ---------------------------------------------------------------------------
# the package namespace


def public_names():
    return [name for name in qeuler.__all__ if name != "__version__"]


def test_every_public_name_is_its_home_modules_object():
    for name in public_names():
        home = importlib.import_module(f"qeuler.{qeuler._HOME[name]}")
        obj = getattr(qeuler, name)
        assert obj is getattr(home, name), name
        # classes and functions say where they are defined
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qeuler import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(qeuler.__all__)
    for name in public_names():
        assert namespace[name] is getattr(qeuler, name), name
    assert namespace["__version__"] == qeuler.__version__ == "0.1.0"


def test_all_lists_each_name_once_and_dir_lists_all():
    assert len(set(qeuler.__all__)) == len(qeuler.__all__) == 67
    assert set(qeuler.__all__) <= set(dir(qeuler))
    for module in ("errors", "gf", "linalg", "designs", "states", "solver", "jsonio", "cli"):
        assert getattr(qeuler, module) is importlib.import_module(f"qeuler.{module}")


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        getattr(qeuler, "nonexistent")
    with pytest.raises(ImportError):
        exec("from qeuler import nonexistent", {})
    assert not hasattr(qeuler, "STOP_REASONS")  # solver's, not the package's


# ---------------------------------------------------------------------------
# what a fresh interpreter loads


def fresh(code):
    """Run code in a new interpreter on this tree; (watched modules loaded, result).

    The code may bind `result` to anything JSON can hold.
    """
    report = (
        "\nimport json as _json, sys as _sys\n"
        "print(_json.dumps({'loaded': sorted(m for m in _sys.modules\n"
        "    if m.startswith('qeuler') or m in ('statistics', 'concurrent.futures')),\n"
        "    'result': globals().get('result')}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + report],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    return set(out["loaded"]), out["result"]


def test_bare_import_loads_no_submodule():
    loaded, _ = fresh("import qeuler")
    assert loaded == {"qeuler"}
    loaded, result = fresh("import qeuler\nresult = qeuler.designs.mols_construct(3)[0].tolist()")
    assert result == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert {"qeuler.designs", "qeuler.gf"} <= loaded
    assert "qeuler.states" not in loaded


@pytest.mark.parametrize(
    "d, needs",
    [(2, set()), (6, set()), (3, {"qeuler.designs", "qeuler.gf"})],
)
def test_base_loads_the_fields_only_where_it_builds_one(d, needs):
    # orders 4 and 36 build their bases from pinned pairs of squares
    loaded, _ = fresh(
        "from qeuler.solver import SearchConfig, seed_matrix\n"
        f"seed_matrix(SearchConfig(d={d}))"
    )
    assert loaded & OPTIONAL == needs


def search_command(dim):
    """(modules loaded, exit code) of `qeuler search --dim dim --seeds 2`, run fresh."""
    return fresh(
        "from qeuler.cli import main\n"
        "try:\n"
        f"    main(['search', '--dim', '{dim}', '--seeds', '2'], prog_name='qeuler')\n"
        "except SystemExit as exit:\n"
        "    result = exit.code\n"
    )


def test_order_four_search_command_loads_only_what_it_runs():
    loaded, result = search_command(2)
    assert result == 1  # no 2-unitary of order 4 exists
    assert loaded == {
        "qeuler",
        "qeuler.cli",
        "qeuler.errors",
        "qeuler.jsonio",
        "qeuler.linalg",
        "qeuler.solver",
    }


def test_converged_search_command_loads_only_what_it_runs():
    # two seeds of order 9 stay below THREAD_MIN_SHARE, so no pool starts
    loaded, result = search_command(3)
    assert result == 0  # both seeds converge
    assert loaded == {
        "qeuler",
        "qeuler.cli",
        "qeuler.designs",
        "qeuler.errors",
        "qeuler.gf",
        "qeuler.jsonio",
        "qeuler.linalg",
        "qeuler.solver",
    }  # and not statistics, which the median took before


def test_first_threaded_sweep_of_a_process_equals_one_batch():
    loaded, result = fresh(
        "from qeuler.solver import SearchConfig, multi_seed_search\n"
        "config = SearchConfig(d=3, rng_seed=5100)\n"
        "threaded, _ = multi_seed_search(config, 8, jobs=2)\n"
        "serial, _ = multi_seed_search(config, 8, jobs=1)\n"
        "result = [\n"
        "    a.seed == b.seed and a.stop_reason == b.stop_reason\n"
        "    and a.iterations_used == b.iterations_used\n"
        "    and a.defect_trace.tobytes() == b.defect_trace.tobytes()\n"
        "    and a.terminal.tobytes() == b.terminal.tobytes()\n"
        "    for a, b in zip(threaded, serial)\n"
        "]\n"
    )
    assert result == [True] * 8
    assert "concurrent.futures" in loaded  # the sweep did go to threads
