"""JSON readers and writers for matrices, designs, states, and search results.

Complex numbers are stored as [re, im] pairs; matrices and states keep their
entries as flat row-major lists. Readers validate shapes and reject length
mismatches with FormatError rather than guessing.
"""

from __future__ import annotations

import csv
import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError, _integer

# The design and state readers import their classes when called, so that
# reading and writing matrices and search results loads neither module.
if TYPE_CHECKING:
    from .states import PureState

__all__ = [
    "load_json",
    "save_json",
    "matrix_to_json",
    "matrix_from_json",
    "design_to_json",
    "design_from_json",
    "state_to_json",
    "state_from_json",
    "search_result_to_json",
    "write_trace_csv",
]

DESIGN_KINDS = ("ls", "mols", "ols", "qls", "qols", "oa", "qoa")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _pairs(arr) -> list:
    flat = np.asarray(arr, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def _unpairs(entries, expected, what) -> np.ndarray:
    if not isinstance(entries, list):
        raise FormatError(f"{what}: entries must be a list")
    if len(entries) != expected:
        raise FormatError(
            f"{what}: expected {expected} entries, found {len(entries)}"
        )
    out = np.empty(expected, dtype=complex)
    for idx, pair in enumerate(entries):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise FormatError(f"{what}: entry {idx} is not a [re, im] pair")
        out[idx] = complex(pair[0], pair[1])
    return out


def _need(obj, key, what):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{what}: missing key {key!r}")
    return obj[key]


def _need_int(obj, key, what, minimum=1):
    """obj[key] as an int >= minimum; a bool or any other value is a FormatError."""
    value = _integer(f"{what}: {key}", _need(obj, key, what), FormatError)
    if value < minimum:
        raise FormatError(f"{what}: {key} must be an integer >= {minimum}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# matrices


def matrix_to_json(m, block_dim: int | None = None) -> dict:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise FormatError(f"matrices must be square, got shape {arr.shape}")
    order = arr.shape[0]
    if block_dim is None:
        root = math.isqrt(order)
        block_dim = root if root * root == order else 1
    block_dim = _integer("block_dim", block_dim, FormatError)
    if block_dim < 1 or (block_dim > 1 and block_dim * block_dim != order):
        raise FormatError(f"block_dim {block_dim} does not square to order {order}")
    return {"order": order, "block_dim": block_dim, "entries": _pairs(arr)}


def matrix_from_json(obj) -> np.ndarray:
    order = _need_int(obj, "order", "matrix")
    block = _need_int(obj, "block_dim", "matrix")
    if block > 1 and block * block != order:
        raise FormatError(f"matrix: block_dim {block!r} does not match order {order}")
    entries = _unpairs(_need(obj, "entries", "matrix"), order * order, "matrix")
    return entries.reshape(order, order)


# ---------------------------------------------------------------------------
# designs


def _cells_to_lists(cells):
    return [[int(x) for x in row] for row in np.asarray(cells)]


def _cells_from_lists(obj, d, what):
    arr = np.asarray(obj)
    if arr.shape != (d, d) or arr.dtype.kind not in "iu":
        raise FormatError(f"{what}: cells must be a {d}x{d} integer grid")
    return arr.astype(np.int64)


def design_to_json(kind: str, obj) -> dict:
    if kind == "ls":
        cells = np.asarray(obj)
        return {"kind": "ls", "d": int(cells.shape[0]), "cells": _cells_to_lists(cells)}
    if kind == "mols":
        squares = [np.asarray(sq) for sq in obj]
        return {
            "kind": "mols",
            "d": int(squares[0].shape[0]),
            "squares": [_cells_to_lists(sq) for sq in squares],
        }
    if kind == "ols":
        return {
            "kind": "ols",
            "d": obj.d,
            "ranks": _cells_to_lists(obj.ranks),
            "suits": _cells_to_lists(obj.suits),
        }
    if kind in ("qls", "qols"):
        return {
            "kind": kind,
            "d": obj.d,
            "cell_dim": obj.cell_dim,
            "cells": [
                [_pairs(obj.cells[r, c]) for c in range(obj.d)]
                for r in range(obj.d)
            ],
        }
    if kind == "oa":
        return {
            "kind": "oa",
            "levels": obj.levels,
            "strength": obj.strength,
            "rows": [[int(x) for x in row] for row in obj.rows],
        }
    if kind == "qoa":
        return {
            "kind": "qoa",
            "levels": obj.levels,
            "strength": obj.strength,
            "n_classical": obj.n_classical,
            "n_quantum": obj.n_quantum,
            "states": [_pairs(s) for s in obj.states],
        }
    raise FormatError(f"unknown design kind {kind!r}")


def design_from_json(obj):
    """Parse a design document; returns (kind, object)."""
    from .designs import (
        OrthogonalArray,
        OrthogonalLatinPair,
        QuantumOrthogonalArray,
        QuantumSquare,
    )

    kind = _need(obj, "kind", "design")
    if kind not in DESIGN_KINDS:
        raise FormatError(f"design: unknown kind {kind!r}")
    if kind == "ls":
        d = _need_int(obj, "d", "ls")
        return "ls", _cells_from_lists(_need(obj, "cells", "ls"), d, "ls")
    if kind == "mols":
        d = _need_int(obj, "d", "mols")
        squares = _need(obj, "squares", "mols")
        if not isinstance(squares, list) or not squares:
            raise FormatError("mols: needs a nonempty list of squares")
        return "mols", [_cells_from_lists(sq, d, "mols") for sq in squares]
    if kind == "ols":
        d = _need_int(obj, "d", "ols")
        return "ols", OrthogonalLatinPair(
            ranks=_cells_from_lists(_need(obj, "ranks", "ols"), d, "ols"),
            suits=_cells_from_lists(_need(obj, "suits", "ols"), d, "ols"),
        )
    if kind in ("qls", "qols"):
        d = _need_int(obj, "d", kind)
        cell_dim = _need_int(obj, "cell_dim", kind)
        rows = _need(obj, "cells", kind)
        if not isinstance(rows, list) or len(rows) != d:
            raise FormatError(f"{kind}: expected {d} rows of cells")
        cells = []
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != d:
                raise FormatError(f"{kind}: row {r} must hold {d} cells")
            cells.append([
                _unpairs(vec, cell_dim, f"{kind} cell ({r},{c})")
                for c, vec in enumerate(row)
            ])
        return kind, QuantumSquare(cells=np.array(cells))
    if kind == "oa":
        rows = np.asarray(_need(obj, "rows", "oa"))
        if rows.ndim != 2 or rows.dtype.kind not in "iu":
            raise FormatError("oa: rows must be a 2-D integer table")
        return "oa", OrthogonalArray(
            levels=_need_int(obj, "levels", "oa"),
            strength=_need_int(obj, "strength", "oa"),
            rows=rows,
        )
    n_c = _need_int(obj, "n_classical", "qoa", minimum=0)
    n_q = _need_int(obj, "n_quantum", "qoa", minimum=0)
    levels = _need_int(obj, "levels", "qoa")
    raw = _need(obj, "states", "qoa")
    if not isinstance(raw, list) or not raw:
        raise FormatError("qoa: needs a nonempty list of states")
    n = n_c + n_q
    width = len(raw[0]) if isinstance(raw[0], list) else 0
    if levels > 1 and n >= width.bit_length():  # levels**n >= 2**n > width
        raise FormatError(f"qoa state 0: needs a list of {levels}**{n} entries")
    dim = levels**n
    states = np.stack(
        [_unpairs(s, dim, f"qoa state {i}") for i, s in enumerate(raw)]
    )
    return "qoa", QuantumOrthogonalArray(
        levels=levels,
        strength=_need_int(obj, "strength", "qoa"),
        n_classical=n_c,
        n_quantum=n_q,
        states=states,
    )


# ---------------------------------------------------------------------------
# states


def state_to_json(state: PureState) -> dict:
    return {"dims": list(state.dims), "amplitudes": _pairs(state.amplitudes)}


def state_from_json(obj) -> PureState:
    from .states import PureState

    dims = _need(obj, "dims", "state")
    if not isinstance(dims, list) or not dims or not all(
        _integer("state: dims", d, FormatError) >= 1 for d in dims
    ):
        raise FormatError(f"state: bad dims {dims!r}")
    total = math.prod(dims)
    amps = _unpairs(_need(obj, "amplitudes", "state"), total, "state")
    return PureState(dims=tuple(dims), amplitudes=amps)


# ---------------------------------------------------------------------------
# search results


def search_result_to_json(config, runs, summary, jobs=None) -> dict:
    """Serializable record of a sweep: config echo, per-run rows, summary."""
    return {
        "config": {
            "d": config.d,
            "seed_kind": config.seed_kind,
            "rng_seed": config.rng_seed,
            "epsilon": config.epsilon,
            "max_iter": config.resolved_max_iter,
            "tol": config.tol,
            "n_seeds": len(runs),
            "jobs": jobs,
        },
        "runs": [
            {
                "seed": run.seed,
                "converged": bool(run.converged),
                "iterations_used": int(run.iterations_used),
                "final_defect": float(run.defect_trace[-1]),
                "stop_reason": run.stop_reason,
            }
            for run in runs
        ],
        "summary": {
            "n_runs": summary.n_runs,
            "n_converged": summary.n_converged,
            "convergence_rate": summary.convergence_rate,
            "best_defect": summary.best_defect,
            "iteration_histogram": {
                str(k): v for k, v in summary.iteration_histogram.items()
            },
        },
    }


def write_trace_csv(run, path):
    """Per-iteration defect trace of one run as (iteration, defect) rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "defect"])
        for i, defect in enumerate(run.defect_trace):
            writer.writerow([i, f"{float(defect):.15g}"])
