"""Command-line front end for designs, states, and two-unitary searches.

One exit-code contract throughout: 0 when the requested computation succeeds,
1 when well-formed input fails a mathematical check (a verifier finds
violations, a construction is impossible, a sweep never converges), 2 for
usage and I/O problems (bad flags, malformed files, requests out of reach).
All numeric output is printed with 15 significant digits.
"""

import collections
import functools
import json
import math
import sys

import click
import numpy as np

from . import jsonio
from .errors import (
    CapabilityError,
    DimensionError,
    FormatError,
    QeulerError,
)
from .linalg import _check_tol
from .solver import (
    SEED_KINDS,
    STOP_REASONS,
    SearchConfig,
    brute_force_permutations,
    multi_seed_search,
)

# The design and state commands import what they use in their own bodies,
# so that search and bruteforce load neither designs nor states.

MATH_FAILURE = 1
USAGE_FAILURE = 2

# Shape/format/capability problems are the caller's fault; everything else a
# qeuler module raises reports mathematics that did not work out.
_USAGE_ERRORS = (FormatError, CapabilityError, DimensionError)


def _fmt(x) -> str:
    return f"{float(x):.15g}"


def _guarded(fn):
    """Map library exceptions onto the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _USAGE_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(USAGE_FAILURE)
        except QeulerError as exc:
            click.echo(f"failed: {exc}", err=True)
            sys.exit(MATH_FAILURE)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            click.echo(f"error: {exc}", err=True)
            sys.exit(USAGE_FAILURE)

    return wrapper


def _emit_json(payload, out_path):
    if out_path:
        jsonio.save_json(payload, out_path)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# rendering

_RANKS = ("A", "K", "Q", "J", "10", "9")
_SUITS = ("♠", "♦", "♣", "♥", "★", "✱")


def _card(v, s, d):
    if d <= len(_RANKS):
        return f"{_RANKS[v]}{_SUITS[s]}"
    return f"{v}.{s}"


def _pair_text(v, s, d, style):
    if style == "cards":
        return _card(v, s, d)
    return f"{v}{s}" if d <= 10 else f"{v},{s}"


def _grid_lines(texts):
    width = max(len(t) for row in texts for t in row)
    return [" ".join(t.rjust(width) for t in row) for row in texts]


def _render_design(kind, obj, style):
    lines = []
    if kind == "ls":
        cells = np.asarray(obj)
        lines += _grid_lines([[str(int(x)) for x in row] for row in cells])
    elif kind == "mols":
        for a, sq in enumerate(obj, start=1):
            lines.append(f"square {a}:")
            lines += _grid_lines([[str(int(x)) for x in row] for row in sq])
    else:
        d = obj.d
        lines += _grid_lines(
            [
                [
                    _pair_text(int(obj.ranks[r, c]), int(obj.suits[r, c]), d, style)
                    for c in range(d)
                ]
                for r in range(d)
            ]
        )
    return lines


def _print_report(label, report):
    status = "PASS" if report.passed else "FAIL"
    click.echo(
        f"{label}: {status} (tol {_fmt(report.tol)}, "
        f"max residual {_fmt(report.max_residual)})"
    )
    for family in sorted(report.family_residuals):
        click.echo(f"  {family}: {_fmt(report.family_residuals[family])}")
    for v in report.violations:
        click.echo(f"  violation {v.condition} at {v.where}: {_fmt(v.residual)}")


# ---------------------------------------------------------------------------
# command tree

# the required input file of the design and state commands that read one
_IN_FILE = click.option(
    "--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True
)


@click.group()
def main():
    """Classical and quantum Latin squares, AME states, 2-unitary searches."""


@main.group()
def design():
    """Generate, verify, and encode combinatorial designs."""


@design.command("gen")
@click.option("--kind", type=click.Choice(("ls", "mols", "ols")), required=True)
@click.option("--order", type=int, required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option(
    "--render",
    "style",
    type=click.Choice(("digits", "cards")),
    default=None,
    help="Also print the design as a human-readable grid.",
)
@_guarded
def design_gen(kind, order, out_path, style):
    """Construct a design of the given order and emit it as JSON."""
    from .designs import OrthogonalLatinPair, cyclic_latin, mols_construct

    if kind == "ls":
        obj = cyclic_latin(order)
    elif kind == "mols":
        obj = mols_construct(order)
    else:
        squares = mols_construct(order)
        obj = OrthogonalLatinPair(ranks=squares[0], suits=squares[1])
    _emit_json(jsonio.design_to_json(kind, obj), out_path)
    if style:
        for line in _render_design(kind, obj, style):
            click.echo(line)


def _verify_dispatch(kind, obj, tol):
    from .designs import (
        OrthogonalLatinPair,
        oa_verify,
        qls_verify,
        qoa_verify,
        qols_verify,
        verify_latin,
        verify_orthogonal_pair,
    )

    if kind == "ls":
        return [("latin", verify_latin(obj))]
    if kind == "ols":
        return [("ols", verify_orthogonal_pair(obj))]
    if kind == "mols":
        out = [(f"latin[{i}]", verify_latin(sq)) for i, sq in enumerate(obj)]
        for i in range(len(obj)):
            for j in range(i + 1, len(obj)):
                pair = OrthogonalLatinPair(ranks=obj[i], suits=obj[j])
                out.append((f"pair({i},{j})", verify_orthogonal_pair(pair)))
        return out
    if kind == "qls":
        return [("qls", qls_verify(obj, tol))]
    if kind == "qols":
        return [("qols", qols_verify(obj, tol))]
    if kind == "oa":
        return [("oa", oa_verify(obj))]
    return [("qoa", qoa_verify(obj, tol))]


@design.command("verify")
@_IN_FILE
@click.option("--tol", type=float, default=1e-10, show_default=True)
@_guarded
def design_verify(in_path, tol):
    """Check a stored design and list every located violation."""
    _check_tol(tol)  # the combinatorial kinds take no tolerance to check it
    kind, obj = jsonio.design_from_json(jsonio.load_json(in_path))
    failed = False
    for label, report in _verify_dispatch(kind, obj, tol):
        _print_report(label, report)
        failed = failed or not report.passed
    sys.exit(MATH_FAILURE if failed else 0)


@design.command("encode")
@_IN_FILE
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_guarded
def design_encode(in_path, out_path):
    """Card-encode a stored orthogonal pair as its permutation matrix."""
    from .designs import ols_to_permutation

    kind, obj = jsonio.design_from_json(jsonio.load_json(in_path))
    if kind != "ols":
        raise FormatError(f"encode expects an ols design, got {kind!r}")
    _emit_json(jsonio.matrix_to_json(ols_to_permutation(obj)), out_path)


@main.group()
def state():
    """Build pure states and check marginal uniformity."""


@state.command("build")
@click.option("--from", "source", type=click.Choice(("ols", "matrix")), required=True)
@_IN_FILE
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_guarded
def state_build(source, in_path, out_path):
    """Four-party state from an orthogonal pair or a square matrix."""
    from .states import ame_from_ols, state_from_two_unitary

    if source == "ols":
        kind, obj = jsonio.design_from_json(jsonio.load_json(in_path))
        if kind != "ols":
            raise FormatError(f"--from ols needs an ols design, got {kind!r}")
        psi = ame_from_ols(obj)
    else:
        psi = state_from_two_unitary(
            jsonio.matrix_from_json(jsonio.load_json(in_path))
        )
    _emit_json(jsonio.state_to_json(psi), out_path)


@state.command("check")
@_IN_FILE
@click.option(
    "--k",
    type=int,
    default=None,
    help="Marginal size to test; default is the AME check at floor(N/2).",
)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@_guarded
def state_check(in_path, k, tol):
    """Per-subset marginal residual table for a stored state."""
    from .states import ame_check, k_uniform_check

    psi = jsonio.state_from_json(jsonio.load_json(in_path))
    if k is not None:
        report = k_uniform_check(psi, k, tol)
    else:
        report = ame_check(psi, tol)
    click.echo(f"{report.kind} check, k={report.k}, tol {_fmt(report.tol)}")
    if report.note:
        click.echo(f"note: {report.note}")
    for subset in sorted(report.subset_residuals):
        click.echo(
            f"  parties {subset}: residual "
            f"{_fmt(report.subset_residuals[subset])}"
        )
    click.echo(
        f"max residual {_fmt(report.max_residual)} "
        f"at parties {report.worst_subset}"
    )
    click.echo("PASS" if report.passed else "FAIL")
    sys.exit(0 if report.passed else MATH_FAILURE)


@main.command("search")
@click.option("--dim", type=int, required=True)
@click.option("--seeds", type=int, default=1, show_default=True)
@click.option(
    "--seed-kind",
    type=click.Choice(SEED_KINDS),
    default="perturbed-permutation",
    show_default=True,
)
@click.option(
    "--rng-seed",
    type=int,
    default=0,
    show_default=True,
    envvar="QEULER_RNG_SEED",
    help="Base seed; run i uses rng-seed + i. Env: QEULER_RNG_SEED.",
)
@click.option(
    "--epsilon",
    type=float,
    default=0.1,
    show_default=True,
    help="Noise scale; applies to perturbed-permutation seeds only.",
)
@click.option("--max-iter", type=int, default=None, help="Default 5000 for dim >= 6, else 2000.")
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option(
    "--jobs",
    type=int,
    default=None,
    help="Thread cap (default: CPU count); small sweeps and 1 run as one batch in the calling thread.",
)
@click.option(
    "--base-matrix",
    "base_matrix_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Matrix JSON overriding the built-in perturbed-permutation base; --epsilon 0 starts from it exactly. Not for random-unitary seeds.",
)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the sweep record as JSON.")
@click.option(
    "--best-matrix",
    "best_path",
    type=click.Path(dir_okay=False),
    default=None,
    help="Write the best run's terminal unitary as matrix JSON.",
)
@click.option(
    "--trace-csv",
    "trace_path",
    type=click.Path(dir_okay=False),
    default=None,
    help="Write the best run's defect trace as CSV.",
)
@_guarded
def search_cmd(
    dim,
    seeds,
    seed_kind,
    rng_seed,
    epsilon,
    max_iter,
    tol,
    jobs,
    base_matrix_path,
    out_path,
    best_path,
    trace_path,
):
    """Multi-seed alternating-projection sweep toward a 2-unitary of order dim**2.

    Each seed stops when it converges, when the map has reached a fixed
    point that is not 2-unitary (stalled: the reshuffle's singular values
    repeat those of three steps before), or at --max-iter; a tally of these
    stop reasons follows the summary. Exits 0 when at least one seed
    converges below --tol, 1 otherwise.
    """
    base = None
    if base_matrix_path is not None:
        base = jsonio.matrix_from_json(jsonio.load_json(base_matrix_path))
    config = SearchConfig(
        d=dim,
        seed_kind=seed_kind,
        rng_seed=rng_seed,
        epsilon=epsilon,
        max_iter=max_iter,
        tol=tol,
        base_matrix=base,
    )
    runs, summary = multi_seed_search(config, seeds, jobs=jobs)
    click.echo(
        f"runs {summary.n_runs}, converged {summary.n_converged}, "
        f"rate {_fmt(summary.convergence_rate)}"
    )
    click.echo(f"best terminal defect {_fmt(summary.best_defect)} (tol {_fmt(tol)})")
    reasons = collections.Counter(r.stop_reason for r in runs)
    click.echo(
        "stop reasons: "
        + ", ".join(f"{reason} {reasons[reason]}" for reason in STOP_REASONS)
    )
    iters = sorted(r.iterations_used for r in runs if r.converged)
    if iters:
        median = (iters[(len(iters) - 1) // 2] + iters[len(iters) // 2]) / 2
        click.echo(
            f"converged after iterations: min {iters[0]}, "
            f"median {_fmt(median)}, max {iters[-1]}"
        )
    best = min(runs, key=lambda r: float(r.defect_trace[-1]))
    if out_path:
        jsonio.save_json(
            jsonio.search_result_to_json(config, runs, summary, jobs=jobs), out_path
        )
        click.echo(f"wrote {out_path}")
    if best_path:
        jsonio.save_json(
            jsonio.matrix_to_json(best.terminal, block_dim=dim), best_path
        )
        click.echo(f"wrote {best_path}")
    if trace_path:
        jsonio.write_trace_csv(best, trace_path)
        click.echo(f"wrote {trace_path}")
    sys.exit(0 if summary.n_converged else MATH_FAILURE)


@main.command("bruteforce")
@click.option(
    "--dim",
    type=int,
    required=True,
    help="Local dimension d (2 or 3): the first call at each d tries every pair "
    "of Latin squares of order d and keeps the orthogonal ones, which decides "
    "all permutations of order d**2.",
)
@click.option(
    "--out",
    "out_path",
    type=click.Path(dir_okay=False),
    default=None,
    help="Write the surviving permutations (one-positions per column) as JSON.",
)
@_guarded
def bruteforce_cmd(dim, out_path):
    """Exhaust all order dim**2 permutation matrices for exact 2-unitarity.

    A permutation is 2-unitary exactly when it card-encodes an orthogonal
    pair of Latin squares, so the first call at each order tests every
    ordered pair of Latin squares of order dim for a repeated card and keeps
    the orthogonal ones, which decides every one of the (dim**2)!
    permutations; each call builds fresh matrices from them.
    """
    found = brute_force_permutations(dim)
    n = dim * dim
    click.echo(f"searched {math.factorial(n)} permutations of order {n}")
    click.echo(f"{len(found)} found")
    if out_path:
        payload = {
            "d": dim,
            "count": len(found),
            "one_positions": [[int(r) for r in m.argmax(axis=0)] for m in found],
        }
        jsonio.save_json(payload, out_path)
        click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
