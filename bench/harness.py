"""The workloads, their rounds, their checks and their metrics.

Every workload runs the same round: a multi_seed_search sweep and the
`qeuler search` CLI on the same seeds, each followed by a certificate pass
over the sweep's terminal matrices and by the exhaustive permutation search
at the largest order within reach, min(d, 3), with a fresh set-up before
each. Rounds repeat until the run's seconds are up, and every timing
reported is a median over its samples. See README.md for what each metric
measures and which layer should move it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

import qeuler.designs
import qeuler.linalg
import qeuler.solver
import qeuler.states
from qeuler.solver import SearchConfig

import checker
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SUBPROCESS_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    d: int
    n_seeds: int  # seeds per sweep; the CLI runs the same seeds
    max_iter: int | None
    tol: float
    seeded: bool  # False: the rng seeds are fixed and --seed is ignored
    bf_calls: int  # brute-force calls after each of the round's two stages

    @property
    def bf_order(self) -> int:
        return min(self.d, 3)

    @property
    def solution_exists(self) -> bool:
        # 2-unitaries (AME(4, d) states) exist for every order d*d except d = 2
        return self.d != 2

    @property
    def cert_tol(self) -> float:
        return 100 * self.tol


WORKLOADS = {
    # Criterion 4's configuration on its own first seeds, rng_seed 0 and 1:
    # they end on the 6 sin(pi/18) and the sqrt(3) plateau, a fault of
    # solver.search, so the failures are the same whatever --seed says.
    # 1000 iterations reach both plateaus (onset at 814 and 632).
    "order36-plateau": Workload(d=6, n_seeds=2, max_iter=1000, tol=1e-8, seeded=False, bf_calls=1),
    # Criterion 5's configuration: no 2-unitary of order 4 exists, so every
    # run must end unconverged; cheap iterations, mostly interpreter work.
    "order4-frustration": Workload(d=2, n_seeds=2, max_iter=10_000, tol=1e-10, seeded=True, bf_calls=50),
    # Every seed converges in 17 iterations: fixed costs (interpreter,
    # import, pool start-up, output files) and the certificates dominate.
    "order9-solve": Workload(d=3, n_seeds=100, max_iter=None, tol=1e-10, seeded=True, bf_calls=1),
}


class CheckFailed(Exception):
    """An output of qeuler disagrees with the checker or with the mathematics."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def search_config(w: Workload, seed: int) -> SearchConfig:
    return SearchConfig(
        d=w.d,
        seed_kind="perturbed-permutation",
        rng_seed=w.n_seeds * seed if w.seeded else 0,
        epsilon=0.1,
        max_iter=w.max_iter,
        tol=w.tol,
    )


def subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def environment(w: Workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpus = os.cpu_count() or 1
    return {
        "cpu_count": cpus,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        # multi_seed_search's default: min(n_seeds, cpu_count) processes
        "workers": min(w.n_seeds, cpus),
    }


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter imports qeuler and builds the first seed

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
from qeuler.solver import SearchConfig, seed_matrix
t1 = time.perf_counter()
seed_matrix(SearchConfig(**json.loads(sys.argv[1])))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "base_s": t2 - t1}))
"""


def set_up(config: SearchConfig) -> tuple[float, dict]:
    """Wall time of one fresh set-up, and the child's own import and base times."""
    spec = json.dumps({"d": config.d, "rng_seed": config.rng_seed, "epsilon": config.epsilon})
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, spec],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    expect(proc.returncode == 0, f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# checks on search results


def check_run(run, config: SearchConfig, w: Workload):
    trace = run.defect_trace
    where = f"rng_seed {run.seed['rng_seed']}"
    expect(len(trace) == run.iterations_used + 1, f"{where}: trace length is not iterations_used + 1")
    expect(run.iterations_used <= config.resolved_max_iter, f"{where}: ran past max_iter")
    expect(bool(run.converged) == bool(trace[-1] <= config.tol), f"{where}: converged flag disagrees with the trace")
    expect(checker.gram_defect(run.terminal) <= 1e-12, f"{where}: terminal matrix is not unitary to 1e-12")
    defect = checker.two_unitarity_defect(run.terminal)
    expect(abs(trace[-1] - defect) <= 1e-9, f"{where}: last trace entry {trace[-1]!r} != checker's defect {defect!r}")
    if not w.solution_exists:
        expect(not run.converged, f"{where}: converged at order {w.d * w.d}, where no 2-unitary exists")
        expect(float(trace.min()) > 1e-3, f"{where}: a trace entry fell to {trace.min()!r}, where no 2-unitary exists")


def check_summary(runs, summary):
    expect(summary.n_runs == len(runs), "summary n_runs")
    expect(summary.n_converged == sum(bool(r.converged) for r in runs), "summary n_converged")
    expect(summary.best_defect == min(float(r.defect_trace[-1]) for r in runs), "summary best_defect")


def check_same_runs(a, b, what):
    expect(len(a) == len(b), f"{what}: run counts differ")
    for x, y in zip(a, b):
        expect(
            x.iterations_used == y.iterations_used
            and np.array_equal(x.defect_trace, y.defect_trace)
            and np.array_equal(x.terminal, y.terminal),
            f"{what}: rng_seed {x.seed['rng_seed']} did not reproduce bit for bit",
        )


def flat_iterations(trace, rel=1e-9) -> int:
    """Iterations after the trace stopped changing (to rel of its last value)."""
    moving = np.flatnonzero(np.abs(trace - trace[-1]) > rel * abs(trace[-1]))
    return len(trace) - 1 - (int(moving[-1]) + 1 if moving.size else 0)


# ---------------------------------------------------------------------------
# one run of the benchmark


class Bench:
    def __init__(self, name: str, seed: int, out_dir: Path, traced: bool):
        self.w = WORKLOADS[name]
        self.config = search_config(self.w, seed)
        self.out_dir = out_dir
        self.tracer = Tracer() if traced else None
        self.attempted = 0
        self.failed = 0
        self.samples = defaultdict(list)
        self.reference = None  # the first pool sweep; every later sweep must match it
        self.bf_expected = {
            checker.card_permutation(x, y).tobytes()
            for x, y in checker.orthogonal_pairs(self.w.bf_order)
        }

    # -- stages ------------------------------------------------------------

    def sweep(self, jobs=None):
        t0 = time.perf_counter()
        runs, summary = qeuler.solver.multi_seed_search(self.config, self.w.n_seeds, jobs=jobs)
        elapsed = time.perf_counter() - t0
        for run in runs:
            check_run(run, self.config, self.w)
        check_summary(runs, summary)
        if self.reference is None:
            self.reference = runs
        else:
            check_same_runs(self.reference, runs, f"sweep with jobs={jobs}")
        return runs, elapsed

    def cli(self, runs):
        w, c = self.w, self.config
        files = {k: self.out_dir / f"cli_{k}" for k in ("sweep.json", "best.json", "best.csv")}
        for path in files.values():
            path.unlink(missing_ok=True)
        args = [
            "search", "--dim", str(w.d), "--seeds", str(w.n_seeds),
            "--rng-seed", str(c.rng_seed), "--epsilon", repr(c.epsilon),
            "--max-iter", str(c.resolved_max_iter), "--tol", repr(c.tol),
            "--out", str(files["sweep.json"]), "--best-matrix", str(files["best.json"]),
            "--trace-csv", str(files["best.csv"]),
        ]  # fmt: skip
        spans_path = self.out_dir / "cli_spans.json"
        launched = time.time()
        if self.tracer is None:
            cmd = [sys.executable, "-m", "qeuler.cli"] + args
        else:
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path), repr(launched)] + args
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, env=subprocess_env(), capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
        )
        elapsed = time.perf_counter() - t0
        converged = any(r.converged for r in runs)
        expect(
            proc.returncode == (0 if converged else 1),
            f"qeuler search exited {proc.returncode}: {proc.stderr.strip()[-400:]}",
        )
        self.check_cli_outputs(runs, proc.stdout, files)
        self.attempted += 1
        if not converged and w.solution_exists:
            self.failed += 1
        if self.tracer is not None:
            self.read_cli_spans(spans_path, files)
        return elapsed

    def check_cli_outputs(self, runs, stdout, files):
        c = self.config
        n_conv = sum(bool(r.converged) for r in runs)
        best = min(runs, key=lambda r: float(r.defect_trace[-1]))
        hist = defaultdict(int)
        for r in runs:
            if r.converged:
                hist[str(r.iterations_used)] += 1
        doc = json.loads(files["sweep.json"].read_text(encoding="utf-8"))
        expect(
            doc["config"]
            == {
                "d": c.d, "seed_kind": c.seed_kind, "rng_seed": c.rng_seed, "epsilon": c.epsilon,
                "max_iter": c.resolved_max_iter, "tol": c.tol, "n_seeds": len(runs), "jobs": None,
            },
            "CLI --out: config echo",
        )  # fmt: skip
        expect(
            [(r["seed"]["rng_seed"], r["converged"], r["iterations_used"], r["final_defect"]) for r in doc["runs"]]
            == [(c.rng_seed + i, bool(r.converged), r.iterations_used, float(r.defect_trace[-1])) for i, r in enumerate(runs)],
            "CLI --out: runs differ from the in-process sweep of the same seeds",
        )  # fmt: skip
        expect(
            doc["summary"]
            == {
                "n_runs": len(runs), "n_converged": n_conv, "convergence_rate": n_conv / len(runs),
                "best_defect": float(best.defect_trace[-1]), "iteration_histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0]))),
            },
            "CLI --out: summary differs from the in-process sweep",
        )  # fmt: skip
        mat = json.loads(files["best.json"].read_text(encoding="utf-8"))
        n = c.d * c.d
        entries = np.array([complex(re, im) for re, im in mat["entries"]]).reshape(n, n)
        expect(
            mat["order"] == n and mat["block_dim"] == c.d and np.array_equal(entries, best.terminal),
            "CLI --best-matrix differs from the in-process best terminal matrix",
        )
        with open(files["best.csv"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        expect(
            rows[0] == ["iteration", "defect"]
            and [(int(i), float(v)) for i, v in rows[1:]]
            == [(i, float(f"{x:.15g}")) for i, x in enumerate(best.defect_trace)],
            "CLI --trace-csv differs from the in-process best trace",
        )
        lines = stdout.splitlines()
        expect(
            lines[:2]
            == [
                f"runs {len(runs)}, converged {n_conv}, rate {n_conv / len(runs):.15g}",
                f"best terminal defect {float(best.defect_trace[-1]):.15g} (tol {c.tol:.15g})",
            ],
            f"CLI printed summary differs from the in-process sweep: {lines[:2]}",
        )

    def read_cli_spans(self, spans_path, files):
        doc = json.loads(spans_path.read_text(encoding="utf-8"))
        names = doc["names"]
        for code, start, end, _ in doc["spans"]:
            self.samples[f"cli:{names[code]}"].append((end - start) * 1e-9)
        self.samples["cli.startup"].append(doc["body_began"] - doc["launched"])
        self.samples["cli.bytes"].append(sum(p.stat().st_size for p in files.values()))

    def certify(self, runs):
        """One timed pass of the certificate chain over every terminal matrix."""
        w = self.w
        t0 = time.perf_counter()
        reports = []
        for r in runs:
            u = r.terminal
            defect = qeuler.linalg.two_unitarity_defect(u)
            q = qeuler.designs.qols_verify(qeuler.designs.square_from_unitary_rows(u), tol=w.cert_tol)
            a = qeuler.states.ame_check(qeuler.states.state_from_two_unitary(u), tol=w.cert_tol)
            reports.append((defect, q, a))
        self.samples["certify"].append(time.perf_counter() - t0)
        for r, report in zip(runs, reports):
            self.check_certificates(r, *report)
        self.attempted += len(runs)

    def check_certificates(self, r, defect, q, a):
        w = self.w
        u, where = r.terminal, f"rng_seed {r.seed['rng_seed']}"
        ours = checker.two_unitarity_defect(u)
        expect(abs(defect - ours) <= 1e-9, f"{where}: two_unitarity_defect {defect!r} != checker's {ours!r}")
        cq = checker.qols_residuals(u)
        for family, value in cq.items():
            expect(abs(q.family_residuals[family] - value) <= 1e-9, f"{where}: qols_verify {family} residual")
        expect(q.passed == (max(cq.values()) <= w.cert_tol), f"{where}: qols_verify verdict")
        cm = checker.marginal_residuals(u)
        expect(set(a.subset_residuals) == set(cm), f"{where}: ame_check marginal subsets")
        for keep, value in cm.items():
            expect(abs(a.subset_residuals[keep] - value) <= 1e-9, f"{where}: ame_check {keep} residual")
        expect(a.passed == (max(cm.values()) <= w.cert_tol), f"{where}: ame_check verdict")
        if r.converged:
            expect(ours <= 10 * w.tol, f"{where}: converged, but the checker's defect is {ours!r}")
            expect(max(cm.values()) <= 1e-9, f"{where}: converged, but a marginal is not I/d^2")
            noisy = u + 1e-6 * np.random.default_rng(0).standard_normal(u.shape)
            expect(checker.two_unitarity_defect(noisy) > 10 * w.tol, "checker accepts a perturbed found matrix")

    def brute_force(self):
        b = self.w.bf_order
        for _ in range(self.w.bf_calls):
            t0 = time.perf_counter()
            found = qeuler.solver.brute_force_permutations(b)
            self.samples["bruteforce"].append(time.perf_counter() - t0)
            got = [m.tobytes() for m in found]
            expect(
                len(set(got)) == len(got) and set(got) == self.bf_expected,
                f"brute force at order {b * b} found {len(got)} permutations, "
                f"the checker's enumeration {len(self.bf_expected)}",
            )
            expect(all(checker.two_unitarity_defect(m) == 0.0 for m in found), "brute force returned a defect above 0")
            self.attempted += 1

    # -- rounds --------------------------------------------------------------

    def round(self):
        # the short stages follow each long one, so that their samples spread
        # over the round on a machine whose speed swings within seconds
        self.samples["setup"].append(set_up(self.config))
        runs, elapsed = self.sweep()
        self.samples["sweep"].append(elapsed)
        self.attempted += len(runs)
        if self.w.solution_exists:
            self.failed += sum(not r.converged for r in runs)
        if self.tracer is not None:
            self.traced_sweeps(runs)
        self.short_stages(runs)
        self.samples["setup"].append(set_up(self.config))
        self.samples["cli"].append(self.cli(runs))
        self.short_stages(runs)

    def short_stages(self, runs):
        if self.tracer is None:
            self.certify(runs)
            self.brute_force()
        else:
            self.traced(self.certify_targets(), self.certify, runs)
            self.traced([(qeuler.solver, "brute_force_permutations", "solver.brute_force")], self.brute_force)

    def traced_sweeps(self, runs):
        """The serial baseline untraced, then traced; both must match the pool."""
        _, serial = self.sweep(jobs=1)
        self.samples["serial"].append(serial)
        self.samples["iterations"].append(sum(r.iterations_used for r in runs))
        self.samples["flat"].append(sum(flat_iterations(r.defect_trace) for r in runs))
        self.samples["converged"].append(sum(bool(r.converged) for r in runs) / len(runs))
        s = qeuler.solver
        targets = [(s, "search", "solver.search")] + [
            (s, f, f"linalg.{f}") for f in ("robust_svd", "reshuffle", "partial_transpose", "gram_defect")
        ]
        targets.append((scipy.linalg, "svd", "linalg.svd_fallback"))
        _, traced = self.traced(targets, self.sweep, 1)
        self.samples["traced"].append(traced)

    @staticmethod
    def certify_targets():
        return [
            (qeuler.linalg, "two_unitarity_defect", "linalg.two_unitarity_defect"),
            (qeuler.designs, "square_from_unitary_rows", "designs.square_from_unitary_rows"),
            (qeuler.designs, "qols_verify", "designs.qols_verify"),
            (qeuler.states, "state_from_two_unitary", "states.state_from_two_unitary"),
            (qeuler.states, "ame_check", "states.ame_check"),
        ]

    def traced(self, targets, fn, *args):
        for owner, attr, name in targets:
            self.tracer.wrap(owner, attr, name)
        try:
            with self.tracer.span(f"bench.{fn.__name__}"):
                return fn(*args)
        finally:
            self.tracer.unwrap_all()

    # -- results -------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        checker.self_test()
        qeuler.solver.seed_matrix(self.config)  # the base is cached from here on
        t0 = time.perf_counter()
        self.rounds = 0
        while self.rounds == 0 or time.perf_counter() - t0 < seconds:
            self.round()
            self.rounds += 1
        if self.tracer is None:
            metrics = self.end_to_end()
        else:
            metrics = self.per_layer()
            self.tracer.write(self.out_dir / "spans.json")
        return {"correct": True, "attempted": self.attempted, "failed": self.failed, "metrics": metrics}

    def end_to_end(self) -> dict:
        med = statistics.median
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "setup_s": (med(wall for wall, _ in self.samples["setup"]), "s"),
            "sweep_s": (med(self.samples["sweep"]), "s"),
            "cli_s": (med(self.samples["cli"]), "s"),
            "certify_s": (med(self.samples["certify"]), "s"),
            "bruteforce_s": (med(self.samples["bruteforce"]), "s"),
            "peak_rss_mb": ((own + children) / 1024, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def per_layer(self) -> dict:
        med = statistics.median
        t = self.samples
        rounds = self.rounds
        totals = self.tracer.totals()

        def calls(name):
            return totals.get(name, [0, 0, 0])[0] / rounds

        def mean_us(name):
            n, total, _ = totals.get(name, [0, 0, 0])
            return total / n / 1e3 if n else 0.0

        def busy_s(name):
            return totals.get(name, [0, 0, 0])[1] / rounds * 1e-9

        def cli_mean_us(name):
            return statistics.fmean(t[f"cli:{name}"]) * 1e6

        iterations = med(t["iterations"])
        serial, sweep, traced = med(t["serial"]), med(t["sweep"]), med(t["traced"])
        workers = min(self.w.n_seeds, os.cpu_count() or 1)
        search_self_s = totals["solver.search"][2] / rounds * 1e-9
        bf_candidates = math.factorial(self.w.bf_order**2)
        values = {
            "linalg.robust_svd.calls": (calls("linalg.robust_svd"), "count"),
            "linalg.robust_svd.us": (mean_us("linalg.robust_svd"), "us"),
            "linalg.robust_svd.busy_s": (busy_s("linalg.robust_svd"), "s"),
            "linalg.svd_fallbacks": (calls("linalg.svd_fallback"), "count"),
            "linalg.reshuffle.calls": (calls("linalg.reshuffle"), "count"),
            "linalg.reshuffle.us": (mean_us("linalg.reshuffle"), "us"),
            "linalg.partial_transpose.calls": (calls("linalg.partial_transpose"), "count"),
            "linalg.partial_transpose.us": (mean_us("linalg.partial_transpose"), "us"),
            "linalg.gram_defect.calls": (calls("linalg.gram_defect"), "count"),
            "linalg.gram_defect.us": (mean_us("linalg.gram_defect"), "us"),
            "solver.search.self_us_per_iter": (search_self_s / iterations * 1e6, "us"),
            "solver.iter_us": (serial / iterations * 1e6, "us"),
            "solver.iterations": (iterations, "count"),
            "solver.flat_iter_ratio": (med(t["flat"]) / iterations, "ratio"),
            "solver.converged_ratio": (med(t["converged"]), "ratio"),
            "solver.base_s": (med(info["base_s"] for _, info in t["setup"]), "s"),
            "solver.import_s": (med(info["import_s"] for _, info in t["setup"]), "s"),
            "solver.serial_sweep_s": (serial, "s"),
            "solver.pool_speedup": (serial / sweep, "ratio"),
            "solver.pool_overhead_s": (sweep - serial / workers, "s"),
            "solver.brute_force.candidates_per_s": (bf_candidates / med(t["bruteforce"]), "1/s"),
            "linalg.two_unitarity_defect.us": (mean_us("linalg.two_unitarity_defect"), "us"),
            "designs.square_from_unitary_rows.us": (mean_us("designs.square_from_unitary_rows"), "us"),
            "designs.qols_verify.us": (mean_us("designs.qols_verify"), "us"),
            "states.state_from_two_unitary.us": (mean_us("states.state_from_two_unitary"), "us"),
            "states.ame_check.us": (mean_us("states.ame_check"), "us"),
            "jsonio.save_json.us": (cli_mean_us("jsonio.save_json"), "us"),
            "jsonio.write_trace_csv.us": (cli_mean_us("jsonio.write_trace_csv"), "us"),
            "jsonio.bytes": (med(t["cli.bytes"]), "bytes"),
            "cli.startup_s": (med(t["cli.startup"]), "s"),
            "trace.overhead_ratio": (traced / serial - 1.0, "ratio"),
            "trace.sweep_accounted_ratio": (
                (busy_s("linalg.robust_svd") + search_self_s) / traced, "ratio"
            ),
        }  # fmt: skip
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
