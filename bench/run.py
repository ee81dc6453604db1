"""Benchmark of qeuler's 2-unitary search, its CLI and its certificates.

    python3 bench/run.py --workload order9-solve --seed 1 --seconds 20 --trace 0

Run it from the root of a qeuler checkout: the package is imported from
src/. A run repeats whole rounds of the workload until --seconds have
passed, checks every output against bench/checker.py, and prints the
environment and then, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics; --trace 1 a traced run's per-layer metrics. A failed
check ends the run with exit code 1 and no result. Files go to .bench_out/.
See bench/README.md.
"""

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qeuler" / "__init__.py").is_file():
        print(f"bench: no qeuler package under {SRC}; run from a qeuler checkout", file=sys.stderr)
        return 2

    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    out_dir = BENCH.parent / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = harness.Bench(args.workload, args.seed, out_dir, traced=bool(args.trace))
    try:
        result = bench.run(args.seconds)
    except harness.CheckFailed as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_resource_tracker()
    env = harness.environment(bench.w)
    env["rounds"] = bench.rounds
    record = {"env": env, **result, "samples": bench.samples}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


def stop_resource_tracker():
    """End the helper process that spawn-started pools leave running."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
