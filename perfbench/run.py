"""pcattack benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload attack-tall --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the environment, the workload's metrics under their
descriptive names and any failed checks.  Full results and the traced spans
are written under ``.perfbench_out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# One BLAS thread: on a shared two-core machine a second thread roughly
# doubled the run-to-run spread of every timing, as other tenants took the core.
BLAS_THREADS = 1


def configure() -> int:
    """Pin BLAS threads and put the checkout's source first on the path.

    Must run before numpy is imported.  Returns the number of usable cores.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARIABLES:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.path.insert(0, str(ROOT / "src"))
    return nproc


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(result: dict, spec: dict) -> None:
    """Print the human-readable lines, write the result files, print the JSON line."""
    out_dir = ROOT / ".perfbench_out"
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    tracer = result.pop("tracer")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.jsonl",
                     {"workload": result["workload"], "seed": result["seed"],
                      "environment": result["environment"]})
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n",
                                          encoding="utf-8")

    print("environment: " + json.dumps(result["environment"]))
    for name, value in {**result["aliases"], "failed_frac": result["failed_frac"]}.items():
        print(f"{result['workload']}: {name} = {value:.6g}")
    for name, value in result["raw"].items():
        print(f"{result['workload']}: {name} = {value:.6g} raw, at this machine's speed")
    if result["tail_percentile"] is not None:
        print(f"op_tail_ms is p{result['tail_percentile']:.1f} of {result['samples']} samples")
    for target in result["absent"]:
        print(f"absent: {target}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pcattack" / "__init__.py").is_file():
        print(f"error: no pcattack source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = configure()
    import harness

    report(harness.run(args.workload, args.seed, args.seconds, bool(args.trace), nproc), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
