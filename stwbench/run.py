"""Pipeline benchmark of stw at the flagship group (q, p, n) = (11, 5, 4).

    python3 stwbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: distinguish-flagship, certify-flagship, braid-invariants (see
README.md).  Run from the root of a source checkout: the program is
imported from its `src` directory.  Each job of a round runs in a fresh
worker process.

With --trace 0 the run first starts SETUP_SAMPLES set-up-only processes
and reports their median `setup_s`; it then repeats whole rounds while
the next one should end within S seconds of the start (at least one
round) and reports the median `run_s` and `peak_rss_mb` over the rounds.  With --trace 1 it runs one
round untraced and one traced, reports the per-layer metrics and writes
the spans' summary to stwbench/results/.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0

LAYER_SELF = (
    "double.context_for",
    "braid.framed_trace_counts",
    "cyclotomic.from_root_counts",
    "cyclotomic.inverse",
    "modular.modular_data",
    "modular.modularity_report",
    "modular.verlinde_table",
    "modular.w_matrix",
    "modular.w_identities",
    "modular.ba_block_formula_report",
    "modular.theory_data",
    "modular.equivalence_search",
    "quandle.single_color_check",
)
LAYER_CALLS = (
    "double.context_for",
    "braid.framed_trace_counts",
    "cyclotomic.from_root_counts",
    "cyclotomic.inverse",
    "quandle.single_color_check",
)
WORK_COUNTS = (
    "braid.basis_tuples",
    "modular.verlinde_table.entries",
    "modular.verlinde_table.rss_rise_mb",
    "modular.theory_data.keys",
    "modular.equivalence_search.nodes",
)


class Run:
    """One benchmark run: spawns the worker processes and tallies them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def spawn(self, job: dict) -> dict | None:
        job = dict(job, group=list(workloads.GROUP))
        job["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=json.dumps(job), capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            proc = None
        lines = proc.stdout.strip().splitlines() if proc is not None else []
        if proc is None or proc.returncode != 0 or not lines:
            detail = "timed out" if proc is None else proc.stderr.strip()[-2000:]
            self.attempted += job.get("ops", 0)
            self.failed += job.get("ops", 0)
            print(f"worker for {job['kind']} failed: {detail}", file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += result["failures"]
        for err in result["errors"]:
            print(f"operation failed: {err}", file=sys.stderr)
        return result

    def round(self, trace: bool) -> list[dict] | None:
        results = []
        for job in workloads.round_jobs(self.workload, self.seed):
            result = self.spawn(dict(job, trace=trace))
            if result is None:
                return None
            results.append(result)
        return results

    def setup_sample(self) -> float | None:
        job = {"kind": "setup", "theories": workloads.setup_theories(self.workload),
               "ops": 0}
        result = self.spawn(job)
        return None if result is None else result["setup_s"]


def _round_figures(results: list[dict]) -> dict:
    return {
        "run_s": sum(r["run_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["maxrss_mb"] for r in results),
        "setup_s": [r["setup_s"] for r in results],
    }


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    start = time.monotonic()
    setups = [run.setup_sample() for _ in range(SETUP_SAMPLES)]
    rounds = []
    while True:
        round_start = time.monotonic()
        results = run.round(trace=False)
        if results is None:
            break
        rounds.append(_round_figures(results))
        now = time.monotonic()
        # Start another round only if it should end within the run's time.
        if now + (now - round_start) > min(start + seconds, run.deadline):
            break
    if not rounds or None in setups:
        raise RuntimeError("no complete round or set-up sample")
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(r["run_s"] for r in rounds), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"
        },
    }
    return metrics, {"setup_samples": setups, "rounds": rounds}


def _sum_layers(traces: list[dict]) -> tuple[dict, dict]:
    layers: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for trace in traces:
        for name, row in trace["layers"].items():
            acc = layers.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return layers, counts


def measure_traced(run: Run) -> tuple[dict, dict]:
    plain = run.round(trace=False)
    traced = run.round(trace=True) if plain is not None else None
    if traced is None:
        raise RuntimeError("no complete untraced and traced round")
    plain_fig, traced_fig = _round_figures(plain), _round_figures(traced)
    traces = [r["trace"] for r in traced]
    layers, counts = _sum_layers(traces)
    zero = {"calls": 0, "self_s": 0.0, "run_self_s": 0.0}

    def layer(name: str) -> dict:
        return layers.get(name, zero)

    metrics: dict[str, dict] = {}
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = {"value": layer(name)["self_s"], "unit": "s"}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = {"value": layer(name)["calls"], "unit": "count"}
    metrics["braid.invariant.self_s"] = {
        "value": layer("braid.framed_invariant")["self_s"]
        + layer("braid.zero_framed_invariant")["self_s"],
        "unit": "s",
    }
    for name in WORK_COUNTS:
        unit = "MB" if name.endswith("_mb") else "count"
        metrics[name] = {"value": counts.get(name, 0), "unit": unit}
    unattributed = sum(t["unattributed_s"] for t in traces)
    metrics["trace.unattributed_s"] = {"value": unattributed, "unit": "s"}
    metrics["process.cpu_s"] = {"value": plain_fig["cpu_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced_fig["run_s"] - plain_fig["run_s"], "unit": "s"
    }
    run_self = sum(row["run_self_s"] for row in layers.values())
    detail = {
        "untraced": plain_fig,
        "traced": traced_fig,
        "accounting": {
            "traced_run_s": traced_fig["run_s"],
            "run_phase_self_s": run_self,
            "unattributed_s": unattributed,
            "residual_s": traced_fig["run_s"] - run_self - unattributed,
        },
        "share_of_traced_run_s": {
            name: row["run_self_s"] / traced_fig["run_s"]
            for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["run_self_s"])
        },
        "layers": layers,
        "counts": counts,
        "processes": traces,
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stw" / "__init__.py").is_file():
        print(f"no stw sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            metrics, detail = measure_traced(run)
        else:
            metrics, detail = measure(run, args.seconds)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for message in run.failures:
        print(f"check failed: {message}", file=sys.stderr)
    summary = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'run'}.json"
    with open(RESULTS / name, "w") as handle:
        json.dump(dict(summary, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, detail=detail), handle, indent=1)
    for key, metric in metrics.items():
        print(f"{key:40s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
