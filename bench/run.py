"""Benchmark of the reflectron command line.

    python3 bench/run.py --workload {verify,tabulate,classgroup,reconcile,all}
                         --seed N --seconds S --trace {0,1} [--size {full,smoke}]

Runs the CLI as users do: one `reflectron` process per invocation, one
invocation at a time, repeated for S seconds (at least three times).
Every report is checked: exit code, sha256 against the reference
recorded in bench/reference.json, and an independent check of its
content (bench/workloads.py).  Times are medians over the invocations
and memory is the largest.  With --trace 1, every workload then runs
twice untraced and once traced (bench/tracer.py), and the per-layer
metrics of all four replace the end-to-end ones.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The
exit code is 0 only when every report was correct.

Every process is started and measured by bench/launch.py.  Everything
the run writes goes under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# what the `reflectron` console script runs
ENTRY = "import sys; from reflectron.cli import main; sys.exit(main())"
MIN_INVOCATIONS = 3


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    code: int
    report: bytes


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "REFLECTRON_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(argv: list[str], stdout_path: Path) -> tuple[float, float, float, int]:
    """Run one process to exit through bench/launch.py: wall time, CPU
    time and peak RSS of its process tree, and its exit code."""
    launcher = [sys.executable, "-S", str(BENCH / "launch.py"), str(stdout_path), "--"]
    with open(OUT / "stderr.txt", "ab") as err:
        done = subprocess.run(
            launcher + argv, stdout=subprocess.PIPE, stderr=err, env=_env(), cwd=ROOT, check=True
        )
    measured = json.loads(done.stdout)
    return measured["wall_s"], measured["cpu_s"], measured["peak_rss_mib"], measured["code"]


def invoke(args: tuple[str, ...]) -> Invocation:
    report = OUT / "report.out"
    wall, cpu, rss, code = _spawn([sys.executable, "-c", ENTRY, *args], report)
    return Invocation(wall, cpu, rss, code, report.read_bytes())


def setup_probe() -> float:
    """Wall time of a fresh interpreter that imports reflectron.cli and exits."""
    wall, _, _, code = _spawn([sys.executable, "-c", "import reflectron.cli"], OUT / "setup.out")
    if code != 0:
        raise RuntimeError(f"importing reflectron.cli failed with exit code {code}")
    return wall


class Checker:
    """Judges reports; the independent check runs once per distinct report."""

    def __init__(self, workload: workloads.Workload, size: str, reference: dict) -> None:
        self.workload = workload
        self.reference = reference
        self.digest = reference["digests"][size][workload.name]
        self._verdicts: dict[str, str | None] = {}

    def failure(self, code: int, report: bytes) -> str | None:
        if code != 0:
            return f"exit code {code}"
        digest = hashlib.sha256(report).hexdigest()
        if digest not in self._verdicts:
            self._verdicts[digest] = workloads.check(self.workload, report, self.reference)
        if self._verdicts[digest] is not None:
            return self._verdicts[digest]
        if digest != self.digest:
            return f"report sha256 {digest[:12]} differs from the reference"
        return None


def measure(workload: workloads.Workload, checker: Checker, seconds: float):
    """Alternate a setup probe and an invocation of the workload until
    another round of median length would pass `seconds`, and at least
    MIN_INVOCATIONS times.  Alternating makes both medians cover the same
    stretch of time, however the machine's speed drifts within it.
    """
    setup_probe()  # fills bytecode and file caches; not counted
    samples, setups, failures, rounds = [], [], [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        setups.append(setup_probe())
        inv = invoke(workload.argvs[len(samples) % len(workload.argvs)])
        samples.append(inv)
        reason = checker.failure(inv.code, inv.report)
        if reason:
            failures.append(reason)
        rounds.append(perf_counter() - round_start)
        if len(samples) >= MIN_INVOCATIONS:
            if perf_counter() - start + statistics.median(rounds) > seconds:
                return samples, setups, failures


def traced_run(workload: workloads.Workload, checker: Checker, run_id: str):
    """A warm-up invocation, then a pair of one untraced and one traced
    invocation of the workload's first input: the layer metrics of the
    traced one, compared with the untraced one, and every failure of
    the three."""
    # the first cubic-tab pool of a process sequence ran up to twice as
    # long as the next ones, which made the pair compare cold with warm
    warm = invoke(workload.argvs[0])
    paired = invoke(workload.argvs[0])
    failures = [checker.failure(inv.code, inv.report) for inv in (warm, paired)]
    prefix = OUT / f"trace-{workload.name}"
    argv = [sys.executable, str(BENCH / "tracer.py"), str(prefix), run_id, "--", *workload.argvs[0]]
    wall, _, _, code = _spawn(argv, OUT / "tracer.out")
    if code != 0:
        return None, [f for f in failures if f] + [f"tracer exited with code {code}"]
    meta = json.loads(Path(f"{prefix}.meta.json").read_text())
    report = Path(f"{prefix}.report").read_bytes()
    failures.append(checker.failure(meta["code"], report))
    metrics = tracer.layer_metrics(tracer.read_spans(f"{prefix}.spans.jsonl"), meta["observed"])
    metrics["cli.report_bytes"] = len(report)
    # only a pool has utilisation to report
    if workload.workers > 1:
        metrics["cubicforms.pool_utilisation"] = paired.cpu_s / (workload.workers * paired.wall_s)
    traced_wall = wall - meta["write_s"]
    metrics["trace.overhead_s"] = traced_wall - paired.wall_s
    metrics["trace.slowdown"] = traced_wall / paired.wall_s
    return metrics, [f for f in failures if f]


def trace_all(args, reference: dict) -> dict:
    """A traced run of every workload.  Per-layer metric names are
    `<workload>.<layer metric>`: each run reports all of them, whichever
    workload it measures untraced, so every declared metric has a value."""
    result = {"attempted": 0, "failures": [], "layers": {}}
    for name in workloads.NAMES:
        work = OUT / name
        work.mkdir(parents=True, exist_ok=True)
        workload = workloads.build(name, args.size, args.seed, work, reference)
        checker = Checker(workload, args.size, reference)
        layers, failures = traced_run(workload, checker, f"{name}-seed{args.seed}")
        result["attempted"] += 3
        result["failures"] += [f"traced run of {name}: {f}" for f in failures]
        print(f"{name} traced: reflectron {' '.join(workload.argvs[0])}")
        for reason in failures:
            print(f"  FAILED: {reason}")
        if layers is not None:
            result["layers"][name] = layers
            # metrics of layers this workload does not use read 0
            for key, value in layers.items():
                if value or key.endswith(".errors"):
                    print(f"  {key:38} {value:.6g}")
    return result


def run_workload(name: str, args, reference: dict) -> dict:
    work = OUT / name
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(name, args.size, args.seed, work, reference)
    checker = Checker(workload, args.size, reference)
    samples, setups, failures = measure(workload, checker, args.seconds)

    walls = [s.wall_s for s in samples]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "peak_rss_mib": max(s.peak_rss_mib for s in samples),
        "setup_s": statistics.median(setups),
    }
    q1, _, q3 = statistics.quantiles(walls, n=4)
    more = len(workload.argvs) - 1
    print(f"{name}: reflectron {' '.join(workload.argvs[0])}" + (f" (+{more} inputs)" if more else ""))
    print(f"  invocations        {len(samples)}, {len(failures)} failed")
    print(f"  wall_s             {end_to_end['wall_s']:.4f} s    median of {len(walls)} (q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  peak_rss_mib       {end_to_end['peak_rss_mib']:.2f} MiB  largest of {len(samples)}")
    print(f"  setup_s            {end_to_end['setup_s']:.4f} s    median of {len(setups)}")
    print(f"  error_rate         {len(failures) / len(samples):.4f}      {len(failures)}/{len(samples)}")
    print(f"  cpu_s              {statistics.median(s.cpu_s for s in samples):.4f} s    median")
    for reason in failures:
        print(f"  FAILED: {reason}")
    return {
        "argvs": workload.argvs,
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures,
        "samples": [
            {"wall_s": s.wall_s, "cpu_s": s.cpu_s, "peak_rss_mib": s.peak_rss_mib, "code": s.code}
            for s in samples
        ],
        "setup_samples_s": setups,
        "end_to_end": end_to_end,
        "error_rate": len(failures) / len(samples),
    }


def _environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = done.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args()

    if not (ROOT / "src" / "reflectron" / "cli.py").is_file():
        print(f"no reflectron sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    reference = json.loads((BENCH / "reference.json").read_text())
    environment = _environment()
    print(
        f"reflectron benchmark: sha {environment['git_sha'][:12]}, "
        f"python {environment['python']}, nproc {environment['nproc']}, "
        f"size {args.size}, seed {args.seed}, {args.seconds:g} s per workload"
    )

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args, reference) for name in names}
        traced = trace_all(args, reference) if args.trace else None
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"benchmark could not run: {err}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())

    # the metric names and units are the ones BENCHMARK.json declares
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    if traced is None:
        for name, result in results.items():
            prefix = f"{name}." if args.workload == "all" else ""
            for m in declared["end_to_end"]:
                value = result["end_to_end"][m["name"]]
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        attempted += traced["attempted"]
        failed += len(traced["failures"])
        for m in declared["per_layer"]:
            name, _, key = m["name"].partition(".")
            value = traced["layers"].get(name, {}).get(key)
            if value is not None:
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"seed": args.seed, "size": args.size, "environment": environment,
              "workloads": results, "traced": traced}
    path.write_text(json.dumps(record, indent=1) + "\n")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1

if __name__ == "__main__":
    sys.exit(main())
