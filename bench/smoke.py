"""Smoke check of the benchmark at tiny sizes; finishes in seconds.

    python3 bench/smoke.py

1. Each workload untraced, and one traced run, at --size smoke: exit
   0, and a last line with exactly the keys, metric names and units
   BENCHMARK.json declares, and no metric that reads 0.
2. Each independent check rejects a report with one wrong number.
3. A copy holding only BENCHMARK.json and bench/ (no sources) exits
   nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

KEYS = {"correct", "attempted", "failed", "metrics"}


def _require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"smoke check failed: {what}")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run(name: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=180,
    )
    _require(done.returncode == 0, (name, trace, done.stdout, done.stderr))
    result = _last_json(done.stdout)
    _require(set(result) == KEYS, result.keys())
    _require(result["correct"] and result["failed"] == 0, result)
    return result


def _require_metrics(result: dict, declared: list[dict], what) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    _require(got == expected, (what, set(got) ^ set(expected)))
    zero = [k for k, v in result["metrics"].items() if not v["value"]]
    _require(not zero, (what, "metrics that read 0", zero))


def check_contract(declared: dict) -> None:
    for name in workloads.NAMES:
        result = _run(name, 0)
        _require_metrics(result, declared["end_to_end"], name)
        print(f"ok  {name} --trace 0: {result['attempted']} invocations")
    # a traced run traces every workload, whichever it measures untraced
    result = _run(workloads.NAMES[0], 1)
    _require_metrics(result, declared["per_layer"], "--trace 1")
    print(f"ok  --trace 1: {len(result['metrics'])} per-layer metrics, none 0")


def _tamper(name: str, report: bytes) -> bytes:
    lines = report.decode().splitlines(keepends=True)
    if name == "verify":  # one more field at -27D, verdict left as pass
        ell, D, dstar, n27, rhs, verdict = lines[1].rstrip("\n").split(",")
        lines[1] = f"{ell},{D},{dstar},{int(n27) + 1},{rhs},{verdict}\n"
    elif name == "tabulate":  # one more field at the first discriminant
        disc, count = lines[1].rstrip("\n").split(",")
        lines[1] = f"{disc},{int(count) + 1}\n"
    elif name == "classgroup":  # a trivial group where h(-23) = 3
        lines = [line.replace("-23,3,3,", "-23,1,1,") for line in lines]
    else:  # one more field observed and expected
        rows = json.loads(report)
        rows[0]["observed"] += 1
        rows[0]["expected"] += 1
        return json.dumps(rows).encode()
    tampered = "".join(lines).encode()
    _require(tampered != report, name)
    return tampered


def check_checks(reference: dict) -> None:
    for name in workloads.NAMES:
        workload = workloads.build(name, "smoke", 7, run.OUT, reference)
        inv = run.invoke(workload.argvs[0])
        _require(inv.code == 0 and workloads.check(workload, inv.report, reference) is None, name)
        reason = workloads.check(workload, _tamper(name, inv.report), reference)
        _require(reason is not None, f"{name}: tampered report passed")
        print(f"ok  {name} check rejects a tampered report: {reason}")


def check_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    _require(done.returncode != 0 and '"correct"' not in done.stdout, done)
    print(f"ok  without sources: exit {done.returncode}, no result")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    reference = json.loads((run.BENCH / "reference.json").read_text())
    check_contract(json.loads((run.ROOT / "BENCHMARK.json").read_text()))
    check_checks(reference)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
