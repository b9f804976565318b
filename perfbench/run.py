"""hardycheck benchmark: seeded closed-loop workloads with checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh worker process with one caller and BLAS
threads pinned to 1; the worker imports hardycheck from ``src/``. The worker
is first started several times only to measure set-up time (the median is
reported), then once more to run the timed loop. Times are scaled to a
reference host speed (see speed.py); the unscaled figures are in the record.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints the per-layer metrics from a run whose second half is traced. The
last line of stdout is one JSON object; a full record of the run goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 9  # set-up-only worker starts per run; the median set-up time is reported
SETUP_TIMEOUT_S = 60
LOOP_GRACE_S = 120


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args: argparse.Namespace, workload: str, setup_only: bool) -> dict:
    env = worker_env()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed)]
    cmd += ["--seconds", repr(args.seconds), "--trace", str(args.trace), "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else args.seconds + LOOP_GRACE_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker for {workload} ran past {timeout} s") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker for {workload} exited {proc.returncode}: {proc.stderr.decode().strip()[-2000:]}")
    return json.loads(lines[-1])


def measure_setup(args: argparse.Namespace, workload: str) -> dict:
    """SETUP_RUNS set-up-only workers, each scaled by the cold-start kernels timed just before and after it."""
    code, env = "import numpy", worker_env()
    kernels = [speed.start_kernel(code, env)]
    raw = []
    for _ in range(SETUP_RUNS):
        raw.append(start_worker(args, workload, setup_only=True)["raw_setup_s"])
        kernels.append(speed.start_kernel(code, env))
    scaled = [r * speed.START_REF_NS[code] * 2 / (a + b) for r, a, b in zip(raw, kernels, kernels[1:])]
    return {"setup_runs_s": scaled, "raw_setup_runs_s": raw}


def run_workload(args: argparse.Namespace, workload: str, bench: dict) -> dict:
    setup = measure_setup(args, workload)
    record = {**start_worker(args, workload, setup_only=False), **setup}
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    measured = dict(record.get("layers") or record["metrics"], setup_s=statistics.median(record["setup_runs_s"]))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise WorkerError(f"{workload}: no value for {missing}; absent from hardycheck: {record.get('absent')}")
    record["reported"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    record["correct"] = record["failed"] == 0
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"run-{workload}-seed{args.seed}-trace{args.trace}.json"
    spec = json.loads((Path(__file__).parent / "spec.json").read_text())
    header = {"workload": workload, "seed": args.seed, "seconds": args.seconds, "spec": spec["workloads"][workload]}
    path.write_text(json.dumps({**header, **record}, indent=1))
    print_workload(workload, record, path)
    return record


def print_workload(workload: str, record: dict, path: Path) -> None:
    known = {k: v["count"] for k, v in record["failures"].items()}
    print(
        f"{workload}: attempted {record['attempted']}, failed {record['failed']} "
        f"(failed_ratio {record['failed_ratio']:.6g} = {record['failed']}/{record['attempted']}; by cause {known})"
    )
    for name, m in record["reported"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if "metrics" in record:
        tail, raw = record["tail"], record["raw_metrics"]
        print(
            f"  latency_tail_ms (printed, not gated)         {record['metrics']['latency_tail_ms']:.6g} ms"
            f"  (p{tail['percentile']:g} of {tail['samples']} correct ops, {tail['beyond']} beyond)"
        )
        print(
            f"  unscaled wall times: ops_per_s {raw['ops_per_s']:.6g}, latency_p50_ms {raw['latency_p50_ms']:.6g}, "
            f"latency_tail_ms {raw['latency_tail_ms']:.6g}, setup_s {statistics.median(record['raw_setup_runs_s']):.6g} "
            f"(host speed factor {record['speed_factor']:.3g})"
        )
    print(f"  inputs: {record['inputs']}")
    for kind, probes in record["known_defects"].items():
        print(f"  known defect {kind} (probed apart, not counted): {', '.join(p['status'] for p in probes)}")
    if record.get("absent"):
        print(f"  ABSENT from hardycheck (metrics left out): {record['absent']}")
    print(f"  environment: {json.dumps(record['environment'])}")
    print(f"  record: {path.relative_to(ROOT)}" + (f", spans: {record['trace_file']}" if "trace_file" in record else ""))
    for kind, entry in record["failures"].items():
        print(f"  failure {kind}: {entry['count']}, e.g. {entry['examples'][0]}", file=sys.stderr)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names + ["all"], required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hardycheck" / "__init__.py").is_file():
        print(f"error: no hardycheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    selfcheck = [sys.executable, str(Path(__file__).parent / "selfcheck.py")]
    check = subprocess.run(selfcheck, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if check.returncode != 0:
        print(f"error: the benchmark's self-check failed:\n{check.stderr.strip()}", file=sys.stderr)
        return 1
    print(check.stdout.strip())
    try:
        records = {w: run_workload(args, w, bench) for w in (names if args.workload == "all" else [args.workload])}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(records) > 1
    result = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {(f"{w}.{k}" if prefix else k): v for w, r in records.items() for k, v in r["reported"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
