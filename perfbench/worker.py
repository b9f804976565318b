"""One benchmark worker process: set up, run one closed loop, check every output.

Started by run.py, which passes the monotonic time it launched the worker
at, so that set-up time covers interpreter start, ``import hardycheck``,
input generation and one warm-up operation. Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

t_start = time.perf_counter()
import numpy  # noqa: E402

t_numpy = time.perf_counter()

import oracles  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
INTERPRETER_PROBES = 5


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (ROOT / ".git" / ref).is_file():
        return (ROOT / ".git" / ref).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(hc) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "hardycheck_path": str(Path(hc.__file__).resolve().parent),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def run_loop(wl, blocks, seconds: float, tracer=None) -> dict:
    """Closed loop over whole blocks of inputs until ``seconds`` have passed, each output checked.

    Stopping only between blocks keeps every run at the stated input mix.
    After every operation a kernel is timed to follow the host's speed:
    ``speed_kernel`` for in-process workloads, a bare interpreter start for the CLI.
    """
    kernel = speed.time_kernel if wl.in_process else lambda: speed.start_kernel("pass")
    dts = array("q")
    oks = bytearray()
    block_ends: list[int] = []
    cal: list[tuple[int, int]] = []  # (operations done before the sample, kernel ns)
    failures: dict[str, dict] = {}
    deadline = time.monotonic() + seconds
    for block in blocks:
        for case in block:
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter_ns()
            try:
                result, error = wl.op(case), None
            except Exception as exc:  # a failed operation is counted, never fatal
                result, error = None, exc
            dt = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.end_op()
            problems = [f"{type(error).__name__}: {error}"] if error is not None else wl.check(case, result)
            dts.append(dt)
            oks.append(not problems)
            if problems:
                kind = oracles.known_defect(wl.name, case, problems, error) or "unknown"
                entry = failures.setdefault(kind, {"count": 0, "examples": []})
                entry["count"] += 1
                if len(entry["examples"]) < 3:
                    entry["examples"].append({"input": repr(case), "problems": problems[:3]})
            cal.append((len(dts), kernel()))
        block_ends.append(len(dts))
        if time.monotonic() >= deadline:
            break
    ref_ns = speed.KERNEL_REF_NS if wl.in_process else speed.START_REF_NS["pass"]
    return {"dts": dts, "oks": oks, "block_ends": block_ends, "cal": cal, "ref_ns": ref_ns, "failures": failures}


def probe_known_defects(wl) -> dict:
    """Run each known-defect input once, untimed and uncounted; report whether it still fails as recorded."""
    report = {}
    for kind, case in wl.defect_probes():
        try:
            result, error = wl.op(case), None
        except Exception as exc:
            result, error = None, exc
        problems = [f"{type(error).__name__}: {error}"] if error is not None else wl.check(case, result)
        if not problems:
            status = "fixed"
        elif oracles.known_defect(wl.name, case, problems, error) == kind:
            status = "still fails"
        else:
            status = "fails otherwise"
        report.setdefault(kind, []).append({"input": repr(case), "status": status, "problems": problems[:3]})
    return report


def speed_factor(loop: dict) -> float:
    return loop["ref_ns"] / statistics.median(ns for _, ns in loop["cal"])


def summarize(loop: dict, normalize: bool = True) -> tuple[dict, dict]:
    """End-to-end metrics from one loop, except set-up time and memory.

    With ``normalize`` the operation times are scaled to the reference speed
    (``speed.scaled_times``). Throughput is correct operations per second of
    operation time.
    """
    oks = loop["oks"]
    n = len(oks)
    scaled = speed.scaled_times(loop) if normalize else [float(dt) for dt in loop["dts"]]
    lat = sorted(dt for dt, ok in zip(scaled, oks) if ok)
    if not lat:
        raise SystemExit("no operation finished correctly; nothing to measure")
    pct = next((p for p in TAIL_LADDER if len(lat) * (100 - p) / 100 >= 10), 50.0)
    rank = min(int(len(lat) * pct / 100), len(lat) - 1)
    tail = {"percentile": pct, "samples": len(lat), "beyond": len(lat) - rank - 1}
    failed = n - len(lat)
    metrics = {
        "ops_per_s": len(lat) / (sum(scaled) / 1e9),
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_tail_ms": lat[rank] / 1e6,
    }
    counts = {"attempted": n, "failed": failed, "failed_ratio": failed / n, "tail": tail, "failures": loop["failures"]}
    return metrics, counts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when run.py launched this worker")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import hardycheck as hc

    t_import = time.perf_counter()
    expected = (SRC / "hardycheck" / "__init__.py").resolve()
    if Path(hc.__file__).resolve() != expected:
        raise SystemExit(f"imported hardycheck from {hc.__file__}, not from {expected}")
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, hc, OUT_DIR, dict(os.environ), trace=False)
    blocks = wl.inputs(args.seed)
    try:
        wl.op(next(wl.inputs(args.seed))[0])  # warm-up: lazy caches, bytecode of src/
    except Exception:
        pass
    raw_setup_s = time.monotonic() - args.t0
    breakdown = {
        "import_numpy_s": t_numpy - t_start,
        "import_hardycheck_s": t_import - t_numpy,
        "inputs_and_warm_up_s": time.perf_counter() - t_import,
    }
    setup = {"raw_setup_s": raw_setup_s, "setup_breakdown": breakdown}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    record = {**setup, "environment": environment(hc), "known_defects": probe_known_defects(wl)}
    if not args.trace:
        loop = run_loop(wl, blocks, args.seconds)
        record["metrics"], counts = summarize(loop)
        record["raw_metrics"], _ = summarize(loop, normalize=False)
        record["speed_factor"] = speed_factor(loop)
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        record["metrics"]["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    else:
        # Untraced half, then the same inputs traced: the p50 difference is the tracing overhead.
        plain, _ = summarize(run_loop(wl, blocks, args.seconds / 2))
        tr = tracing.Tracer()
        # The cli.* layer is exercised only by the cli workload.
        extra = dict.fromkeys(("cli.interpreter_ms", "cli.import_ms", "cli.import_numpy_ms", "cli.parse_us", "cli.main_us"), 0.0)
        if wl.in_process:
            tr.install()
            traced_wl = wl
        else:
            traced_wl = workloads.make(args.workload, hc, OUT_DIR, dict(os.environ), trace=True)
        try:
            # CLI children trace themselves; their op spans arrive with their span files.
            loop = run_loop(traced_wl, wl.inputs(args.seed), args.seconds / 2, tr if wl.in_process else None)
            traced, counts = summarize(loop)
        finally:
            tr.uninstall()
        if not wl.in_process:
            extra.update(merge_children(tr, traced_wl.span_files))
        extra["hardy.p4_max_rel_err"] = getattr(wl, "max_p4_rel_err", 0.0)
        extra["trace.overhead_pct"] = 100 * (traced["latency_p50_ms"] / plain["latency_p50_ms"] - 1)
        # Span times are scaled like the end-to-end times, with the traced half's median factor.
        factor = speed_factor(loop)
        layers = tracing.layer_metrics(tr, extra)
        record["layers"] = {k: v * factor if k.endswith(("_us", "_ms")) else v for k, v in layers.items()}
        record["speed_factor"] = factor
        record["absent"] = tr.absent
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracing.write_trace(trace_file, tr, record["layers"], {"workload": args.workload, "seed": args.seed})
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    record.update(counts)
    record["inputs"] = wl.finish(args.seed, counts["attempted"])  # after peak RSS was read
    print(json.dumps(record))
    return 0


def merge_children(tr, span_files: list[Path]) -> dict:
    """Fold the span files of traced CLI children into ``tr``; return the cli.* timings."""
    timings: dict[str, list[int]] = {}
    for path in span_files:
        if not path.is_file():  # the child died before writing; already counted as failed
            continue
        data = json.loads(path.read_text())
        path.unlink()
        for key, value in data.pop("timings").items():
            timings.setdefault(key, []).append(value)
        tr.merge(data)
    probes = []
    for _ in range(INTERPRETER_PROBES):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        probes.append(time.perf_counter_ns() - t0)

    def med(key, scale):
        return statistics.median(timings[key]) / scale if timings.get(key) else 0.0

    return {
        "cli.interpreter_ms": statistics.median(probes) / 1e6,
        "cli.import_ms": med("import_ns", 1e6),
        "cli.import_numpy_ms": med("import_numpy_ns", 1e6),
        "cli.parse_us": med("parse_ns", 1e3),
        "cli.main_us": med("main_ns", 1e3),
    }


if __name__ == "__main__":
    raise SystemExit(main())
