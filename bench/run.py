"""The seqop benchmark: one command per workload run, run from the repo root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selfcheck

Workloads: ``verify``, ``homology-full``, ``homology-stages`` and
``cochain-ops`` (see ``workloads.py``).  Every job runs in a fresh,
single-threaded worker process, one at a time.  A run is one job of the
workload, with ``SETUP_PROBES`` workers that only import seqop started
before and after it.  The batch jobs are fixed and take longer than
``--seconds``; the ``cochain-ops`` stream sends one set of requests in
rounds, ``REQUESTS_PER_SECOND`` requests per second of ``--seconds`` in
all.  The outputs of every job are checked exactly, outside the timed
region.

With ``--trace 0`` the run reports the end-to-end metrics.  A request is
one call a user makes: one ``seqop verify``, one ``seqop homology``, one
``cochain-ops`` command.  Its latency is its time, or on ``cochain-ops`` the
median of its times over the rounds, so that a stall of the shared host
during one round does not move the figures:

- ``wall_s``: time from the first call into seqop to the last result, as
  the sum of the request latencies, so input generation, checks and the
  harness's work between requests are left out; on ``cochain-ops`` this is
  one pass of the request set;
- ``req_p50_ms``, ``req_p99_ms``, ``req_per_s``: per-request latency and
  throughput.  ``req_p99_ms`` is the 99th percentile when at least 10
  samples lie beyond it, and otherwise the largest sample; the printed
  line says which;
- ``setup_s``: worker start through ``import seqop`` (median over all
  workers of the run);
- ``peak_rss_mb``: ``ru_maxrss`` of the worker.

``failed_frac`` (missed operations / attempted operations, where an
operation is a criterion, a complex or a request) is printed with them and
carried by ``attempted`` and ``failed`` in the result line.

With ``--trace 1`` the run adds one traced job after the untraced one and
reports the per-layer metrics of ``tracer.py``, with ``trace.overhead_frac``
as traced ``wall_s`` against untraced ``wall_s``, minus one.

The last stdout line is the JSON result.  Each run also writes its record
(metadata, metrics, samples, misses) and, when traced, its spans under
``.bench_out/``.  ``--selfcheck`` runs every workload at toy size, traced
and untraced, and fails if a metric named in ``BENCHMARK.json`` is missing
or the layer self times do not add up to the traced wall time.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 170
WORKLOADS = ("verify", "homology-full", "homology-stages", "cochain-ops")
OPERATION = {"verify": "criteria", "homology-full": "complexes", "homology-stages": "complexes", "cochain-ops": "requests"}
REQUEST = {"verify": "verify calls", "homology-full": "homology calls", "homology-stages": "homology calls", "cochain-ops": "requests"}
E2E_UNITS = {"wall_s": "s", "req_p50_ms": "ms", "req_p99_ms": "ms", "req_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def _spawn(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--spawned-at", repr(time.monotonic()), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _metadata(workload: str, seed: int, trace: int) -> dict:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as handle:
                    commit = handle.read().strip()
    src_lines = 0
    digest = hashlib.sha256()  # names the code when there is no .git
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        with open(path, "rb") as handle:
            data = handle.read()
        src_lines += data.count(b"\n")
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def measure(workload: str, seed: int, seconds: float, trace: int, toy: bool = False) -> dict:
    """Run one benchmark run and return its record."""
    job_args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)] + (["--toy"] if toy else [])
    setups = [_spawn(["--probe"])["setup_s"] for _ in range(SETUP_PROBES // 2)]
    job = _spawn(job_args + ["--trace", "0"])
    setups += [_spawn(["--probe"])["setup_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups.append(job["setup_s"])
    traced = None
    spans_path = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
        traced = _spawn(job_args + ["--trace", "1", "--trace-out", spans_path])

    rounds = job["request_seconds"]
    latencies = [statistics.median(times) for times in zip(*rounds)]
    wall = sum(latencies)
    n = len(latencies)
    requests = REQUEST[workload]
    per = f" (each its median over {len(rounds)} rounds)" if len(rounds) > 1 else ""
    p99 = statistics.quantiles(latencies, n=100)[98] if n >= 2 else latencies[0]
    beyond = sum(1 for s in latencies if s > p99)
    if beyond < 10:
        p99 = max(latencies)
        p99_note = f"largest of {n} {requests} (fewer than 10 beyond p99)"
    else:
        p99_note = f"p99 of {n} {requests}, {beyond} beyond it"
    end_to_end = {
        "wall_s": (wall, f"one pass of {n} {requests}{per}" if per else f"one job of {job['operations']} {OPERATION[workload]}"),
        "req_p50_ms": (1000 * statistics.median(latencies), f"median of {n} {requests}{per}"),
        "req_p99_ms": (1000 * p99, p99_note + per),
        "req_per_s": (n / wall, f"{n} {requests} in {wall:.3f} s{per}"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} worker starts"),
        "peak_rss_mb": (job["peak_rss_mb"], "one worker"),
    }
    layers = None
    if traced is not None:
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["wall_s"] / job["wall_s"] - 1.0

    checked = [job] + ([traced] if traced else [])
    attempted = sum(j["operations"] for j in checked)
    misses = [tuple(miss) for j in checked for miss in j["misses"]]
    return {
        "meta": _metadata(workload, seed, trace),
        "end_to_end": end_to_end,
        "layers": layers,
        "attempted": attempted,
        "failed": len(misses),
        "correct": all(known_defect for _, known_defect, _ in misses),
        "misses": misses,
        "samples": {"setup_s": setups, "request_s": rounds},
        "spans_path": spans_path,
        "unwrapped": traced["unwrapped"] if traced else [],
    }


def _report(record: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    meta = record["meta"]
    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name, (value, note) in record["end_to_end"].items():
        print(f"  {name:<12} {value:>14.6f} {E2E_UNITS[name]:<4} {note}")
    frac = record["failed"] / record["attempted"]
    noun = OPERATION[meta["workload"]]
    print(f"  {'failed_frac':<12} {frac:>14.6f} {'':<4} {record['failed']} of {record['attempted']} {noun}")
    for (label, known_defect, message), count in sorted(Counter(record["misses"]).items()):
        kind = " (known defect)" if known_defect else ""
        print(f"MISS {count}x {label}{kind}: {message}")
    for site in record["unwrapped"]:
        print(f"UNTRACED {site}")
    if record["layers"] is not None:
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in record["layers"].items()}
        if record["spans_path"]:
            print(f"  spans written to {os.path.relpath(record['spans_path'], ROOT)}")
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, (value, _) in record["end_to_end"].items()}
    return {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def _save(record: dict, result: dict):
    os.makedirs(OUT_DIR, exist_ok=True)
    meta = record["meta"]
    path = os.path.join(OUT_DIR, f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json")
    payload = dict(record, result=result, end_to_end={k: v for k, (v, _) in record["end_to_end"].items()})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def selfcheck() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            started = time.monotonic()
            record = measure(workload, seed=1, seconds=0, trace=trace, toy=True)
            result = _report(record)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            names = {m["name"]: m["unit"] for m in wanted}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != names:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(names))} differ from BENCHMARK.json")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{workload}: {name} = {m['value']!r}")
                elif not trace and m["value"] <= 0:
                    problems.append(f"{workload}: {name} = {m['value']!r} is not positive")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: an operation that is not a known defect missed its check")
            if record["unwrapped"]:
                problems.append(f"{workload}: lookup sites left unwrapped: {record['unwrapped']}")
            if trace:
                layers = record["layers"]
                total = sum(v for k, v in layers.items() if k.endswith(".self.s")) + layers["trace.unattributed_s"]
                if abs(total - layers["trace.wall_s"]) > 1e-6 * max(1.0, layers["trace.wall_s"]):
                    problems.append(f"{workload}: layer self times add up to {total}, traced wall is {layers['trace.wall_s']}")
            print(f"selfcheck {workload} trace={trace}: {time.monotonic() - started:.1f} s")
    for problem in problems:
        print(f"SELFCHECK FAILED: {problem}")
    print("selfcheck ok" if not problems else f"selfcheck: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "seqop", "__init__.py")):
        print(f"error: no seqop sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            parser.error("--workload is required")
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = _report(record)
    _save(record, result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
