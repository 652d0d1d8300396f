"""lefttail benchmark: one workload per call, figures as one JSON line.

    python3 perfbench/run.py --workload {search,sweep,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source tree (the package is imported from ``src``;
nothing needs installing).  Each call starts the workload in a fresh
worker process, capped to this machine's cores, and prints as its last
line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full record, with machine details and the commit, is also written to
``perfbench/results/``.  Exit code 0 when every output checked correct,
1 when some did not, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("search", "sweep", "cli")
#: Fresh processes per run that time set-up; the reported set-up time is
#: their median, since one interpreter start is too noisy to compare.
SETUP_SAMPLES = 7
#: Every call must end within this many seconds.
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(_nproc()) for var in THREAD_VARS})
    return env


def _commit() -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": _nproc(), "cpu": model, "platform": platform.platform(), "python": platform.python_version()}


def _steal_s() -> float:
    """CPU time the hypervisor gave to others, summed over this machine's
    CPUs, from /proc/stat; 0 where the counter is missing."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _worker(args, env: dict, deadline: float, *extra: str) -> tuple[dict, float]:
    """Start one worker, wait for it, return its JSON and its start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(5.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1]), t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "lefttail" / "__init__.py").is_file():
        print(f"error: no lefttail sources under {SRC}; run from a source tree", file=sys.stderr)
        return 2

    env = _worker_env()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            out, t0 = _worker(args, env, deadline, "--setup-only")
            setups.append(out["ready"] - t0)
        trace_out = ["--trace-out", str(RESULTS / f"{stem}-spans.json")] if args.trace else []
        steal = _steal_s()
        res, t0 = _worker(args, env, deadline, *trace_out)
        steal = _steal_s() - steal
        setups.append(res["ready"] - t0)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = res["layers"]
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    correct = res["problems"] == 0
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "machine": {**_machine(), "numpy": res["numpy"]},
        "setup_samples_s": setups,
        # a busy host shows here first: run-to-run drift follows steal time
        "host_steal_s": steal,
        # op_p90_ms is recorded but not a gated metric: on a busy host its
        # spread between runs exceeded the largest bound a metric may have
        **{k: res[k] for k in ("rounds", "ops_per_round", "wall_s", "op_p90_ms", "round_wall_s", "op_wall_s", "op_cpu_s", "messages")},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
