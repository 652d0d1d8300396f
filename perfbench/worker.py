"""Run one workload in this (fresh) process and print its figures as JSON.

Started by run.py, never by hand.  The process sets up (imports the
program, makes the inputs from the seed), records the moment it is ready,
then runs whole rounds of the workload's operations, one at a time, until
``--seconds`` have passed.  Each operation is timed on its own and its
output checked after the timer stops.  With ``--setup-only`` it exits
once it is ready, which is how run.py takes several set-up samples.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

MAX_PROBLEMS = 20


def _cpu_s() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import workloads

    ops, min_ops = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import numpy

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    round_wall: list[float] = []
    round_cpu: list[float] = []
    op_wall: list[list[float]] = [[] for _ in ops]
    op_cpu: list[list[float]] = [[] for _ in ops]
    problems: list[str] = []
    counts = {"attempted": 0, "failed": 0, "problems": 0}

    def run_round() -> None:
        wall = cpu = 0.0
        for i, op in enumerate(ops):
            call = op.inproc if tracer is not None and op.inproc is not None else op.run
            counts["attempted"] += 1
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                if tracer is None:
                    out = call()
                else:
                    with tracer.span(f"op:{op.label}"):
                        out = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                counts["failed"] += 1
                problems.append(f"{op.label}: failed: {exc!r}")
                continue
            dt, dc = time.perf_counter() - t0, _cpu_s() - c0
            op_wall[i].append(dt)
            op_cpu[i].append(dc)
            wall += dt
            cpu += dc
            try:
                errs = op.check(out)
            except Exception as exc:  # a check that cannot run is a wrong answer
                errs = [f"{op.label}: check raised {exc!r}"]
            counts["problems"] += len(errs)
            problems.extend(errs)
        round_wall.append(wall)
        round_cpu.append(cpu)

    if tracer is not None:
        # warm-up round under tracemalloc for the memory peaks; its
        # timings are dropped because tracemalloc slows allocation
        tracer.memory = True
        run_round()
        tracer.memory = False
        tracer.reset()
        for samples in (round_wall, round_cpu, *op_wall, *op_cpu):
            samples.clear()

    start = time.perf_counter()
    while True:
        run_round()
        latencies = [dt for samples in op_wall for dt in samples]
        if time.perf_counter() - start >= args.seconds and len(latencies) >= min_ops:
            break

    if not latencies:
        print("error: every operation failed:\n" + "\n".join(problems[:MAX_PROBLEMS]), file=sys.stderr)
        return 1
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
    result = {
        "ready": ready,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "problems": counts["problems"],
        "messages": problems[:MAX_PROBLEMS],
        "rounds": len(round_wall),
        "ops_per_round": len(ops),
        "round_wall_s": round_wall,
        "op_wall_s": op_wall,
        "op_cpu_s": op_cpu,
        "wall_s": statistics.median(round_wall),
        "cpu_s": statistics.median(round_cpu),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        import tracing

        ms = tracing.import_ms() if args.workload == "cli" else 0.0
        result["layers"] = tracer.metrics(len(round_wall), ms)
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, **tracer.summary()}, fh)
    for msg in problems[:MAX_PROBLEMS]:
        print(msg, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
