"""Benchmark entry point.

    python3 perfbench/run.py --workload denoise-desk --seed 1 --seconds 20 --trace 0

Runs from the repository root and imports noisetrans from ./src. With
--trace 0 it repeats whole rounds of the workload's operations until
--seconds have passed and prints the end-to-end metrics; with --trace 1 it
runs an untraced, a traced and another untraced round and prints the
per-layer metrics of the traced one.
Either way the outputs are checked, and the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import common  # noqa: E402

common.pin_blas()
common.pin_cpu()


def run_round(workload, number, tracer=None):
    """Run round `number`; returns (attempted, failed, per-denoise trace count deltas).

    Records each successful operation's (number, start, end) in workload.spans."""
    attempted = failed = 0
    deltas = []
    for label, op in workload.round():
        attempted += 1
        before = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        try:
            op()
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        workload.spans[label].append((number, t0, time.perf_counter()))
        if tracer and label.startswith("denoise"):
            deltas.append(tracer.snapshot() - before)
    return attempted, failed, deltas


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import speed
    probe = speed.SpeedProbe().start()
    try:
        return measure(args, parser, probe)
    finally:
        probe.stop()


def measure(args, parser, probe) -> int:
    common.use_repo_package()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {', '.join(workloads.WORKLOADS)})")
    workdir = os.path.join(common.REPO_ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_end = time.perf_counter()

        if args.trace:
            # untraced, traced, untraced: the first round also pays one-off
            # warm-up costs, so the overhead is taken against the faster one;
            # walls are rescaled to nominal CPU speed like the end-to-end times
            tracer = tracing.Tracer()
            walls, deltas, attempted, failed = [], [], 0, 0
            for number, traced in enumerate((False, True, False)):
                t0 = time.perf_counter()
                with tracer if traced else contextlib.nullcontext():
                    n, f, found = run_round(workload, number, tracer if traced else None)
                t1 = time.perf_counter()
                walls.append((t1 - t0) * probe.scale(t0, t1))
                attempted, failed = attempted + n, failed + f
                deltas += found
            metrics = tracing.layer_metrics(tracer)
            metrics["trace.overhead_s"] = (walls[1] - min(walls[0], walls[2]), "s")
            results = workload.checks() + workload.trace_checks(deltas)
        else:
            attempted = failed = number = 0
            t0 = time.perf_counter()
            while True:
                n, f, _ = run_round(workload, number)
                number += 1
                attempted, failed = attempted + n, failed + f
                if time.perf_counter() - t0 >= args.seconds:
                    break
            probe.stop()
            metrics = workload.metrics(probe.scale)
            metrics["setup_s"] = ((setup_end - T_START) * probe.scale(T_START, setup_end), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            results = workload.checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    print(json.dumps({"operation_seconds": {k: [b - a for _, a, b in v]
                                            for k, v in workload.spans.items()}}),
          file=sys.stderr)
    for r in results:
        print(f"{'ok  ' if r.ok else 'FAIL'} {r.name}: {r.detail}", file=sys.stderr)
    correct = all(r.ok for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
