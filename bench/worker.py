"""One fresh, single-threaded interpreter running one job of one workload.

Started by ``run.py``, never imported.  The set-up time is measured from
the parent's clock reading just before it started this process
(``--spawned-at``, CLOCK_MONOTONIC, shared by all processes of the machine)
to the end of ``import seqop``; the harness's own imports and input
generation come after it.  The result is one JSON line on stdout.

    python3 bench/worker.py --spawned-at T --probe
    python3 bench/worker.py --spawned-at T --workload W --seed N --seconds S --trace 0|1 [--toy] [--trace-out PATH]
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import seqop  # noqa: E402
import seqop.acceptance  # noqa: E402,F401
import seqop.cli  # noqa: E402,F401

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    result = {"setup_s": READY - args.spawned_at}
    if not args.probe:
        import workloads

        ops, orders = workloads.prepare(args.workload, args.seed, args.seconds, args.toy)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer().install()
            outputs, seconds = tracer.run(lambda: workloads.run_rounds(args.workload, ops, orders))
            result["layers"] = tracer.metrics()
            result["unwrapped"] = tracer.leftovers()
            if args.trace_out:
                tracer.dump(args.trace_out)
        else:
            outputs, seconds = workloads.run_rounds(args.workload, ops, orders)
        result["wall_s"] = sum(map(sum, seconds))
        result["request_seconds"] = seconds
        result["operations"] = sum(map(len, outputs))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["misses"] = [
            miss for order, out in zip(orders, outputs) for miss in workloads.check(args.workload, [ops[i] for i in order], out)
        ]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
