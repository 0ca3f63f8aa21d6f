"""One round of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|plain|traced

Starts the speed sampler (``speed.py``), sets up (imports tward, builds the
seeded inputs), then, unless the mode is ``setup``, runs the workload once,
timed, checks the results and prints one JSON line.  ``ready`` is the
CLOCK_MONOTONIC reading when set-up ended, so the parent can measure set-up
from the moment it started this process; ``setup_speed`` and
``setup_sampler_s`` let it scale that to the reference speed.  ``wall_s``
is the timed region at the reference speed, ``wall_raw_s`` as the clock
read it.  ``traced`` installs the tracer first and writes its spans to
``--spans``.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402

sampler = speed.Sampler()
sampler.start()

import tward  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    ap.add_argument("--spans", help="file for the spans of a traced round (.npz)")
    args = ap.parse_args()

    make, run, check = workloads.WORKLOADS[args.workload]
    inputs = make(args.seed)
    ready = time.monotonic()
    setup_speed, setup_own, _ = sampler.window(sampler.began, ready)
    record = {"ready": ready, "setup_speed": setup_speed, "setup_sampler_s": setup_own}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        ops = workloads.Ops()
        t0 = time.monotonic()
        outputs = run(tward, inputs, ops)
        t1 = time.monotonic()
        sampler.stop()
        run_speed, _, samples = sampler.window(t0, t1)
        record.update(
            wall_s=sampler.elapsed(t0, t1),
            wall_raw_s=t1 - t0,
            speed=run_speed,
            samples=samples,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=ops.attempted,
            failed=ops.failed,
        )
        if tracer is not None:
            record["layers"] = tracer.metrics()
            if args.spans:
                tracer.dump(args.spans)
        record["problems"] = check(inputs, outputs)
    sampler.stop()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
