"""One measured process: set up a workload, run one timed pass, report.

Started by ``run.py`` (one fresh process per pass, so every pass sees
the same interpreter state), with ``PYTHONPATH`` pointing at the
checkout's ``src``.  Prints one JSON object as its last stdout line::

    python3 perfbench/worker.py --workload serving --seed 0 --mode pass

``--mode setup`` stops after set-up; ``--mode traced`` wraps the
layers' public functions (see ``tracer.py``) before set-up, runs the
pass inside a root span and writes the spans to ``--spans``.  The host's
speed (``hostspeed.py``) is read once after set-up and around each timed
part of the pass; ``--cpu`` pins the process to one CPU so that those
readings and the parts run on the same one.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import sys
from time import perf_counter


def main(argv=None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "setup", "traced"), required=True)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--spans", default=None, metavar="PATH")
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    import repro  # noqa: F401  (set-up cost: the package import)

    for module in workload.modules:
        importlib.import_module(module)

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer, instrument

        tracer = Tracer(args.run_id)
        instrument(tracer)

    with contextlib.redirect_stdout(sys.stderr):
        inputs = workload.setup(args.seed)
    setup_s = perf_counter() - start
    from hostspeed import SpeedProbe

    probe = SpeedProbe()
    result = {"setup_s": setup_s, "setup_ref": probe.read()}
    if args.mode != "setup":
        speed = probe.read
        if tracer is not None:
            # A span of its own keeps the readings out of trace.other_s.
            def speed(read=speed):
                with tracer.span("hostspeed"):
                    return read()

        with contextlib.redirect_stdout(sys.stderr):
            if tracer is not None:
                with tracer.span("pass"):
                    timings, outputs = workload.run(inputs, tracer, speed)
            else:
                timings, outputs = workload.run(inputs, speed=speed)
        result["timings"] = timings
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        result["summary"] = workload.summary(inputs, outputs)
        if tracer is not None:
            from tracer import span_stats

            result["spans"] = span_stats(tracer.spans)
            result["counts"] = dict(tracer.counts)
            if args.spans:
                tracer.write(
                    args.spans,
                    {"workload": args.workload, "seed": args.seed},
                )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
