"""Host-speed benchmark of the repro harness: one workload per call.

Measures how long the Python harness takes to produce the model's
numbers (host wall-clock), never the modeled seconds themselves, which
it only checks for exact equality::

    python3 perfbench/run.py --workload figures --seed 0 --seconds 28 --trace 0

Every timed pass runs in a fresh worker process (``worker.py``) that
imports ``repro`` from the checkout's ``src``, generates the inputs
(``setup_s``), collects garbage and times one pass, reading the host's
speed (``hostspeed.py``) before and after each of its parts (figure
modules, the ``serve()`` call, join backends).  Passes repeat until
``--seconds`` is spent.  ``pass_norm_s`` sums, over the parts, each
part's median time at the reference host speed: wall time swings with
the shared host's speed by far more than the bounds allow, the
normalised time by a few percent.  ``setup_s`` and ``peak_rss_mb`` are
medians over worker processes, ``setup_s`` over at least
``MIN_SETUP_SAMPLES`` of them, each at the reference speed too.
Stated per workload, ``pass_norm_s`` is
``figures_s``, ``serve_qps`` (requests per ``serve()`` second) or
``join_<backend>_mtps``, all at the reference speed; the summary lines
print those names, the wall-time ``pass_s``, ``failed_share`` and the
host's metadata.

``--trace 1`` pairs untraced with traced passes and reports the
per-layer metrics of ``layers.py`` instead; spans are written to
``.perfbench_out/``.  Either way every pass's modeled outputs are
checked (``workloads.check_pass``); the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

#: set-up samples per run; set-up-only processes top up the passes.
MIN_SETUP_SAMPLES = 5

#: a worker that takes longer than this has hung.
WORKER_TIMEOUT_S = 150

OUT_DIR = ROOT / ".perfbench_out"


def host_metadata() -> Dict[str, Any]:
    """Where the numbers were measured; never part of a RunManifest."""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # A checkout without .git (or with packed refs) reports no commit.
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            commit = ref
        elif (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "fork_available": "fork" in multiprocessing.get_all_start_methods(),
        "git_commit": commit,
    }


def spawn(
    workload: str, seed: int, mode: str, spans: str = "", run_id: str = "",
    cpu: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one worker process to completion and parse its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if spans:
        command += ["--spans", spans, "--run-id", run_id]
    if cpu is not None:
        command += ["--cpu", str(cpu)]
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(
            f"worker {workload}/{mode} exited with code {proc.returncode}"
        )
    return json.loads(lines[-1])


def spawn_together(jobs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Run the workers of ``jobs`` (``spawn`` keyword arguments) at once.

    Side-by-side workers are pinned one to a CPU, so each one's speed
    readings describe the CPU its parts ran on.
    """
    if len(jobs) == 1:
        return [spawn(**jobs[0])]
    cpus = sorted(os.sched_getaffinity(0))
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        futures = [
            pool.submit(spawn, **job, cpu=cpus[i % len(cpus)])
            for i, job in enumerate(jobs)
        ]
        return [future.result() for future in futures]


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Spawn passes until ``seconds`` is spent; returns the worker results.

    A single-threaded workload runs two passes at a time when two CPUs
    are usable: the passes barely slow each other, and twice the samples
    steady the medians.  ``join`` uses both CPUs in one pass, so its
    passes run one at a time.  A traced round pairs an untraced pass
    with a traced one.
    """
    width = 1
    if workloads.WORKLOADS[workload].single_threaded:
        width = min(2, len(os.sched_getaffinity(0)))
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    started = perf_counter()
    run_id = f"{workload}-seed{seed}-{int(time.time())}"
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        for stale in OUT_DIR.glob(f"spans-{workload}-[0-9]*.json.gz"):
            stale.unlink()
    while True:
        base = {"workload": workload, "seed": seed}
        if trace:
            spans = OUT_DIR / f"spans-{workload}-{len(traced)}.json.gz"
            jobs = [
                dict(base, mode="pass"),
                dict(base, mode="traced", spans=str(spans),
                     run_id=f"{run_id}-{len(traced)}"),
            ]
            rounds = [jobs] if width > 1 else [[job] for job in jobs]
        else:
            rounds = [[dict(base, mode="pass")] * width]
        round_start = perf_counter()
        for jobs in rounds:
            for result in spawn_together(jobs):
                (traced if result.get("spans") else untraced).append(result)
        one_round = perf_counter() - round_start
        # Start another round only if it ends within half a round of the
        # deadline, so a long pass still gets a repeat in a short run.
        if perf_counter() - started + one_round / 2 > seconds:
            break
    setups = [normalised_setup(r) for r in untraced]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        jobs = [{"workload": workload, "seed": seed, "mode": "setup"}] * width
        setups += [normalised_setup(r) for r in spawn_together(jobs)]
    return untraced, traced, setups


def pass_seconds(results: List[Dict[str, Any]]) -> float:
    """Sum over a pass's parts of each part's median time.

    Parts are figure modules, the one ``serve()`` call, or join backends;
    a noise burst during one part of one pass moves only that sample.
    """
    parts = results[0]["timings"]["parts"]
    return sum(_median([r["timings"]["parts"][p] for r in results]) for p in parts)


def normalised_setup(result: Dict[str, Any]) -> float:
    """Set-up time at the reference speed, read just after set-up."""
    return result["setup_s"] * hostspeed.NOMINAL_S / result["setup_ref"]


def normalised_parts(result: Dict[str, Any]) -> Dict[str, float]:
    """Each part's time at the reference host speed (``hostspeed.py``).

    A part's time is divided by the mean of the speed readings taken
    just before and just after it, then stated in seconds at
    ``hostspeed.NOMINAL_S``.
    """
    refs = result["timings"]["refs"]
    return {
        part: seconds * hostspeed.NOMINAL_S / ((refs[i] + refs[i + 1]) / 2)
        for i, (part, seconds) in enumerate(result["timings"]["parts"].items())
    }


def pass_norm_seconds(results: List[Dict[str, Any]]) -> float:
    """``pass_seconds`` over the parts' normalised times."""
    normalised = [normalised_parts(r) for r in results]
    return sum(_median([n[p] for n in normalised]) for p in normalised[0])


def check(workload: str, seed: int, results: List[Dict[str, Any]]):
    """(attempted, failed, problems) over every pass, traced ones too."""
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    attempted = failed = 0
    problems: List[str] = []
    first = results[0]["summary"]
    for index, result in enumerate(results):
        a, f, p = workloads.check_pass(
            workload, result["summary"], seed, reference, ROOT,
            first=first if index else None,
        )
        attempted += a
        failed += f
        problems += p
    return attempted, failed, problems


def end_to_end(untraced, setups) -> Dict[str, float]:
    return {
        "setup_s": _median(setups),
        "pass_norm_s": pass_norm_seconds(untraced),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
    }


def per_layer(workload: str, untraced, traced) -> Dict[str, float]:
    passes = [layers.traced_pass_metrics(r) for r in traced]
    out = {name: _median([p[name] for p in passes]) for name in passes[0]}
    out["trace.untraced_s"] = pass_norm_seconds(untraced)
    out["trace.traced_s"] = pass_norm_seconds(traced)
    out["trace.overhead_ratio"] = out["trace.traced_s"] / out["trace.untraced_s"]
    for backend in workloads.JOIN_BACKENDS:
        out[f"join.{backend}_mtps"] = (
            join_mtps(untraced, backend) if workload == "join" else 0.0
        )
    return out


def join_mtps(untraced, backend: str) -> float:
    tuples = untraced[0]["summary"]["tuples"]
    seconds = _median([normalised_parts(r)[backend] for r in untraced])
    return tuples / seconds / 1e6


def headline(workload: str, untraced) -> List[str]:
    """pass_norm_s as figures_s, serve_qps or join_*_mtps."""
    if workload == "figures":
        return [f"figures_s {pass_norm_seconds(untraced):.4f} s"]
    if workload == "join":
        return [
            f"join_{b}_mtps {join_mtps(untraced, b):.4f} Mtuples/s"
            for b in workloads.JOIN_BACKENDS
        ]
    submitted = untraced[0]["summary"]["submitted"]
    return [f"serve_qps {submitted / pass_norm_seconds(untraced):.2f} requests/s "
            f"({submitted} requests per serve() pass)"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/repro/__init__.py", "BENCH_pr2.json") if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"perfbench: not a repro checkout, missing {missing}\n")
        return 2

    untraced, traced, setups = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    attempted, failed, problems = check(args.workload, args.seed, untraced + traced)
    for problem in problems:
        sys.stderr.write(f"CHECK FAILED: {problem}\n")

    if args.trace:
        values = per_layer(args.workload, untraced, traced)
        units = layers.metric_units()
    else:
        values = end_to_end(untraced, setups)
        units = [("setup_s", "s"), ("pass_norm_s", "s"), ("peak_rss_mb", "MB")]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    print("host: " + json.dumps(host_metadata(), sort_keys=True))
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced / "
        f"{len(traced)} traced passes, {len(setups)} set-ups"
    )
    for line in headline(args.workload, untraced):
        print("  " + line)
    refs = [ref for r in untraced for ref in r["timings"]["refs"]]
    print(f"  pass_s {pass_seconds(untraced):.6g} s (wall time, not normalised); "
          f"speed readings {_median(refs):.4g} s median, "
          f"{min(refs):.4g}-{max(refs):.4g} s over {len(refs)}")
    print(f"  failed_share {failed / attempted:.4f} ratio ({failed} of {attempted} operations)")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
