"""Write ``reference.json``: the default seed's modeled outputs, pinned.

Runs one untraced pass of every workload at ``DEFAULT_SEED`` and
records the digests the checks compare against.  Figures that
``BENCH_pr2.json`` already holds are compared with it, not pinned; the
script refuses to pin if any of them differ.  Re-pin only with a change
that names the model fix it makes::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    seed = workloads.DEFAULT_SEED
    bench_pr2 = workloads.bench_pr2_figures(run.ROOT)
    reference = {"figures": {"text_sha": {}, "figure_sha": {}}}

    figures = run.spawn("figures", seed, "pass")["summary"]["modules"]
    for short, module in figures.items():
        reference["figures"]["text_sha"][short] = module["text_sha"]
        for figure in module["figures"]:
            name = figure["figure"]
            if name in bench_pr2:
                if figure != bench_pr2[name]:
                    sys.stderr.write(f"{name!r} differs from BENCH_pr2.json\n")
                    return 1
            else:
                reference["figures"]["figure_sha"][name] = workloads.digest(figure)

    for name in ("serving", "serving-overload"):
        summary = run.spawn(name, seed, "pass")["summary"]
        reference[name] = {
            "records_sha": summary["records_sha"],
            "outcomes": summary["outcomes"],
        }

    backends = run.spawn("join", seed, "pass")["summary"]["backends"]
    shas = {workloads.digest(result) for result in backends.values()}
    if len(shas) != 1:
        sys.stderr.write("join backends disagree; refusing to pin\n")
        return 1
    reference["join"] = {"backend_sha": shas.pop()}

    with open(run.HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
