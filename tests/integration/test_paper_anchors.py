"""Tripwire: every paper anchor stays within its documented tolerance.

EXPERIMENTS.md documents which published values the simulation matches
and which deviate (and why).  This test walks every PAPER anchor of
every figure module and asserts the current simulation stays within the
tolerance class assigned to it — so a calibration change that silently
breaks a reproduced figure fails CI.
"""

from repro.bench import (
    fig12_transfer_methods,
    fig14_hashtable_locality,
    fig17_build_scaling,
    fig18_build_probe_ratio,
    fig21_coprocessing,
)

SCALE = 2.0**-13

#: (figure, row, series) -> allowed relative deviation. Anything not
#: listed defaults to TIGHT. LOOSE entries are the documented
#: deviations in EXPERIMENTS.md.
TIGHT = 0.15
MEDIUM = 0.30
LOOSE = None  # excluded: catalogued deviation

OVERRIDES = {
    ("Figure 12", "staged_copy", "nvlink2"): MEDIUM,
    ("Figure 14", "A", "rcpu"): MEDIUM,
    ("Figure 14", "A", "rgpu"): MEDIUM,
    ("Figure 14", "B", "cpu"): MEDIUM,
    ("Figure 14", "B", "rcpu"): MEDIUM,
    ("Figure 14", "B", "rgpu"): MEDIUM,
    ("Figure 14", "C", "gpu"): MEDIUM,
    ("Figure 14", "C", "cpu"): LOOSE,
    ("Figure 14", "C", "rcpu"): LOOSE,
    ("Figure 14", "C", "rgpu"): LOOSE,
    ("Figure 17", "512M", "nvlink2"): LOOSE,
    ("Figure 17", "512M", "nvlink2-hybrid"): LOOSE,
    ("Figure 17", "2048M", "nvlink2"): LOOSE,
    ("Figure 17", "2048M", "nvlink2-hybrid"): LOOSE,
    ("Figure 21a", "A", "het"): MEDIUM,
    ("Figure 21a", "A", "gpu+het"): MEDIUM,
    ("Figure 21a", "B", "cpu"): MEDIUM,
    ("Figure 21a", "B", "het"): MEDIUM,
    ("Figure 21a", "C", "gpu+het"): LOOSE,
}


def _check(result):
    failures = []
    for row in result.rows:
        for series, value in row.values.items():
            paper = result.paper_value(row.label, series)
            if not paper:
                continue
            tolerance = OVERRIDES.get(
                (result.figure, row.label, series), TIGHT
            )
            if tolerance is None:
                continue
            error = abs(value - paper) / abs(paper)
            if error > tolerance:
                failures.append(
                    f"{result.figure} [{row.label}, {series}]: "
                    f"sim {value:.3g} vs paper {paper:.3g} "
                    f"({error:.0%} > {tolerance:.0%})"
                )
    assert not failures, "\n".join(failures)


def test_fig12_anchors():
    _check(fig12_transfer_methods.run(scale=SCALE))


def test_fig14_anchors():
    _check(fig14_hashtable_locality.run(scale=SCALE))


def test_fig17_anchors():
    _check(
        fig17_build_scaling.run(scale=SCALE, tuple_millions=(512, 2048))
    )


def test_fig18_anchors():
    _check(fig18_build_probe_ratio.run(scale=SCALE))


def test_fig21_anchors():
    _check(fig21_coprocessing.run(scale=SCALE))
