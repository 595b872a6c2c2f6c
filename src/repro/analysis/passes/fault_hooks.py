"""Fault-hook coverage: chaos testing must see every risky site.

``repro.faults`` defines one hook per *site class* — the places a real
system fails and where PR 5's chaos suite injects faults:

========================  =======================  ====================
site class                trigger (this pass)      required hook
========================  =======================  ====================
work decomposition        a function under         ``check_morsel``
                          ``exec/`` that calls
                          ``plan_ranges``
worker loop               a loop that pulls from   ``check_morsel``
                          a morsel dispatcher
                          (``next_batch`` /
                          ``next_morsel``) under
                          ``exec/``
allocation site           a ``.reserve(...)``      ``check_alloc``
                          call or an
                          ``OutOfMemoryError``
                          raise under ``memory/``
                          or ``core/hashtable/``
transfer path             an ``ingest_bandwidth``  ``bandwidth_factor``
                          implementation's
                          ``effective_*`` wrapper
                          under ``transfer/``
========================  =======================  ====================

A new executor, allocator, or transfer method that forgets its hook
silently escapes chaos testing — every fault scenario in
``faults/scenarios.py`` would pass trivially against it.  The check is
interprocedural: the hook may live in a helper (``MorselExecutor.run``
→ ``plan_assignment`` → ``_take_receipt`` → ``fault_plan.check_morsel``), so
a site is covered when the hook name appears anywhere in the function's
transitive call closure.  An executor that cuts its input into morsels
but hands them out without the shared recovery planner is therefore a
finding.

One misuse rule rides along: raw ``ingest_bandwidth`` calls outside
``transfer/`` bypass the ``bandwidth_factor`` choke point (call
``effective_ingest_bandwidth``).
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Sequence

from repro.analysis.base import ProjectPass
from repro.analysis.finding import Finding, Severity
from repro.analysis.project import FunctionInfo, ModuleInfo, ProjectContext

#: dispatcher-pull call names that mark a worker loop.
_DISPATCH_NAMES = frozenset({"next_batch", "next_morsel"})

#: the call that marks a function decomposing work into morsels.
_DECOMPOSE_NAME = "plan_ranges"

#: names whose presence in a closure satisfies the morsel site class.
_MORSEL_HOOK = "check_morsel"
_ALLOC_HOOK = "check_alloc"
_LINK_HOOK = "bandwidth_factor"


class FaultHookCoveragePass(ProjectPass):
    name = "fault-hook-coverage"
    description = (
        "work decomposition, worker loops, allocation sites, and "
        "transfer paths must call "
        "their repro.faults hook (check_morsel / check_alloc / "
        "bandwidth_factor) so chaos testing covers them"
    )
    severity = Severity.ERROR
    scope = ("exec/", "memory/", "transfer/", "core/hashtable/", "plan/")

    def check_project(self, project: ProjectContext) -> Sequence[Finding]:  # type: ignore[override]
        assert isinstance(project, ProjectContext)
        findings: List[Finding] = []
        for info in project.modules.values():
            if not self.in_scope(info.path):
                continue
            for fn in _all_functions(info):
                findings.extend(self._check_function(project, info, fn))
        return findings

    def _check_function(
        self, project: ProjectContext, info: ModuleInfo, fn: FunctionInfo
    ) -> Iterator[Finding]:
        closure_names = project.called_names(fn.qualname)
        direct_names = frozenset(call.name for call in fn.calls)
        if "exec/" in info.path:
            yield from self._check_decomposition(info, fn, closure_names)
            yield from self._check_worker_loop(
                project, info, fn, closure_names
            )
        if "memory/" in info.path or "core/hashtable/" in info.path:
            yield from self._check_alloc_site(info, fn, closure_names)
        if "transfer/" in info.path:
            yield from self._check_transfer_path(info, fn, direct_names)
        else:
            yield from self._check_raw_bandwidth_call(info, fn)

    # -- work decomposition ------------------------------------------------
    def _check_decomposition(
        self,
        info: ModuleInfo,
        fn: FunctionInfo,
        closure_names: FrozenSet[str],
    ) -> Iterator[Finding]:
        if not any(call.name == _DECOMPOSE_NAME for call in fn.calls):
            return
        if _MORSEL_HOOK in closure_names:
            return
        yield self.finding_at(
            path=info.path,
            line=fn.lineno,
            column=1,
            message=(
                f"`{_short(fn.qualname)}` decomposes work into morsels "
                f"(`{_DECOMPOSE_NAME}`) but never reaches a "
                f"`{_MORSEL_HOOK}` fault hook — assign the ranges "
                "through repro.faults.recovery.plan_assignment so crashes "
                "and transient faults can be injected (repro.faults site "
                "class: work decomposition)"
            ),
            context=info.ctx.line_text(fn.lineno),
        )

    # -- worker loops ------------------------------------------------------
    def _check_worker_loop(
        self,
        project: ProjectContext,
        info: ModuleInfo,
        fn: FunctionInfo,
        closure_names: FrozenSet[str],
    ) -> Iterator[Finding]:
        pulls = False
        for call in fn.calls:
            if not call.in_loop:
                continue
            if call.name in _DISPATCH_NAMES:
                pulls = True
                break
            for target in call.targets:
                if _DISPATCH_NAMES & project.called_names(target):
                    pulls = True
                    break
            if pulls:
                break
        if not pulls:
            return
        if _MORSEL_HOOK not in closure_names:
            yield self.finding_at(
                path=info.path,
                line=fn.lineno,
                column=1,
                message=(
                    f"worker loop `{_short(fn.qualname)}` pulls morsels "
                    "from a dispatcher but never reaches a "
                    f"`{_MORSEL_HOOK}` fault hook — crashes and "
                    "transient faults cannot be injected into it "
                    "(repro.faults site class: worker loop)"
                ),
                context=info.ctx.line_text(fn.lineno),
            )

    # -- allocation sites ---------------------------------------------------
    def _check_alloc_site(
        self,
        info: ModuleInfo,
        fn: FunctionInfo,
        closure_names: FrozenSet[str],
    ) -> Iterator[Finding]:
        reserves = any(call.name == "reserve" for call in fn.calls)
        capacity_check = any(
            call.name == "OutOfMemoryError" for call in fn.calls
        )
        if not reserves and not capacity_check:
            return
        if _ALLOC_HOOK in closure_names:
            return
        what = "reserves region capacity" if reserves else (
            "makes a capacity decision (raises OutOfMemoryError)"
        )
        yield self.finding_at(
            path=info.path,
            line=fn.lineno,
            column=1,
            message=(
                f"allocation site `{_short(fn.qualname)}` {what} but "
                f"never reaches a `{_ALLOC_HOOK}` fault hook — OomAt "
                "rules cannot target it (repro.faults site class: "
                "allocation)"
            ),
            context=info.ctx.line_text(fn.lineno),
        )

    # -- transfer paths -----------------------------------------------------
    def _check_transfer_path(
        self,
        info: ModuleInfo,
        fn: FunctionInfo,
        direct_names: FrozenSet[str],
    ) -> Iterator[Finding]:
        if not (
            fn.name.startswith("effective_") and "bandwidth" in fn.name
        ):
            return
        if _LINK_HOOK not in direct_names:
            yield self.finding_at(
                path=info.path,
                line=fn.lineno,
                column=1,
                message=(
                    f"transfer path `{_short(fn.qualname)}` computes an "
                    "effective bandwidth but never applies "
                    f"`{_LINK_HOOK}` — DegradeLink rules cannot slow "
                    "this link (repro.faults site class: transfer)"
                ),
                context=info.ctx.line_text(fn.lineno),
            )

    def _check_raw_bandwidth_call(
        self, info: ModuleInfo, fn: FunctionInfo
    ) -> Iterator[Finding]:
        for call in fn.calls:
            if call.name == "ingest_bandwidth":
                yield self.finding_at(
                    path=info.path,
                    line=call.lineno,
                    column=1,
                    message=(
                        f"`{_short(fn.qualname)}` calls the raw "
                        "`ingest_bandwidth` outside transfer/ — use "
                        "`effective_ingest_bandwidth`, the choke point "
                        "where DegradeLink faults apply"
                    ),
                    context=info.ctx.line_text(call.lineno),
                    severity=Severity.ERROR,
                )


def _all_functions(info: ModuleInfo) -> Iterator[FunctionInfo]:
    yield from info.functions.values()
    for cls in info.classes.values():
        yield from cls.methods.values()


def _short(qualname: str) -> str:
    return qualname.split(":", 1)[-1]
