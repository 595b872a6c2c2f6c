"""Active fault-plan registry — the zero-overhead injection switch.

The fault hooks in :mod:`repro.exec.pool` (which hands the active plan
to :func:`repro.faults.recovery.plan_assignment`), :mod:`repro.memory.allocator`,
:mod:`repro.core.hashtable.placement`, and :mod:`repro.transfer.methods`
all start with ``plan = active_plan(); if plan is None: ...`` — one
module-global read on the production path.  The global is only ever set
by :meth:`repro.faults.plan.FaultPlan.install`, so a process that never
installs a plan pays nothing beyond that read.

This module is import-cycle free on purpose: the hook sites live in
packages the rest of :mod:`repro.faults` depends on, so they import
*this* module only, never :mod:`repro.faults.plan`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

_lock = threading.Lock()
_active: Optional["FaultPlan"] = None


def active_plan() -> Optional["FaultPlan"]:
    """The currently installed :class:`FaultPlan`, or None (the default)."""
    return _active


def install_plan(plan: "FaultPlan") -> None:
    """Make ``plan`` the process-wide active plan; nesting is rejected."""
    global _active
    with _lock:
        if _active is not None:
            raise RuntimeError(
                "a FaultPlan is already installed; nested or concurrent "
                "plans are not supported — uninstall the active plan first"
            )
        _active = plan


def uninstall_plan(plan: "FaultPlan") -> None:
    """Remove ``plan``; raises if some other plan is installed."""
    global _active
    with _lock:
        if _active is not plan:
            raise RuntimeError(
                "cannot uninstall a FaultPlan that is not the active one"
            )
        _active = None
