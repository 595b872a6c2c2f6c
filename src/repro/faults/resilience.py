"""The resilience audit trail: recovery actions + manifest section.

Every recovery action the execution layer takes — a retry, a re-dispatch
of a crashed worker's range, a fallback-worker takeover, a spill of the
hash-table placement — is appended to a :class:`ResilienceLog`.  The log
serializes (together with the active :class:`FaultPlan`'s injection
records) into the schema-versioned ``resilience`` section of the run
manifest, so chaos runs are diffable like any other run.

Determinism note: the morsel recovery actions of a seeded plan are
decided by :func:`repro.faults.recovery.plan_assignment` before any
worker runs, so the counters, the injected-fault records, and every
event — worker attribution included — are deterministic and identical
across the threads and processes backends.  Events carry sequence
numbers, never wall-clock timestamps.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.faults.plan import FaultPlan

#: Version of the manifest ``resilience`` section layout.  Bump together
#: with a schema-changelog entry in ``docs/robustness.md``.  ``1.1``
#: added the serving-layer actions (``serving_retry``,
#: ``deadline_cancel``, ``shed``, ``breaker_fastfail``) to the
#: zero-filled counter vocabulary.
RESILIENCE_SCHEMA_VERSION = "1.1"

#: recovery actions a log may record.  The first four are taken by the
#: execution layer (PR 5); the last four by the serving layer's
#: resilience path (deadlines, retry-with-backoff, load shedding, and
#: the per-workload circuit breaker).
RESILIENCE_ACTIONS = (
    "retry",
    "redispatch",
    "serial_fallback",
    "spill",
    "serving_retry",
    "deadline_cancel",
    "shed",
    "breaker_fastfail",
)


@dataclass(frozen=True)
class ResilienceEvent:
    """One recovery action with its site details."""

    seq: int
    action: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "action": self.action, "detail": dict(self.detail)}


class ResilienceLog:
    """Thread-safe, ordered record of recovery actions for one run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: List[ResilienceEvent] = []

    def record(self, action: str, **detail: Any) -> ResilienceEvent:
        """Append one recovery action; unknown actions are rejected."""
        if action not in RESILIENCE_ACTIONS:
            raise ValueError(
                f"unknown resilience action {action!r}; valid: "
                + ", ".join(RESILIENCE_ACTIONS)
            )
        with self._lock:
            event = ResilienceEvent(
                seq=len(self.events), action=action, detail=detail
            )
            self.events.append(event)
            return event

    def counts(self) -> Dict[str, int]:
        """Recovery actions per kind (zero-filled for stable schemas)."""
        counts = {action: 0 for action in RESILIENCE_ACTIONS}
        with self._lock:
            for event in self.events:
                counts[event.action] += 1
        return counts

    def count(self, action: str) -> int:
        """Number of events of one action kind."""
        return self.counts().get(action, 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)

    def section(self, plan: Optional[FaultPlan] = None) -> Dict[str, Any]:
        """The manifest ``resilience`` section for this run.

        Includes the plan descriptor and its injection records when a
        :class:`FaultPlan` was active, so the section accounts for every
        fault the run experienced alongside every recovery it performed.
        """
        with self._lock:
            events = [event.to_dict() for event in self.events]
        section: Dict[str, Any] = {
            "schema_version": RESILIENCE_SCHEMA_VERSION,
            "plan": plan.describe() if plan is not None else None,
            "injected": [r.to_dict() for r in plan.injected] if plan else [],
            "injected_counts": plan.injected_counts() if plan else {},
            "counters": self.counts(),
            "events": events,
        }
        return section
