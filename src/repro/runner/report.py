"""Per-spec outcome classification for a runner batch.

A :class:`RunReport` is the runner's answer to "what actually happened?"
after a batch that may have hit worker crashes, timeouts, or cache
corruption.  Every spec in the batch gets exactly one
:class:`SpecOutcome` with one of four statuses:

* ``ok`` — succeeded first try (executed, or served from memo/cache);
* ``retried`` — failed at least once, then succeeded on a retry;
* ``degraded`` — succeeded, but only after the runner routed around
  damage (a corrupt cache entry quarantined and recomputed);
* ``failed`` — never produced a summary within the retry budget.

The statuses are ranked: ``failed`` dominates ``degraded`` dominates
``retried`` dominates ``ok``, so a spec that was both recomputed from a
quarantined entry *and* retried reports the stronger ``degraded``.
The exact guarantees behind each status are the contract documented in
``docs/FAILURE_MODES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import RunnerError
from ..metrics.summary import SessionSummary

__all__ = ["SpecOutcome", "RunReport", "STATUS_ORDER"]

#: Status severity, weakest to strongest; reports keep the strongest.
STATUS_ORDER = ("ok", "retried", "degraded", "failed")


@dataclass
class SpecOutcome:
    """One spec's row in a batch plan: how it was routed, what happened.

    The runner classifies every spec into a row before running anything
    and each later step fills the row in; ``RunnerStats`` and the
    metrics feed are reductions over the rows.

    Attributes:
        index: The spec's position in the batch.
        label: The spec's label (or a positional fallback).
        status: ``ok`` / ``retried`` / ``degraded`` / ``failed``.
        attempts: Executions tried (0 for memo/cache/alias rows).
        error: Message of the last error, for retried/failed specs.
        error_type: Class name of the last error (``"RunnerError"``...).
        detail: Extra context (e.g. why a cache entry was corrupt).
        key: The spec's cache key; ``None`` for non-portable specs.
        lookup: What the memo/cache lookup found: ``memo_hit``,
            ``cache_hit``, ``miss``, ``corrupt``, or ``alias`` (served
            from an earlier row with the same key).  Empty when the spec
            was never looked up: non-portable or traced specs, column-
            keeping specs whose cache entry has no blob, and duplicates
            of a failed spec.
        route: How the row was served: ``memo``, ``cache`` or ``alias``
            without executing, or executed as ``batch`` (a vectorized
            group), ``pool`` (worker processes) or ``inline`` (the driver
            process).
        timeouts: Attempts terminated for exceeding ``timeout_seconds``.
    """

    index: int
    label: str
    status: str = "ok"
    attempts: int = 0
    error: str = ""
    error_type: str = ""
    detail: str = ""
    key: Optional[str] = None
    lookup: str = ""
    route: str = "inline"
    timeouts: int = 0

    @property
    def source(self) -> str:
        """Where the summary came from, read off ``route`` and ``status``.

        ``memo``, ``cache`` or ``alias`` for rows served without
        executing, ``executed`` for ``batch``/``pool``/``inline`` rows,
        and ``none`` for failed specs.
        """
        if self.status == "failed":
            return "none"
        return self.route if self.route in ("memo", "cache", "alias") else "executed"

    def escalate(self, status: str) -> None:
        """Raise this outcome's status to *status* if it is stronger."""
        if STATUS_ORDER.index(status) > STATUS_ORDER.index(self.status):
            self.status = status


@dataclass
class RunReport:
    """Classified outcomes for one :meth:`SessionRunner.run_report` call.

    Attributes:
        outcomes: One :class:`SpecOutcome` per spec, in batch order.
        summaries: The summary per spec, ``None`` where the spec failed;
            same order as ``outcomes``.
    """

    outcomes: List[SpecOutcome] = field(default_factory=list)
    summaries: List[Optional[SessionSummary]] = field(default_factory=list)
    #: The actual exception objects of failed specs, keyed by batch
    #: index, preserved so :meth:`raise_on_failure` re-raises the real
    #: error instead of a stringified copy.
    errors: Dict[int, BaseException] = field(default_factory=dict)

    def by_status(self, status: str) -> List[SpecOutcome]:
        """Outcomes currently carrying *status*."""
        return [outcome for outcome in self.outcomes if outcome.status == status]

    @property
    def ok(self) -> List[SpecOutcome]:
        """Specs that succeeded cleanly on the first attempt."""
        return self.by_status("ok")

    @property
    def retried(self) -> List[SpecOutcome]:
        """Specs that needed at least one retry to succeed."""
        return self.by_status("retried")

    @property
    def degraded(self) -> List[SpecOutcome]:
        """Specs recomputed after the runner routed around damage."""
        return self.by_status("degraded")

    @property
    def failed(self) -> List[SpecOutcome]:
        """Specs that never produced a summary."""
        return self.by_status("failed")

    @property
    def succeeded(self) -> bool:
        """True when every spec produced a summary (possibly bumpily)."""
        return not self.failed

    def first_error(self) -> Optional[BaseException]:
        """The exception of the lowest-index failed spec, if any."""
        if not self.errors:
            return None
        return self.errors[min(self.errors)]

    def raise_on_failure(self) -> None:
        """Re-raise the first failed spec's error (no-op when clean)."""
        error = self.first_error()
        if error is None:
            return
        first = self.failed[0] if self.failed else None
        if first is not None and len(self.failed) > 1:
            raise RunnerError(
                f"{len(self.failed)} of {len(self.outcomes)} specs failed; "
                f"first: {first.label}: {error}"
            ) from error
        raise error

    def render(self) -> str:
        """A human-readable multi-line report (the CLI's ``--stats`` view)."""
        counts = {status: len(self.by_status(status)) for status in STATUS_ORDER}
        lines = [
            "run report: "
            + ", ".join(f"{counts[status]} {status}" for status in STATUS_ORDER)
        ]
        for outcome in self.outcomes:
            if outcome.status == "ok":
                continue
            note = outcome.error or outcome.detail or "-"
            attempts = f", {outcome.attempts} attempts" if outcome.attempts else ""
            lines.append(
                f"  [{outcome.index}] {outcome.label}: "
                f"{outcome.status}{attempts} ({note})"
            )
        return "\n".join(lines)
