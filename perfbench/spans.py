"""In-memory span tracer for the benchmark's traced pass.

The tracer wraps public methods of the objects the benchmark hands to
``repro`` (or of the classes those objects are built from), records one
span per call -- name, start, end, parent -- into flat arrays that stay
in memory until the run ends, and reduces them to per-name *self* time:
a span's duration minus the part of it its child spans cover.  Self
times of all spans under a root therefore add up to the root's
duration exactly, which is what lets the per-tick layer numbers sum to
``kernel.engine.tick_us``.

Nothing here edits the package: wrapping replaces an attribute on an
instance, class or module for the duration of the traced pass, and
:meth:`SpanTracer.restore` puts every original back.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["SpanTracer"]

_MISSING = object()


class SpanTracer:
    """Records nested spans around wrapped callables.

    Spans live in four parallel arrays (name id, parent index, start,
    end), so a traced pass of a million calls costs about 26 MB, not a
    million Python objects.  :attr:`counts` holds whatever the wrappers'
    result hooks count (ticks run, policy decision reasons...).
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("H")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self.counts: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def timed(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """*fn* wrapped so every call records one span called *name*.

        *on_result*, when given, sees every return value (outside the
        span, so counting costs no traced time).
        """
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self._names):
            self._names.append(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Trace ``owner.attribute`` under *name* until :meth:`restore`.

        *owner* may be a class (every instance is traced, including ones
        built inside ``repro``) or a module.
        """
        self.replace(owner, attribute, self.timed(name, getattr(owner, attribute), on_result))

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        """Set ``owner.attribute = value`` until :meth:`restore`."""
        self._patched.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        """Undo every :meth:`wrap` / :meth:`replace`, newest first."""
        while self._patched:
            owner, attribute, previous = self._patched.pop()
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    # -- reduction ---------------------------------------------------------

    def _per_name(self, weights) -> Dict[str, float]:
        if not self._start:
            return {}
        names = np.frombuffer(self._name, dtype=np.uint16)
        sums = np.bincount(names, weights=weights, minlength=len(self._names))
        return {name: float(sums[index]) for index, name in enumerate(self._names)}

    def _durations(self) -> np.ndarray:
        return np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )

    def total_seconds(self) -> Dict[str, float]:
        """Inclusive time per span name, in seconds."""
        return self._per_name(self._durations() if self._start else None)

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name (inclusive minus child spans), in seconds."""
        if not self._start:
            return {}
        durations = self._durations()
        parents = np.frombuffer(self._parent, dtype=np.int64)
        nested = parents >= 0
        covered = np.zeros_like(durations)
        np.add.at(covered, parents[nested], durations[nested])
        return self._per_name(durations - covered)
