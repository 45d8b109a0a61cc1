"""Declarative session specifications for the batch runner.

A :class:`SessionSpec` names everything one simulated session needs —
platform, policy, workload, configuration — *by value*, so a batch of
specs can be shipped to worker processes, hashed into a content address
for the on-disk result cache, and re-run bit-identically later.

Factories are named with :class:`FactoryRef`: a dotted
``"package.module:attr"`` target plus primitive arguments.  A ref is
itself callable (calling it resolves and invokes the target), so any API
that accepts a plain zero-argument factory accepts a ref unchanged.
Specs built from plain callables/objects still execute — serially, in
process — but are not *portable*: they cannot cross a process boundary
or be cached, because a lambda has no stable content address.

The cache key hashes the **full** specification: every
:class:`~repro.config.SimulationConfig` field (tick, duration, seed,
warmup, label), the platform, both factory refs with all their
arguments, and ``pin_uncore_max`` — closing the seed/warmup key
omissions the old hand-rolled ``game_eval`` cache had.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from importlib import import_module
from typing import Any, Callable, Optional, Tuple, Union

from ..config import SimulationConfig
from ..errors import RunnerError
from ..faults.plan import FaultPlan
from ..obs.bus import TracepointBus
from ..soc.catalog import get_phone_spec
from ..soc.platform import PlatformSpec

__all__ = [
    "FactoryRef",
    "SessionSpec",
    "TraceRequest",
    "CACHE_FORMAT_VERSION",
    "KEY_SCHEMA_VERSION",
]

#: Version of the *key derivation* — the canonical payload a spec hashes
#: into its content address.  Deliberately decoupled from
#: :data:`CACHE_FORMAT_VERSION`: bumping the entry file format must NOT
#: re-address every existing entry, or read-migration would have nothing
#: left to read.  Bump only when the payload itself changes shape.
KEY_SCHEMA_VERSION = 2

#: Version of the on-disk *entry file* format.  Version 2 added the
#: entry checksum and the optional fault plan; version 3 adds the
#: optional columnar ``.npz`` trace blob next to the summary.  Readers
#: migrate transparently: a version-2 entry is still a verified hit.
CACHE_FORMAT_VERSION = 3

#: Argument types a portable (hashable, picklable) ref may carry.
_PRIMITIVES = (type(None), bool, int, float, str)


def _require_primitive(value: Any, where: str) -> None:
    if isinstance(value, (tuple, list)):
        for item in value:
            _require_primitive(item, where)
        return
    if not isinstance(value, _PRIMITIVES):
        raise RunnerError(
            f"{where} must hold only primitives (None/bool/int/float/str, "
            f"possibly nested in tuples), got {type(value).__name__}"
        )


@dataclass(frozen=True)
class FactoryRef:
    """A picklable, content-hashable reference to a factory call.

    Attributes:
        target: ``"package.module:attr"`` naming a callable.
        args: Positional arguments for the call (primitives only).
        kwargs: Keyword arguments as (name, value) pairs, kept as a
            tuple so the ref stays hashable.  Normalised at
            construction: pairs are sorted by name (so two refs built
            with different kwarg orders are equal and share one cache
            address) and duplicate names are rejected.
    """

    target: str
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        module, sep, attr = self.target.partition(":")
        if not sep or not module or not attr:
            raise RunnerError(
                f"factory target must look like 'package.module:attr', "
                f"got {self.target!r}"
            )
        _require_primitive(self.args, f"args of {self.target}")
        names = [name for name, _ in self.kwargs]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise RunnerError(
                f"duplicate kwarg name(s) {duplicates} for {self.target}"
            )
        for name, value in self.kwargs:
            _require_primitive(value, f"kwargs[{name!r}] of {self.target}")
        # Canonical ordering happens here — once, for every constructor
        # path — so the content address never depends on call-site order.
        object.__setattr__(
            self, "kwargs", tuple(sorted(self.kwargs, key=lambda pair: pair[0]))
        )

    @classmethod
    def to(cls, target: str, *args: Any, **kwargs: Any) -> "FactoryRef":
        """Build a ref the way you would write the call itself."""
        return cls(target, tuple(args), tuple(kwargs.items()))

    def resolve(self) -> Any:
        """Import the target and call it with the stored arguments."""
        module_name, _, attr = self.target.partition(":")
        try:
            module = import_module(module_name)
        except ImportError as error:
            raise RunnerError(f"cannot import {module_name!r}: {error}") from error
        try:
            factory = getattr(module, attr)
        except AttributeError:
            raise RunnerError(f"{module_name!r} has no attribute {attr!r}") from None
        return factory(*self.args, **dict(self.kwargs))

    def __call__(self) -> Any:
        """Refs are zero-argument factories: calling one resolves it."""
        return self.resolve()

    def payload(self) -> dict:
        """JSON-ready canonical form for cache-key hashing."""
        return {
            "target": self.target,
            "args": list(self.args),
            "kwargs": [[name, value] for name, value in self.kwargs],
        }


@dataclass(frozen=True)
class TraceRequest:
    """Ask the runner to record a typed event trace for a spec.

    Carried on :class:`SessionSpec` but deliberately **excluded** from
    the cache identity: tracing is pure observation — it never changes
    what the simulation computes — yet a traced spec must actually
    execute (a cached summary has no event stream), so the runner
    bypasses memoisation for it instead of forking the key space.

    Attributes:
        categories: Restrict recording to these event categories
            (``None`` records everything).
        ring_capacity: Bound the event buffer ftrace-style; ``None``
            keeps every event.
    """

    categories: Tuple[str, ...] = ()
    ring_capacity: Optional[int] = None

    def build_bus(self) -> TracepointBus:
        """A fresh bus configured as this request asks."""
        return TracepointBus(
            capacity=self.ring_capacity,
            categories=self.categories or None,
        )


#: A platform may be named (catalog string), referenced, or passed live.
PlatformLike = Union[str, FactoryRef, PlatformSpec]
#: A factory may be a portable ref or any zero-argument callable.
FactoryLike = Union[FactoryRef, Callable[[], Any]]


@dataclass(frozen=True)
class SessionSpec:
    """Everything one session needs, declaratively.

    Attributes:
        platform: Catalog phone name, a :class:`FactoryRef` producing a
            :class:`PlatformSpec`, or a live spec object.
        policy: Factory for a fresh policy (ref or callable).
        workload: Factory for a fresh workload (ref or callable).
        config: Full session configuration (carries the seed).
        pin_uncore_max: The section 3.2 GPU/memory constraint.
        label: Free-form tag for grouping results back out of a batch;
            not part of the execution, but part of the cache key via
            ``config.label`` only (this label is runner-side bookkeeping).
        trace: Optional :class:`TraceRequest`; a traced spec records a
            typed event stream while it runs.  Not part of the cache
            identity (see :class:`TraceRequest`).
        faults: Optional :class:`~repro.faults.plan.FaultPlan` injected
            into the session.  Faults change what the simulation
            computes, so — unlike ``trace`` — the plan **is** part of the
            cache identity: a faulted spec lives at a different content
            address than its clean twin.
        keep_columns: Ask the runner to persist the session's columnar
            trace (a compact ``.npz`` blob) next to the cached summary.
            Like ``trace``, this is pure observation and **not** part of
            the cache identity — but a spec whose entry lacks a column
            blob re-executes, so asking for columns always yields them.
    """

    platform: PlatformLike
    policy: FactoryLike
    workload: FactoryLike
    config: SimulationConfig = field(default_factory=SimulationConfig)
    pin_uncore_max: bool = True
    label: str = ""
    trace: Optional[TraceRequest] = None
    faults: Optional[FaultPlan] = None
    keep_columns: bool = False

    @property
    def is_portable(self) -> bool:
        """True when the spec can cross process boundaries and be cached."""
        return (
            isinstance(self.platform, (str, FactoryRef))
            and isinstance(self.policy, FactoryRef)
            and isinstance(self.workload, FactoryRef)
        )

    # -- resolution ------------------------------------------------------

    def resolve_platform_spec(self) -> PlatformSpec:
        """Materialise the platform datasheet this spec names."""
        if isinstance(self.platform, PlatformSpec):
            return self.platform
        if isinstance(self.platform, FactoryRef):
            spec = self.platform.resolve()
            if not isinstance(spec, PlatformSpec):
                raise RunnerError(
                    f"platform ref {self.platform.target!r} returned "
                    f"{type(spec).__name__}, expected PlatformSpec"
                )
            return spec
        return get_phone_spec(self.platform)

    def build_policy(self) -> Any:
        """A fresh policy instance."""
        return self.policy()

    def build_workload(self) -> Any:
        """A fresh workload instance."""
        return self.workload()

    # -- content addressing ----------------------------------------------

    def cache_payload(self) -> dict:
        """The canonical JSON document the cache key hashes.

        Includes every config field — notably ``seed`` and
        ``warmup_seconds``, which the old in-memory game cache dropped.
        """
        if not self.is_portable:
            raise RunnerError(
                "only portable specs (named platform + FactoryRef factories) "
                "have a stable cache identity; got a live object or lambda"
            )
        if isinstance(self.platform, FactoryRef):
            platform_payload = self.platform.payload()
        else:
            platform_payload = self.platform
        payload = {
            "version": KEY_SCHEMA_VERSION,
            "platform": platform_payload,
            "policy": self.policy.payload(),
            "workload": self.workload.payload(),
            "config": {f.name: getattr(self.config, f.name) for f in fields(self.config)},
            "pin_uncore_max": self.pin_uncore_max,
        }
        if self.faults is not None and self.faults:
            # Only present when faults are injected, so every pre-existing
            # clean spec keeps the address it would have had anyway.
            payload["faults"] = self.faults.payload()
        return payload

    def cache_key(self) -> str:
        """Stable content address (sha256 hex) of the full spec."""
        canonical = json.dumps(self.cache_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
