"""The declarative Scenario document: one session as data, not code.

A :class:`Scenario` names everything one simulated session needs by
*registry key* — platform, policy (+params), workload (+params), the
full :class:`~repro.config.SimulationConfig`, and optionally a
:class:`~repro.faults.plan.FaultPlan` and a
:class:`~repro.runner.spec.TraceRequest`.  It is frozen, hashable, and
round-trips through JSON (:meth:`Scenario.to_json` /
:meth:`Scenario.from_json`), so an experiment matrix is a document you
can commit, diff, and hand to the runner — not another copy of the
driver wiring.

Schema violations raise :class:`~repro.errors.ScenarioError` with the
offending field named; unknown registry keys surface at
:meth:`Scenario.validate` / compile time as
:class:`~repro.errors.RegistryError` listing the known keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from ..config import SimulationConfig
from ..errors import ScenarioError
from ..faults.plan import FaultPlan
from ..runner.spec import TraceRequest

__all__ = ["Scenario", "Params", "params_tuple"]

#: Factory parameters as canonical (name, value) pairs — or any mapping /
#: pair-iterable, normalised by :func:`params_tuple` at construction.
Params = Union[
    Mapping[str, Any], Iterable[Tuple[str, Any]], Tuple[Tuple[str, Any], ...]
]

_PRIMITIVES = (type(None), bool, int, float, str)


def _check_primitive(value: Any, where: str) -> None:
    """Reject non-JSON-primitive parameter values with a typed error."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_primitive(item, where)
        return
    if not isinstance(value, _PRIMITIVES):
        raise ScenarioError(
            f"{where} must hold only JSON primitives "
            f"(null/bool/int/float/str), got {type(value).__name__}"
        )


def params_tuple(params: Params, where: str) -> Tuple[Tuple[str, Any], ...]:
    """Normalise factory params into sorted, duplicate-free (name, value) pairs.

    The same canonicalisation :class:`~repro.runner.spec.FactoryRef`
    applies to its kwargs, done once here so equal parameter sets always
    produce equal scenarios (and therefore equal cache addresses).
    """
    pairs = list(params.items()) if isinstance(params, Mapping) else list(params)
    names = []
    for pair in pairs:
        if (
            not isinstance(pair, tuple)
            or len(pair) != 2
            or not isinstance(pair[0], str)
        ):
            raise ScenarioError(f"{where} must map parameter names to values")
        names.append(pair[0])
        _check_primitive(pair[1], f"{where}[{pair[0]!r}]")
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ScenarioError(f"duplicate parameter name(s) {duplicates} in {where}")
    return tuple(sorted(pairs, key=lambda pair: pair[0]))


def _config_from_payload(doc: Any) -> SimulationConfig:
    """Rebuild a SimulationConfig from its payload dict, strictly."""
    if not isinstance(doc, dict):
        raise ScenarioError(
            f"scenario 'config' must be an object, got {type(doc).__name__}"
        )
    known = {config_field.name for config_field in fields(SimulationConfig)}
    unexpected = sorted(set(doc) - known)
    if unexpected:
        raise ScenarioError(
            f"unknown config field(s) {unexpected}; known: {sorted(known)}"
        )
    return SimulationConfig(**doc)


def _trace_from_payload(doc: Any) -> TraceRequest:
    """Rebuild a TraceRequest from its payload dict, strictly."""
    if not isinstance(doc, dict):
        raise ScenarioError(
            f"scenario 'trace' must be an object, got {type(doc).__name__}"
        )
    known = {"categories", "ring_capacity"}
    unexpected = sorted(set(doc) - known)
    if unexpected:
        raise ScenarioError(
            f"unknown trace field(s) {unexpected}; known: {sorted(known)}"
        )
    categories = doc.get("categories", ())
    if not isinstance(categories, (list, tuple)) or not all(
        isinstance(category, str) for category in categories
    ):
        raise ScenarioError("trace 'categories' must be a list of strings")
    ring = doc.get("ring_capacity")
    if ring is not None and not isinstance(ring, int):
        raise ScenarioError("trace 'ring_capacity' must be an integer or null")
    return TraceRequest(categories=tuple(categories), ring_capacity=ring)


@dataclass(frozen=True)
class Scenario:
    """One session, declared entirely by registry keys and primitives.

    Attributes:
        workload: Registered workload key (e.g. ``"busyloop"``,
            ``"game:asphalt8"``).
        policy: Registered policy key (e.g. ``"mobicore"``).
        platform: Registered platform key (catalog phone name).
        workload_params: Factory keyword arguments for the workload.
        policy_params: Factory keyword arguments for the policy.
        config: Full simulation configuration (tick, duration, seed,
            warmup, label).
        pin_uncore_max: The section 3.2 GPU/memory constraint.
        label: Free-form tag carried onto the compiled spec (defaults to
            a generated ``workload/policy@seed`` label at compile time).
        trace: Optional trace request (observation only — excluded from
            the cache identity, exactly as on ``SessionSpec``).
        faults: Optional fault plan (part of the cache identity).
    """

    workload: str = "busyloop"
    policy: str = "android-default"
    platform: str = "Nexus 5"
    workload_params: Tuple[Tuple[str, Any], ...] = ()
    policy_params: Tuple[Tuple[str, Any], ...] = ()
    config: SimulationConfig = field(default_factory=SimulationConfig)
    pin_uncore_max: bool = True
    label: str = ""
    trace: Optional[TraceRequest] = None
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        for name in ("workload", "policy", "platform", "label"):
            if not isinstance(getattr(self, name), str):
                raise ScenarioError(
                    f"scenario {name!r} must be a string, "
                    f"got {type(getattr(self, name)).__name__}"
                )
        for name in ("workload", "policy", "platform"):
            if not getattr(self, name):
                raise ScenarioError(f"scenario {name!r} must be non-empty")
        for name in ("workload_params", "policy_params"):
            object.__setattr__(
                self, name, params_tuple(getattr(self, name), f"scenario {name!r}")
            )
        if not isinstance(self.config, SimulationConfig):
            raise ScenarioError(
                f"scenario 'config' must be a SimulationConfig, "
                f"got {type(self.config).__name__}"
            )
        if not isinstance(self.pin_uncore_max, bool):
            raise ScenarioError("scenario 'pin_uncore_max' must be a boolean")
        if self.trace is not None and not isinstance(self.trace, TraceRequest):
            raise ScenarioError("scenario 'trace' must be a TraceRequest or None")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ScenarioError("scenario 'faults' must be a FaultPlan or None")

    # -- derivation ------------------------------------------------------

    def with_seed(self, seed: int) -> "Scenario":
        """A copy running the same session under a different seed."""
        return replace(self, config=self.config.with_seed(seed))

    def describe(self) -> str:
        """Compact one-line description for listings and run tables."""
        def suffix(params: Tuple[Tuple[str, Any], ...]) -> str:
            if not params:
                return ""
            inner = ",".join(f"{name}={value}" for name, value in params)
            return f"[{inner}]"

        text = (
            f"{self.workload}{suffix(self.workload_params)} x "
            f"{self.policy}{suffix(self.policy_params)} @ {self.platform} "
            f"seed={self.config.seed}"
        )
        if self.faults:
            text += f" faults={len(self.faults)}"
        return text

    # -- compilation (delegates to repro.scenario.compile) ---------------

    def validate(self) -> None:
        """Check every name against the registries by compiling once.

        Raises:
            RegistryError: Unknown policy/workload/platform key.
            ScenarioError: Structurally invalid document.
        """
        from .compile import compile_scenario

        compile_scenario(self)

    def compile(self):
        """The equivalent :class:`~repro.runner.spec.SessionSpec`."""
        from .compile import compile_scenario

        return compile_scenario(self)

    # -- serialisation ---------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """JSON-ready canonical form; optional fields appear only when set."""
        doc: Dict[str, Any] = {
            "platform": self.platform,
            "policy": self.policy,
            "workload": self.workload,
            "config": {
                config_field.name: getattr(self.config, config_field.name)
                for config_field in fields(self.config)
            },
            "pin_uncore_max": self.pin_uncore_max,
        }
        if self.policy_params:
            doc["policy_params"] = dict(self.policy_params)
        if self.workload_params:
            doc["workload_params"] = dict(self.workload_params)
        if self.label:
            doc["label"] = self.label
        if self.trace is not None:
            doc["trace"] = {
                "categories": list(self.trace.categories),
                "ring_capacity": self.trace.ring_capacity,
            }
        if self.faults is not None and self.faults:
            doc["faults"] = self.faults.payload()
        return doc

    @classmethod
    def from_payload(cls, doc: Any) -> "Scenario":
        """Rebuild a scenario from :meth:`payload` output, strictly.

        Every unknown key and mistyped field raises
        :class:`~repro.errors.ScenarioError` naming the problem.
        """
        if not isinstance(doc, dict):
            raise ScenarioError(
                f"scenario document must be an object, got {type(doc).__name__}"
            )
        known = {
            "platform", "policy", "workload", "policy_params",
            "workload_params", "config", "pin_uncore_max", "label",
            "trace", "faults",
        }
        unexpected = sorted(set(doc) - known)
        if unexpected:
            raise ScenarioError(
                f"unknown scenario field(s) {unexpected}; known: {sorted(known)}"
            )
        kwargs: Dict[str, Any] = {}
        for name in ("platform", "policy", "workload", "label"):
            if name in doc:
                kwargs[name] = doc[name]
        for name in ("policy_params", "workload_params"):
            if name in doc:
                if not isinstance(doc[name], dict):
                    raise ScenarioError(f"scenario {name!r} must be an object")
                kwargs[name] = doc[name]
        if "config" in doc:
            kwargs["config"] = _config_from_payload(doc["config"])
        if "pin_uncore_max" in doc:
            kwargs["pin_uncore_max"] = doc["pin_uncore_max"]
        if "trace" in doc:
            kwargs["trace"] = _trace_from_payload(doc["trace"])
        if "faults" in doc:
            kwargs["faults"] = FaultPlan.from_payload(doc["faults"])
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        """The scenario as a JSON document."""
        return json.dumps(self.payload(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from JSON text, with typed errors."""
        try:
            doc = json.loads(text)
        except ValueError as error:
            raise ScenarioError(f"scenario is not valid JSON: {error}") from error
        return cls.from_payload(doc)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        """Read a scenario from a JSON file.

        I/O failures become :class:`~repro.errors.ScenarioError`;
        interrupts propagate untouched.
        """
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise ScenarioError(f"cannot read scenario {path}: {error}") from error
        return cls.from_json(text)
