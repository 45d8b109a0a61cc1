"""ScenarioMatrix: a base scenario plus axes, expanded into the grid.

Every figure driver in the repo runs the same shape of experiment: take
one session description and vary a handful of dimensions — policy x game
x seed x quota — then fold the resulting summaries back into rows.  A
:class:`ScenarioMatrix` states that grid declaratively: a base
:class:`~repro.scenario.scenario.Scenario` and an ordered mapping of
axis name to value list.  :meth:`ScenarioMatrix.expand` walks the
cartesian product with the **last axis fastest** (``itertools.product``
order), so a matrix whose final axis is ``policy`` yields
baseline/candidate adjacent — exactly the ordering
:func:`~repro.analysis.comparison.comparison_rows` folds into rows.

Axis vocabulary:

- ``"platform"``, ``"policy"``, ``"workload"``, ``"label"``,
  ``"pin_uncore_max"`` — replace the scenario field.
- ``"seed"`` — shorthand for ``config.seed``.
- ``"config.<field>"`` — any :class:`~repro.config.SimulationConfig`
  field (``config.duration_seconds``, ...).
- ``"policy_params.<name>"`` / ``"workload_params.<name>"`` — set one
  factory parameter, merged over the base scenario's params.

Anything else raises :class:`~repro.errors.ScenarioError`.

For sharded sweeps (several machines or CI jobs splitting one grid),
:func:`shard_scenarios` deterministically partitions an expanded list
round-robin — shard *i* of *n* takes positions ``i, i+n, i+2n, ...`` of
the last-axis-fastest expansion, an interleaved slice rather than a
contiguous block (so shards mix the fast axis whenever *n* doesn't
divide its length).
``repro scenarios run --shard i/n`` wires it to the CLI, and the
resulting per-shard stores merge back with
:meth:`repro.store.ExperimentStore.merge`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union

from ..config import SimulationConfig
from ..errors import ScenarioError
from .scenario import Scenario, params_tuple

__all__ = ["ScenarioMatrix", "AXIS_FIELDS", "parse_shard", "shard_scenarios"]

#: Axis names that replace a scenario field directly.
AXIS_FIELDS = ("platform", "policy", "workload", "label", "pin_uncore_max")

_CONFIG_FIELDS = tuple(config_field.name for config_field in fields(SimulationConfig))


def _axes_tuple(
    axes: Union[Mapping[str, Iterable[Any]], Iterable[Tuple[str, Iterable[Any]]]],
) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
    """Normalise the axes mapping, preserving declaration order."""
    pairs = list(axes.items()) if isinstance(axes, Mapping) else list(axes)
    out: List[Tuple[str, Tuple[Any, ...]]] = []
    seen = set()
    for pair in pairs:
        if (
            not isinstance(pair, tuple)
            or len(pair) != 2
            or not isinstance(pair[0], str)
        ):
            raise ScenarioError("matrix 'axes' must map axis names to value lists")
        name, values = pair
        if name in seen:
            raise ScenarioError(f"duplicate axis {name!r}")
        seen.add(name)
        _check_axis_name(name)
        if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
            raise ScenarioError(f"axis {name!r} must list its values")
        values = tuple(values)
        if not values:
            raise ScenarioError(f"axis {name!r} has no values")
        out.append((name, values))
    return tuple(out)


def _check_axis_name(name: str) -> None:
    """Reject axis names outside the documented vocabulary."""
    if name in AXIS_FIELDS or name == "seed":
        return
    head, sep, tail = name.partition(".")
    if sep and tail:
        if head == "config":
            if tail in _CONFIG_FIELDS:
                return
            raise ScenarioError(
                f"unknown config axis {name!r}; config fields: "
                f"{list(_CONFIG_FIELDS)}"
            )
        if head in ("policy_params", "workload_params"):
            return
    raise ScenarioError(
        f"unknown axis {name!r}; expected one of {list(AXIS_FIELDS)}, 'seed', "
        f"'config.<field>', 'policy_params.<name>', or 'workload_params.<name>'"
    )


def _apply(scenario: Scenario, axis: str, value: Any) -> Scenario:
    """One axis assignment applied to a scenario, returning the new copy."""
    if axis in AXIS_FIELDS:
        return replace(scenario, **{axis: value})
    if axis == "seed":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ScenarioError(f"axis 'seed' values must be integers, got {value!r}")
        return scenario.with_seed(value)
    head, _, tail = axis.partition(".")
    if head == "config":
        return replace(scenario, config=replace(scenario.config, **{tail: value}))
    merged = dict(getattr(scenario, head))
    merged[tail] = value
    return replace(scenario, **{head: params_tuple(merged, f"axis {axis!r}")})


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``"i/n"`` shard designator into ``(index, count)``.

    The CLI spelling of :func:`shard_scenarios`: zero-based index,
    total count, e.g. ``"0/2"`` and ``"1/2"`` split a grid in half.

    Raises:
        ScenarioError: On anything but ``i/n`` with ``0 <= i < n``.
    """
    head, sep, tail = str(text).partition("/")
    try:
        if not sep:
            raise ValueError("missing '/'")
        index, count = int(head), int(tail)
    except ValueError:
        raise ScenarioError(
            f"shard must look like 'i/n' (e.g. '0/2'), got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ScenarioError(
            f"shard index must satisfy 0 <= i < n, got {index}/{count}"
        )
    return index, count


def shard_scenarios(
    scenarios: List[Scenario], index: int, count: int
) -> List[Scenario]:
    """Shard *i* of *n* of an expanded scenario list, deterministically.

    Round-robin over the expansion order: shard *i* takes positions
    ``i, i+n, i+2n, ...`` — an interleaved slice, not a contiguous
    block, so shards mix :meth:`ScenarioMatrix.expand`'s fast-varying
    last axis whenever *n* doesn't divide its length.  The shards
    partition the list exactly: every
    scenario lands in one and only one shard, so running all *n* shards
    and merging their stores reproduces the unsharded grid.

    Raises:
        ScenarioError: When ``(index, count)`` is out of range.
    """
    if count < 1 or not 0 <= index < count:
        raise ScenarioError(
            f"shard index must satisfy 0 <= i < n, got {index}/{count}"
        )
    return list(scenarios[index::count])


@dataclass(frozen=True)
class ScenarioMatrix:
    """A scenario grid: one base document and the axes that vary.

    Attributes:
        base: The scenario every grid point starts from.
        axes: Ordered (axis, values) pairs; expansion varies the **last**
            axis fastest.  Accepts a mapping at construction.
    """

    base: Scenario = field(default_factory=Scenario)
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.base, Scenario):
            raise ScenarioError(
                f"matrix 'base' must be a Scenario, got {type(self.base).__name__}"
            )
        object.__setattr__(self, "axes", _axes_tuple(self.axes))

    def __len__(self) -> int:
        """Number of grid points :meth:`expand` will yield."""
        total = 1
        for _, values in self.axes:
            total *= len(values)
        return total

    def expand(self) -> List[Scenario]:
        """Every grid point as a concrete scenario, last axis fastest."""
        names = [name for name, _ in self.axes]
        grids = [values for _, values in self.axes]
        out: List[Scenario] = []
        for point in itertools.product(*grids):
            scenario = self.base
            for name, value in zip(names, point):
                scenario = _apply(scenario, name, value)
            out.append(scenario)
        return out

    # -- serialisation ---------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """JSON-ready canonical form (``base`` + ordered ``axes``)."""
        return {
            "base": self.base.payload(),
            "axes": [[name, list(values)] for name, values in self.axes],
        }

    @classmethod
    def from_payload(cls, doc: Any) -> "ScenarioMatrix":
        """Rebuild a matrix from :meth:`payload` output, strictly.

        ``axes`` may be an object (insertion-ordered, the natural JSON
        spelling) or a list of ``[name, values]`` pairs.
        """
        if not isinstance(doc, dict):
            raise ScenarioError(
                f"matrix document must be an object, got {type(doc).__name__}"
            )
        unexpected = sorted(set(doc) - {"base", "axes"})
        if unexpected:
            raise ScenarioError(
                f"unknown matrix field(s) {unexpected}; known: ['axes', 'base']"
            )
        base = Scenario.from_payload(doc.get("base", {}))
        raw_axes = doc.get("axes", [])
        if isinstance(raw_axes, dict):
            axes: Any = raw_axes
        elif isinstance(raw_axes, list):
            axes = [tuple(pair) if isinstance(pair, list) else pair for pair in raw_axes]
        else:
            raise ScenarioError("matrix 'axes' must be an object or a pair list")
        return cls(base=base, axes=axes)

    def to_json(self, indent: int = 2) -> str:
        """The matrix as a JSON document."""
        return json.dumps(self.payload(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioMatrix":
        """Parse a matrix from JSON text, with typed errors."""
        try:
            doc = json.loads(text)
        except ValueError as error:
            raise ScenarioError(f"matrix is not valid JSON: {error}") from error
        return cls.from_payload(doc)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScenarioMatrix":
        """Read a matrix from a JSON file (I/O errors become typed)."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise ScenarioError(f"cannot read matrix {path}: {error}") from error
        return cls.from_json(text)
