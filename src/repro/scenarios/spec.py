"""Declarative scenario specifications and content hashing.

A :class:`ScenarioSpec` is a pure value describing one evaluation run:
which dataset recipes to materialize, which signature methods to apply,
how to evaluate them (the ``kind`` selects a generic evaluation strategy
from ``repro.scenarios.evaluations``) and how the scenario maps back to
the paper.  Specs are frozen, serializable and content-hashable — the
hash is computed over canonical JSON (sorted keys, no whitespace), so it
is stable across processes and Python hash randomization, and *any*
field change produces a different hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from repro.datasets.recipes import DatasetRecipe

__all__ = [
    "CACHE_VERSION",
    "ScenarioSpec",
    "canonical_json",
    "content_key",
    "freeze_value",
    "pairs",
]

#: Bumping this invalidates every cached artifact (format changes).
CACHE_VERSION = 1


def _canonical(obj: Any) -> Any:
    """Recursively convert to JSON-representable canonical form."""
    if isinstance(obj, Mapping):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, DatasetRecipe):
        return _canonical(obj.to_dict())
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, minimal separators."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def content_key(*parts: Any) -> str:
    """Stable hex content-address over the canonical JSON of ``parts``."""
    digest = hashlib.sha256(canonical_json(list(parts)).encode("utf-8"))
    return digest.hexdigest()[:20]


def freeze_value(value: Any) -> Any:
    """Recursively turn lists into tuples (hashable spec field values)."""
    if isinstance(value, Mapping):
        return pairs(value)
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(v) for v in value)
    return value


def pairs(mapping: Mapping[str, Any] | Iterable[tuple[str, Any]]) -> tuple:
    """Normalize a mapping into a sorted tuple of ``(key, value)`` pairs."""
    items = mapping.items() if isinstance(mapping, Mapping) else tuple(mapping)
    return tuple(sorted((str(k), freeze_value(v)) for k, v in items))


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: recipes + method grid + evaluation.

    Attributes
    ----------
    name:
        Registry key (``fig3``, ``noise-robustness``, ...).
    kind:
        Evaluation strategy (see ``repro.scenarios.evaluations``):
        ``grid``, ``length-sweep``, ``timing``, ``app-heatmap``,
        ``arch-heatmap``, ``merged-crossarch``, ``segment-summary``,
        ``fleet``, ``fleet-contract``.
    title:
        Table title printed above results.
    description:
        One-line human summary (shown by ``repro list``).
    paper:
        Paper artifact this reproduces (``Figure 3``, ``Table I``, ...);
        empty for scenarios that go beyond the paper.
    datasets:
        Dataset recipes the evaluation materializes (possibly empty for
        synthetic-input kinds like ``timing``).
    methods:
        Signature-method grid (``tuncer``, ``cs-20``, ...).
    evaluation:
        Kind-specific parameters as sorted ``(key, value)`` pairs
        (``trees``, ``repeats``, ``lengths``, ``blocks``, ...).
    smoke:
        Reduced-configuration overrides applied by ``--smoke``: pairs
        whose keys are ``datasets`` (replacement recipe tuple),
        ``methods`` (replacement tuple) and/or ``evaluation`` (pairs
        merged over ``evaluation``).
    tags:
        Free-form labels (``paper``, ``extra``, ``robustness``, ...).
    """

    name: str
    kind: str
    title: str = ""
    description: str = ""
    paper: str = ""
    datasets: tuple[DatasetRecipe, ...] = ()
    methods: tuple[str, ...] = ()
    evaluation: tuple[tuple[str, Any], ...] = ()
    smoke: tuple[tuple[str, Any], ...] = ()
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "evaluation", pairs(self.evaluation))
        object.__setattr__(self, "smoke", pairs(self.smoke))
        object.__setattr__(self, "tags", tuple(self.tags))

    # -- access --------------------------------------------------------
    def evaluation_dict(self) -> dict[str, Any]:
        return dict(self.evaluation)

    def smoke_dict(self) -> dict[str, Any]:
        return dict(self.smoke)

    # -- serialization / identity --------------------------------------
    def to_dict(self) -> dict[str, Any]:
        smoke = self.smoke_dict()
        smoke_out: dict[str, Any] = {}
        if "datasets" in smoke:
            smoke_out["datasets"] = [r.to_dict() for r in smoke["datasets"]]
        if "methods" in smoke:
            smoke_out["methods"] = list(smoke["methods"])
        if "evaluation" in smoke:
            smoke_out["evaluation"] = dict(smoke["evaluation"])
        return {
            "name": self.name,
            "kind": self.kind,
            "title": self.title,
            "description": self.description,
            "paper": self.paper,
            "datasets": [r.to_dict() for r in self.datasets],
            "methods": list(self.methods),
            "evaluation": self.evaluation_dict(),
            "smoke": smoke_out,
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        smoke_in = data.get("smoke", {})
        smoke: dict[str, Any] = {}
        if "datasets" in smoke_in:
            smoke["datasets"] = tuple(
                DatasetRecipe.from_dict(d) for d in smoke_in["datasets"]
            )
        if "methods" in smoke_in:
            smoke["methods"] = tuple(smoke_in["methods"])
        if "evaluation" in smoke_in:
            smoke["evaluation"] = pairs(smoke_in["evaluation"])
        return cls(
            name=data["name"],
            kind=data["kind"],
            title=data.get("title", ""),
            description=data.get("description", ""),
            paper=data.get("paper", ""),
            datasets=tuple(
                DatasetRecipe.from_dict(d) for d in data.get("datasets", [])
            ),
            methods=tuple(data.get("methods", [])),
            evaluation=pairs(data.get("evaluation", {})),
            smoke=pairs(smoke),
            tags=tuple(data.get("tags", [])),
        )

    def spec_hash(self) -> str:
        """Content address of the full spec (any field change changes it)."""
        return content_key("scenario", CACHE_VERSION, self.to_dict())

    # -- derivation ----------------------------------------------------
    def with_evaluation(self, **overrides: Any) -> "ScenarioSpec":
        """Copy with ``overrides`` merged into the evaluation parameters."""
        merged = self.evaluation_dict()
        merged.update(overrides)
        return replace(self, evaluation=pairs(merged))

    def with_datasets(
        self, datasets: Iterable[DatasetRecipe]
    ) -> "ScenarioSpec":
        return replace(self, datasets=tuple(datasets))

    def with_methods(self, methods: Iterable[str]) -> "ScenarioSpec":
        return replace(self, methods=tuple(methods))

