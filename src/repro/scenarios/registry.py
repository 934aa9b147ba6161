"""Scenario registry: name -> :class:`ScenarioSpec`.

Built-in scenarios (the eight paper reproductions plus the extended
coverage suite) are registered by importing ``repro.scenarios.builtin``;
downstream code can register additional specs with :func:`register`.
"""

from __future__ import annotations

from repro.scenarios.spec import ScenarioSpec

__all__ = ["register", "get_scenario", "list_scenarios", "scenario_names"]

_REGISTRY: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, *, replace: bool = False) -> ScenarioSpec:
    """Register a spec under ``spec.name``; returns it for chaining."""
    if not replace and spec.name in _REGISTRY:
        existing = _REGISTRY[spec.name]
        if existing != spec:
            raise ValueError(f"scenario {spec.name!r} already registered")
        return existing
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_builtin() -> None:
    # Imported lazily so `import repro.scenarios.registry` alone carries
    # no registration side effects, but every lookup sees the built-ins.
    from repro.scenarios import builtin  # noqa: F401


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        ) from None


def list_scenarios(tag: str | None = None) -> list[ScenarioSpec]:
    """All registered scenarios (paper reproductions first, then by name)."""
    _ensure_builtin()
    specs = sorted(
        _REGISTRY.values(), key=lambda s: (s.paper == "", s.name)
    )
    if tag is not None:
        specs = [s for s in specs if tag in s.tags]
    return specs


def scenario_names(tag: str | None = None) -> list[str]:
    return [s.name for s in list_scenarios(tag)]
