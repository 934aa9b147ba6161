"""The knob table: config dataclass fields that double as CLI flags.

Fields of ``ServiceConfig``, ``NetChaosConfig`` and the serve, loadgen,
supervise and detect options are declared with :func:`knob`, which
keeps each field's help text (and any ``choices``, ``metavar`` or
``required``) in its metadata.  :func:`add_flags` generates one argparse
flag per field: ``foo_bar`` becomes ``--foo-bar``, typed from its
annotation (a ``flag`` entry renames it).  A ``bool`` field is a switch:
``--<name>`` when off by default (``resume`` → ``--resume``),
``--no-<name>`` when on (``guard`` → ``--no-guard``).  Value flags
default to ``None``, "keep the base value", and their help ends with
the field's default.
:func:`from_args` applies the flags a command line set to a base config,
so a new field is a new flag and the two cannot drift apart.
"""

from __future__ import annotations

import argparse
import dataclasses
import typing
from typing import Any, Iterator


def knob(default: Any, help: str, **cli: Any) -> Any:
    """A dataclass field carrying its CLI ``help`` and any ``flag``,
    ``choices`` or ``metavar`` override in its metadata."""
    return dataclasses.field(default=default, metadata={"help": help, **cli})


def _flags(cls) -> Iterator[tuple[dataclasses.Field, str, dict]]:
    """``(field, flag, add_argument kwargs)`` for each field of ``cls``."""
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        kwargs = dict(field.metadata)
        name = kwargs.pop("flag", field.name)
        if hints[field.name] is bool:
            kwargs["action"] = "store_true"
            if field.default:  # on by default: a --no-<name> switch
                name = f"no_{name}"
                kwargs["help"] = f"disable the {kwargs['help']} (on by default)"
        else:
            if field.default is not None and not kwargs.get("required"):
                kwargs["help"] += f" (default {field.default})"
            # The first member of an optional type: ``str | None`` -> str.
            kind = (typing.get_args(hints[field.name]) or [hints[field.name]])[0]
            kwargs.update(type=kind, default=None)
        yield field, "--" + name.replace("_", "-"), {"dest": name, **kwargs}


def at_least(low, config, *names: str) -> None:
    """Reject the first set field of ``names`` below ``low``, by flag."""
    for name in names:
        value = getattr(config, name)
        if value is not None and value < low:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be >= {low}, got {value}")


def add_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One flag per field of the config dataclass ``cls``."""
    for _, flag, kwargs in _flags(cls):
        parser.add_argument(flag, **kwargs)


def takes_value(cls) -> dict[str, bool]:
    """``{flag: whether it takes a value}`` for the flags of ``cls``."""
    return {flag: "action" not in kwargs for _, flag, kwargs in _flags(cls)}


def from_args(args: argparse.Namespace, base):
    """``base`` with every generated flag the command line set applied;
    ``base`` is a config, or a config class whose defaults are the base.
    The result is validated: a rejected value raises ``ValueError``."""
    changes = {}
    cls = base if isinstance(base, type) else type(base)
    for field, _, kwargs in _flags(cls):
        value = getattr(args, kwargs["dest"])
        if kwargs.get("action"):  # a set switch flips the default
            value = (not field.default) if value else None
        if value is not None:
            changes[field.name] = value
    if base is cls:
        return cls(**changes)
    return dataclasses.replace(base, **changes)
