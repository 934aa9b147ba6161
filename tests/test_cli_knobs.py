"""The knob table: every config field is a CLI flag that round-trips.

``repro detect/serve/loadgen/store record`` generate one flag per
``ServiceConfig`` field, ``repro netchaos`` one per ``NetChaosConfig``
field, and ``serve``/``loadgen``/``detect`` one per field of their
options dataclasses.  These tests pass a non-default value on each
field's flag and check that it arrives in the parsed config, so a field
and its flag cannot drift apart.
"""

import argparse
import dataclasses
import typing

import pytest

from repro import cli
from repro.service import knobs
from repro.service.api import ServiceConfig
from repro.service.net import LoadgenOptions, SuperviseOptions
from repro.service.netchaos import NetChaosConfig
from repro.service.servecore import ServeOptions

#: Fields whose flag is not ``--<name>`` (or ``--no-<name>``) with dashes.
RENAMED = {"model_path": "--model"}

#: ``backend`` and ``guard`` accept only their default; every other
#: field has a non-default value that validates.
ONLY_VALUE = {"backend": "fused", "guard": True}

#: Leading arguments that make each command parse.
SERVICE_COMMANDS = {
    "detect": ["detect"],
    "serve": ["serve", "--listen", "127.0.0.1:0"],
    "loadgen": ["loadgen"],
    "store record": ["store", "record", "storedir"],
}


#: Options dataclass -> (command, the fields its command line must set).
OPTION_COMMANDS = {
    ServeOptions: ("serve", {"listen": "127.0.0.1:0"}),
    SuperviseOptions: ("serve", {"listen": "127.0.0.1:0"}),
    LoadgenOptions: ("loadgen", {"connect": "127.0.0.1:1"}),
    cli.DetectOptions: ("detect", {}),
}

#: Fields another field must accompany (``None``: must be left unset).
REQUIRES = {
    (cli.DetectOptions, "resume"): {"checkpoint": "ck.npz"},
    (cli.DetectOptions, "t0"): {"from_store": "st"},
    (cli.DetectOptions, "t1"): {"from_store": "st"},
    (LoadgenOptions, "port_file"): {"connect": None},
}

#: Non-default values that validate, where the type alone gives none.
VALUES = {"listen": "127.0.0.1:1", "ops": "127.0.0.1:2", "connect": "127.0.0.1:2"}


def _flag(field: dataclasses.Field) -> str:
    name = RENAMED.get(field.name, "--" + field.name.replace("_", "-"))
    return "--no-" + name[2:] if field.default is True else name


def _other_value(cls, field: dataclasses.Field) -> tuple[list[str], object]:
    """(argv tail, expected config value) setting ``field`` off its default."""
    default = field.default
    kind = typing.get_type_hints(cls)[field.name]
    kind = (typing.get_args(kind) or [kind])[0]
    if field.name in ONLY_VALUE:
        value = ONLY_VALUE[field.name]
        # A switch has no value to pass: its only value is leaving it off.
        return ([] if isinstance(value, bool) else [_flag(field), str(value)]), value
    if kind is bool:
        return [_flag(field)], not default
    if field.name in VALUES:
        value = VALUES[field.name]
    elif "choices" in field.metadata:
        value = next(c for c in field.metadata["choices"] if c != default)
    elif kind is float:
        value = (default or 0.0) + 0.25
    elif kind is int:
        value = (default or 0) + 1
    else:
        value = f"{field.name}.x"
    return [_flag(field), str(value)], value


@pytest.mark.parametrize("command", sorted(SERVICE_COMMANDS))
@pytest.mark.parametrize(
    "field", dataclasses.fields(ServiceConfig), ids=lambda f: f.name
)
def test_service_field_round_trips(command, field):
    tail, expected = _other_value(ServiceConfig, field)
    args = cli.build_parser().parse_args([*SERVICE_COMMANDS[command], *tail])
    config = cli._service_config(args)
    assert config == ServiceConfig().replace(**{field.name: expected})


@pytest.mark.parametrize(
    "field", dataclasses.fields(NetChaosConfig), ids=lambda f: f.name
)
def test_netchaos_field_round_trips(field):
    tail, expected = _other_value(NetChaosConfig, field)
    argv = ["netchaos", "--listen", "127.0.0.1:0", *tail]
    args = cli.build_parser().parse_args(argv)
    config = cli._config_from_args(args, NetChaosConfig())
    assert config == dataclasses.replace(NetChaosConfig(), **{field.name: expected})


@pytest.mark.parametrize(
    "cls,field",
    [(cls, f) for cls in OPTION_COMMANDS for f in dataclasses.fields(cls)],
    ids=lambda v: v.__name__ if isinstance(v, type) else v.name,
)
def test_options_field_round_trips(cls, field):
    command, needed = OPTION_COMMANDS[cls]
    needed = {**needed, **REQUIRES.get((cls, field.name), {})}
    needed = {k: v for k, v in needed.items() if v is not None}
    tail, expected = _other_value(cls, field)
    argv = [command]
    for name, value in needed.items():
        argv += ["--" + name.replace("_", "-"), value]
    args = cli.build_parser().parse_args([*argv, *tail])
    own = {f.name for f in dataclasses.fields(cls)}
    needed = {k: v for k, v in needed.items() if k in own}
    assert cli._config_from_args(args, cls) == cls(
        **{**needed, field.name: expected}
    )


@pytest.mark.parametrize(
    "cls", [ServiceConfig, NetChaosConfig, *OPTION_COMMANDS]
)
def test_every_field_has_help(cls):
    for field in dataclasses.fields(cls):
        assert field.metadata.get("help", "").strip(), field.name


def test_unset_flags_keep_the_preset():
    """No flag set = the preset itself (``--smoke`` or full-size), the
    same one in every service command, so serve + loadgen with default
    flags feed the same bursts detect replays."""
    parser = cli.build_parser()
    for argv in SERVICE_COMMANDS.values():
        config = cli._service_config(parser.parse_args(argv))
        assert config == ServiceConfig(), argv
        smoke = parser.parse_args([*argv, "--smoke"])
        assert cli._service_config(smoke) == ServiceConfig.smoke(), argv
        chunk = parser.parse_args([*argv, "--smoke", "--chunk", "64"])
        assert cli._service_config(chunk) == ServiceConfig.smoke(chunk=64)


def test_help_shows_generated_defaults():
    parser = argparse.ArgumentParser()
    knobs.add_flags(parser, ServiceConfig)
    flags = parser._option_string_actions
    assert flags["--blocks"].help.endswith(f"(default {ServiceConfig().blocks})")
    assert flags["--no-guard"].help.endswith("(on by default)")
    assert "(default" not in flags["--model"].help
