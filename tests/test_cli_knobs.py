"""The knob table: every config field is a CLI flag that round-trips.

``repro detect/serve/loadgen/store record`` generate one flag per
``ServiceConfig`` field and ``repro netchaos`` one per
``NetChaosConfig`` field.  These tests pass a non-default value on each
field's flag and check that it arrives in the parsed config, so a field
and its flag cannot drift apart.
"""

import argparse
import dataclasses

import pytest

from repro import cli
from repro.service import knobs
from repro.service.api import ServiceConfig
from repro.service.netchaos import NetChaosConfig

#: Fields whose flag is not ``--<name>`` with dashes.
RENAMED = {"model_path": "--model", "guard": "--no-guard"}

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


def _flag(field: dataclasses.Field) -> str:
    return RENAMED.get(field.name, "--" + field.name.replace("_", "-"))


def _other_value(config, field: dataclasses.Field) -> tuple[list[str], object]:
    """(argv tail, expected config value) setting ``field`` off its default."""
    default = getattr(config, field.name)
    if field.name in ONLY_VALUE:
        value = ONLY_VALUE[field.name]
        # A switch has no value to pass: its only value is leaving it off.
        return ([] if isinstance(value, bool) else [_flag(field), str(value)]), value
    if isinstance(default, bool):
        return [_flag(field)], not default
    if "choices" in field.metadata:
        value = next(c for c in field.metadata["choices"] if c != default)
    elif isinstance(default, float):
        value = default + 0.25
    elif isinstance(default, int):
        value = default + 1
    else:
        value = f"{field.name}.x"
    return [_flag(field), str(value)], value


@pytest.mark.parametrize("command", sorted(SERVICE_COMMANDS))
@pytest.mark.parametrize(
    "field", dataclasses.fields(ServiceConfig), ids=lambda f: f.name
)
def test_service_field_round_trips(command, field):
    tail, expected = _other_value(ServiceConfig(), field)
    args = cli.build_parser().parse_args([*SERVICE_COMMANDS[command], *tail])
    config = cli._service_config(args)
    assert config == ServiceConfig().replace(**{field.name: expected})


@pytest.mark.parametrize(
    "field", dataclasses.fields(NetChaosConfig), ids=lambda f: f.name
)
def test_netchaos_field_round_trips(field):
    tail, expected = _other_value(NetChaosConfig(), field)
    argv = ["netchaos", "--listen", "127.0.0.1:0", *tail]
    args = cli.build_parser().parse_args(argv)
    config = cli._config_from_args(args, NetChaosConfig())
    assert config == dataclasses.replace(NetChaosConfig(), **{field.name: expected})


@pytest.mark.parametrize("cls", [ServiceConfig, NetChaosConfig])
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
