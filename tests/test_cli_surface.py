"""The ``repro`` flag surface, pinned.

Every subcommand's options — strings, dest, value or switch, choices,
nargs, required — are compared against ``tests/golden/cli_surface.json``,
so refactoring how the parser is built cannot rename, retype or drop a
flag.  The effective defaults are checked where they take effect: in
the call each command makes once its flags are parsed, with training
and the callee itself patched out.  Regenerate the fixture with
``PYTHONPATH=src python tests/test_cli_surface.py`` only for an
intended surface change.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import cli

FIXTURE = Path(__file__).parent / "golden" / "cli_surface.json"


def _subparsers(parser: argparse.ArgumentParser, prefix: str = ""):
    """``(command path, parser)`` for every (nested) subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                path = f"{prefix} {name}".strip()
                yield path, child
                yield from _subparsers(child, path)


def _option(action: argparse.Action) -> dict:
    return {
        "strings": list(action.option_strings),
        "dest": action.dest,
        "kind": "switch" if action.nargs == 0 else "value",
        "choices": list(action.choices) if action.choices else None,
        "nargs": action.nargs,
        "required": action.required,
    }


def surface() -> dict:
    """``{command: {dest: option}}`` for every subcommand."""
    return {
        path: {
            action.dest: _option(action)
            for action in parser._actions
            if not isinstance(action, argparse._SubParsersAction)
        }
        for path, parser in _subparsers(cli.build_parser())
    }


def test_flag_surface_matches_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = surface()
    assert sorted(actual) == sorted(expected)
    for command in expected:
        assert actual[command] == expected[command], command


def test_every_help_renders():
    parser = cli.build_parser()
    assert "detect" in parser.format_help()
    for path, child in _subparsers(parser):
        assert child.format_help().startswith("usage:"), path


class _Reached(Exception):
    """Raised by the patched callee: the command got that far."""


def _flatten(call_args: tuple, call_kwargs: dict) -> dict:
    """Every value a call carried, by name: keyword arguments, plus the
    fields of any dataclass or namespace among the arguments."""
    flat = dict(call_kwargs)
    for value in (*call_args, *call_kwargs.values()):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            flat.update(
                (f.name, getattr(value, f.name))
                for f in dataclasses.fields(value)
            )
        elif isinstance(value, argparse.Namespace):
            flat.update(vars(value))
    return flat


def _callee_values(monkeypatch, argv, patch_targets) -> dict:
    """Run ``repro <argv>`` with training patched out and return what
    reached the first patched callee of ``patch_targets``."""
    from repro.service import api

    seen: dict = {}

    def fake_setup(config, **kwargs):
        return SimpleNamespace(n_nodes=config.nodes)

    def callee(*args, **kwargs):
        seen.update(_flatten(args, kwargs))
        raise _Reached

    monkeypatch.setattr(api, "build_setup", fake_setup)
    for module, name in patch_targets:
        monkeypatch.setattr(module, name, callee, raising=False)
    with pytest.raises(_Reached):
        cli.main(argv)
    return seen


def _check(values: dict, expected: dict) -> None:
    for name, value in expected.items():
        # (name, alias) pairs: the same knob under two spellings.
        names = name if isinstance(name, tuple) else (name,)
        assert value in [values.get(n) for n in names], (name, values)


def test_serve_defaults(monkeypatch):
    from repro.service import api

    values = _callee_values(
        monkeypatch,
        ["serve", "--smoke", "--listen", "127.0.0.1:0", "--checkpoint", "c"],
        [(api, "serve")],
    )
    _check(values, {
        "queue_max": 1024,
        ("backpressure", "policy"): "drop-oldest",
        "tick_timeout": 5.0,
        "wal_fsync": "tick",
        "checkpoint_every": 1,
    })


def test_detect_defaults(monkeypatch):
    from repro.service import api

    values = _callee_values(
        monkeypatch,
        ["detect", "--smoke", "--checkpoint", "c"],
        [(api, "replay")],
    )
    _check(values, {"checkpoint_every": 1})


def test_supervise_defaults(monkeypatch):
    from repro.service import net

    values = _callee_values(
        monkeypatch,
        ["serve", "--smoke", "--listen", "127.0.0.1:0", "--supervise"],
        [(cli, "_supervise_serve"), (net, "supervise")],
    )
    _check(values, {
        "max_restarts": 5, "restart_backoff": 0.5, "min_uptime": 5.0,
    })


def test_loadgen_defaults(monkeypatch):
    from repro.service import net

    values = _callee_values(
        monkeypatch,
        ["loadgen", "--smoke", "--connect", "127.0.0.1:1"],
        [(net, "loadgen")],
    )
    _check(values, {
        ("format", "fmt"): "binary",
        "interval": 0.0,
        "connect_timeout": 30.0,
        "ack_timeout": 5.0,
    })


def test_store_record_defaults(monkeypatch, tmp_path):
    from repro.service import fastreplay

    values = _callee_values(
        monkeypatch,
        ["store", "record", str(tmp_path / "st"), "--smoke"],
        [(fastreplay, "record_fleet")],
    )
    _check(values, {"partition_ticks": 1024})


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(surface(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {FIXTURE}", file=sys.stderr)
