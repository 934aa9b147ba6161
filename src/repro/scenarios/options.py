"""Shared CLI options: one definition per flag.

This module is the single source of the scenario flags' names, types
and help strings for ``repro run`` and ``repro run-all``; per-scenario
*defaults* live in the scenario specs, so the shared flags default to
``None`` ("keep the spec value").  The CLI builds its parsers with
:func:`add_shared_options` and converts parsed args with
:func:`options_from_args` / :func:`sinks_from_args`.
"""

from __future__ import annotations

import argparse
from typing import Any

from repro.experiments.reporting import CSVSink, JSONLSink, MarkdownSink, Sink, TableSink
from repro.scenarios.runner import RunOptions

__all__ = [
    "OPTION_SPECS",
    "add_shared_options",
    "options_from_args",
    "sinks_from_args",
]

#: flag -> (argparse kwargs).  Destinations use underscores.
OPTION_SPECS: dict[str, dict[str, Any]] = {
    "--seed": dict(
        type=int,
        default=None,
        help="base RNG seed, shared by dataset generation and "
        "cross-validation shuffles (default: the scenario's spec seed, 0)",
    ),
    "--repeats": dict(
        type=int,
        default=None,
        help="repetition count: cross-validation repeats for score grids "
        "(paper: 5), timing repeats for signature-timing sweeps "
        "(paper: 20); default: the scenario's spec value",
    ),
    "--scale": dict(
        type=float,
        default=None,
        help="segment-length multiplier applied to every dataset recipe "
        "(1.0 = quick defaults, larger approaches Table I sizes)",
    ),
    "--trees": dict(
        type=int,
        default=None,
        help="random-forest size for ML scoring (paper: 50); "
        "default: the scenario's spec value",
    ),
    "--smoke": dict(
        action="store_true",
        help="run the scenario's reduced smoke configuration "
        "(seconds-scale, used by CI)",
    ),
    "--cache-dir": dict(
        type=str,
        default=None,
        help="content-addressed artifact cache directory; repeated or "
        "overlapping runs reuse generated segments and signature sets",
    ),
    "--csv": dict(
        type=str, default=None, help="also write results to this CSV path"
    ),
    "--jsonl": dict(
        type=str, default=None, help="also write results as JSON lines"
    ),
    "--markdown": dict(
        type=str, default=None, help="also write a markdown summary table"
    ),
    "--out": dict(
        type=str,
        default=None,
        help="directory for binary artifacts (PGM heatmap images)",
    ),
    "--methods": dict(
        nargs="*",
        default=None,
        help="override the scenario's signature-method grid "
        "(e.g. tuncer cs-20 cs-all)",
    ),
    "--segments": dict(
        nargs="*",
        default=None,
        help="override the scenario's dataset recipes with plain segment "
        "recipes of these names",
    ),
}


def add_shared_options(
    parser: argparse.ArgumentParser, *flags: str
) -> argparse.ArgumentParser:
    """Add the named shared flags (all of them when none are named)."""
    for flag in flags or tuple(OPTION_SPECS):
        flag = flag if flag.startswith("--") else f"--{flag}"
        if flag not in OPTION_SPECS:
            raise KeyError(f"unknown shared option {flag!r}")
        parser.add_argument(flag, **OPTION_SPECS[flag])
    return parser


def options_from_args(args: argparse.Namespace) -> RunOptions:
    """Build :class:`RunOptions` from whatever shared flags are present."""
    fields: dict[str, Any] = {}
    for name in (
        "seed",
        "scale",
        "repeats",
        "trees",
        "smoke",
        "cache_dir",
        "methods",
        "segments",
    ):
        if hasattr(args, name):
            fields[name] = getattr(args, name)
    if hasattr(args, "out"):
        fields["out_dir"] = args.out
    return RunOptions(**fields)


def sinks_from_args(args: argparse.Namespace, *, table: bool = True) -> list[Sink]:
    """Sinks implied by the shared output flags (+ stdout table)."""
    sinks: list[Sink] = [TableSink()] if table else []
    if getattr(args, "csv", None):
        sinks.append(CSVSink(args.csv))
    if getattr(args, "jsonl", None):
        sinks.append(JSONLSink(args.jsonl))
    if getattr(args, "markdown", None):
        sinks.append(MarkdownSink(args.markdown))
    return sinks
