"""Subprocess driver for the crash-recovery contract sweep.

Invoked by ``tests/test_checkpoint_contract.py`` as::

    python tests/_checkpoint_driver.py SCENARIO STAMP CACHE_DIR OUT DIR MODE

Builds the named registered scenario's **smoke** fleet (through the
shared artifact cache), then either:

* ``full``   — one uninterrupted guarded replay, alert JSONL to OUT;
* ``resume`` — replay killed before the middle tick with per-tick
  checkpoints, then a second replay in the *same process family* (fresh
  detector, fresh sinks) restoring the checkpoint and finishing.  OUT
  ends up holding the complete stream because resume re-emits the
  checkpointed prefix into the truncating sink.  Before restoring, the
  checkpoint manifest's ``"backend"`` field is rewritten to STAMP, so a
  ``staged`` stamp exercises checkpoints written by the retired staged
  tick path.

Chaos-kind scenarios replay under their configured fault injection in
both modes, so the contract is exercised on hostile input too.  The
test compares OUT bytes across modes, stamps and PYTHONHASHSEED
values.
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.monitoring.storage import atomic_savez, load_npz_arrays
from repro.scenarios.cache import ArtifactCache, ExecutionContext
from repro.scenarios.registry import get_scenario
from repro.service.alerts import JSONLAlertSink
from repro.service.chaos import ChaosConfig
from repro.service.replay import SERVICE_DEFAULTS, prepare_fleet, replay


def restamp_backend(path: Path, backend: str) -> str:
    """Rewrite a checkpoint manifest's ``"backend"`` stamp in place and
    return the stamp the writer left."""
    arrays = load_npz_arrays(path)
    manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
    written, manifest["backend"] = manifest["backend"], backend
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    atomic_savez(path, **arrays)
    return written


def main() -> int:
    scenario_name, stamp, cache_dir, out, workdir, run_mode = sys.argv[1:7]
    spec = get_scenario(scenario_name)
    smoke = spec.smoke_dict()
    if "datasets" in smoke:
        spec = spec.with_datasets(smoke["datasets"])
    if "evaluation" in smoke:
        spec = spec.with_evaluation(**dict(smoke["evaluation"]))
    ev = spec.evaluation_dict()

    def param(name):
        return ev.get(name, SERVICE_DEFAULTS[name])

    context = ExecutionContext(ArtifactCache(cache_dir))
    setup = prepare_fleet(
        spec.datasets,
        context=context,
        blocks=int(param("blocks")),
        trees=int(param("trees")),
        train_frac=float(param("train_frac")),
        seed=int(param("seed")),
        healthy_label=int(param("healthy_label")),
    )
    chunk = int(param("chunk"))
    chaos = None
    if spec.kind == "fleet-detect-chaos":
        chaos = ChaosConfig(
            seed=int(ev.get("chaos_seed", 0)),
            drop=float(ev.get("drop", 0.05)),
            duplicate=float(ev.get("duplicate", 0.05)),
            reorder=float(ev.get("reorder", 0.05)),
            corrupt=float(ev.get("corrupt", 0.05)),
        )
    kwargs = dict(
        chunk=chunk,
        open_after=int(param("open_after")),
        close_after=int(param("close_after")),
        min_confidence=float(param("min_confidence")),
        top_blocks=int(param("top_blocks")),
        mode=str(ev.get("mode", "exact")),
        guard=True,
        chaos=chaos,
    )
    if run_mode == "full":
        replay(setup, sinks=[JSONLAlertSink(out)], **kwargs)
        return 0
    if run_mode != "resume":
        raise SystemExit(f"unknown run mode {run_mode!r}")
    horizon = max(m.shape[1] for m in setup.eval_data.values())
    n_ticks = -(-horizon // chunk)
    checkpoint = Path(workdir) / "contract_checkpoint.npz"
    replay(
        setup,
        sinks=[JSONLAlertSink(out)],
        checkpoint_path=checkpoint,
        checkpoint_every=1,
        stop_after=max(1, n_ticks // 2),
        **kwargs,
    )
    written = restamp_backend(checkpoint, stamp)
    if written != "fused":
        raise SystemExit(f"checkpoint stamped {written!r}, expected 'fused'")
    replay(
        setup,
        sinks=[JSONLAlertSink(out)],
        checkpoint_path=checkpoint,
        resume=True,
        **kwargs,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
