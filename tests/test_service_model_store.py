"""Fleet model persistence: round-trip fidelity and knob validation.

A saved fleet must replay to **byte-identical** alert streams — the CS
models round-trip as raw arrays and the forest through its flat node
arrays, so a loaded fleet is indistinguishable from the freshly trained
one.  Mismatched geometry must refuse to load rather than silently
mis-detect.
"""

import numpy as np
import pytest

from repro import cli
from repro.service.api import ServiceConfig, replay
from repro.service.model_store import (
    FLEET_MODEL_FORMAT,
    ModelStoreError,
    load_fleet_npz,
    save_fleet_npz,
)
from repro.service.replay import fleet_recipes, prepare_fleet


@pytest.fixture(scope="module")
def setup():
    return prepare_fleet(
        fleet_recipes(2, t=2000),
        ServiceConfig(blocks=8, trees=5, train_frac=0.5, seed=0),
    )


@pytest.fixture(scope="module")
def saved(setup, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "fleet.npz"
    save_fleet_npz(setup.trained, path)
    return path


class TestRoundTrip:
    def test_models_and_forest_bitwise_equal(self, setup, saved):
        loaded = load_fleet_npz(saved)
        engine = setup.trained.engine
        assert loaded.engine.paths == engine.paths
        assert loaded.engine.wl == engine.wl
        assert loaded.engine.ws == engine.ws
        assert loaded.engine.blocks == engine.blocks
        for p in engine.paths:
            a, b = engine.model(p), loaded.engine.model(p)
            assert a.permutation.tobytes() == b.permutation.tobytes()
            assert a.lower.tobytes() == b.lower.tobytes()
            assert a.upper.tobytes() == b.upper.tobytes()
            assert a.sensor_names == b.sensor_names
            assert (
                setup.trained.references[p].tobytes()
                == loaded.references[p].tobytes()
            )
        fa = setup.trained.classifier.forest.to_arrays()
        fb = loaded.classifier.forest.to_arrays()
        assert sorted(fa) == sorted(fb)
        for key in fa:
            assert fa[key].tobytes() == fb[key].tobytes(), key
        assert loaded.label_names == setup.trained.label_names
        assert loaded.healthy_label == setup.trained.healthy_label

    def test_loaded_fleet_replays_byte_identical(self, setup, saved):
        loaded = load_fleet_npz(saved)
        loaded_setup = type(setup)(
            trained=loaded,
            eval_data=setup.eval_data,
            truth=setup.truth,
            wl=setup.wl,
            ws=setup.ws,
        )
        fresh = replay(ServiceConfig(chunk=200), setup)
        reloaded = replay(ServiceConfig(chunk=200), loaded_setup)
        assert reloaded.events == fresh.events
        assert len(fresh.events) > 0

    def test_save_is_deterministic(self, setup, tmp_path):
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_fleet_npz(setup.trained, p1)
        save_fleet_npz(setup.trained, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPrepareFleetModelPath:
    def test_trains_then_loads_on_second_run(self, tmp_path, monkeypatch):
        recipes = fleet_recipes(2, t=2000)
        model = tmp_path / "fleet.npz"
        config = ServiceConfig(
            blocks=8, trees=5, train_frac=0.5, seed=0, model_path=model
        )
        first = prepare_fleet(recipes, config)
        assert model.exists()
        # Second run must load, not retrain.
        import importlib

        replay_mod = importlib.import_module("repro.service.replay")

        def boom(*a, **k):
            raise AssertionError("train_fleet called despite saved model")

        monkeypatch.setattr(replay_mod, "train_fleet", boom)
        second = prepare_fleet(recipes, config)
        assert (
            replay(ServiceConfig(chunk=200), second).events
            == replay(ServiceConfig(chunk=200), first).events
        )

    def test_geometry_mismatch_refuses_to_load(self, tmp_path):
        recipes = fleet_recipes(2, t=2000)
        model = tmp_path / "fleet.npz"
        config = ServiceConfig(
            blocks=8, trees=5, train_frac=0.5, seed=0, model_path=model
        )
        prepare_fleet(recipes, config)
        with pytest.raises(ValueError, match="blocks"):
            prepare_fleet(recipes, config.replace(blocks=12))
        with pytest.raises(ValueError, match="wl"):
            prepare_fleet(recipes, config, wl=30, ws=10)
        with pytest.raises(ValueError, match="nodes"):
            prepare_fleet(fleet_recipes(3, t=2000), config)

    def test_not_a_model_archive_raises(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, x=np.arange(3))
        with pytest.raises(ValueError, match="manifest"):
            load_fleet_npz(bogus)
        assert FLEET_MODEL_FORMAT == "repro-fleet-model/v1"


class TestCorruptArchives:
    """Damaged model files are typed, diagnosable failures — never a raw
    zipfile/numpy/JSON traceback, never silently corrupted models."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelStoreError) as exc_info:
            load_fleet_npz(tmp_path / "nowhere.npz")
        assert exc_info.value.field == "path"

    def test_truncated_archive(self, saved, tmp_path):
        raw = saved.read_bytes()
        for frac in (0.25, 0.5, 0.9):
            clipped = tmp_path / f"trunc_{frac}.npz"
            clipped.write_bytes(raw[: int(len(raw) * frac)])
            with pytest.raises(ModelStoreError) as exc_info:
                load_fleet_npz(clipped)
            assert exc_info.value.field is not None

    def test_bit_flipped_archive(self, saved, tmp_path):
        """Single flipped bits anywhere in the file must be *caught* —
        the eager load path verifies each zip member's CRC-32."""
        raw = bytearray(saved.read_bytes())
        rng = np.random.default_rng(0)
        caught = 0
        for trial in range(8):
            flipped = bytearray(raw)
            # skip the first bytes (zip local header magic would just
            # change the error site, which is fine too)
            pos = int(rng.integers(64, len(raw) - 64))
            flipped[pos] ^= 1 << int(rng.integers(0, 8))
            mutant = tmp_path / f"flip_{trial}.npz"
            mutant.write_bytes(bytes(flipped))
            try:
                load_fleet_npz(mutant)
            except ModelStoreError:
                caught += 1
            # a flip in zip padding/slack may legitimately go unnoticed,
            # but it must never raise anything other than ModelStoreError
        assert caught >= 4, "most single-bit flips should be detected"

    def test_garbage_file(self, tmp_path):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"this is not an npz archive at all")
        with pytest.raises(ModelStoreError) as exc_info:
            load_fleet_npz(junk)
        assert exc_info.value.field == "archive"

    def test_mangled_manifest(self, saved, tmp_path):
        import zipfile

        mangled = tmp_path / "mangled.npz"
        with zipfile.ZipFile(saved) as src, zipfile.ZipFile(
            mangled, "w"
        ) as dst:
            for item in src.namelist():
                data = src.read(item)
                if item == "manifest.npy":
                    data = data[:-8] + b"notjson}"
                dst.writestr(item, data)
        with pytest.raises(ModelStoreError) as exc_info:
            load_fleet_npz(mangled)
        assert exc_info.value.field == "manifest"

    def test_missing_node_arrays(self, setup, tmp_path):
        import zipfile

        full = tmp_path / "full.npz"
        save_fleet_npz(setup.trained, full)
        gutted = tmp_path / "gutted.npz"
        with zipfile.ZipFile(full) as src, zipfile.ZipFile(
            gutted, "w"
        ) as dst:
            for item in src.namelist():
                if item.startswith("node0_perm"):
                    continue
                dst.writestr(item, src.read(item))
        with pytest.raises(ModelStoreError) as exc_info:
            load_fleet_npz(gutted)
        assert exc_info.value.field == "arrays"

    def test_typed_error_is_a_value_error(self):
        assert issubclass(ModelStoreError, ValueError)


class TestDetectModelFlag:
    def test_detect_model_flag_round_trip(self, tmp_path, capsys):
        model = tmp_path / "fleet.npz"
        args = [
            "detect", "--smoke",
            "--cache-dir", str(tmp_path / "cache"),
            "--model", str(model),
        ]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert model.exists()
        assert cli.main(args) == 0  # loads the saved model this time
        second = capsys.readouterr().out
        assert first == second
        assert first.strip(), "expected alert events on stdout"
