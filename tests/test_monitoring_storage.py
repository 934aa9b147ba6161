"""Round-trip and cache-key tests for ``repro.monitoring.storage``."""

import gc
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.datasets.generators import ComponentData, SegmentData
from repro.datasets.recipes import recipe
from repro.datasets.schema import get_segment_spec
from repro.monitoring.storage import (
    atomic_savez,
    load_npz_arrays,
    load_segment,
    load_segment_npz,
    load_sensor_csv,
    save_segment,
    save_segment_npz,
    save_sensor_csv,
)
from repro.scenarios.cache import dataset_key, segment_key


def _tiny_segment(*, with_labels=True, with_target=False) -> SegmentData:
    """A hand-built two-component segment with awkward sensor names."""
    rng = np.random.default_rng(3)
    spec = get_segment_spec("application")
    components = []
    for i, name in enumerate(("node/a", "node.b")):
        matrix = rng.normal(1.0, 0.25, size=(3, 40))
        components.append(
            ComponentData(
                name=name,
                matrix=matrix,
                sensor_names=("cpu/0/load", "mem used", "temp,core"),
                sensor_groups=("cpu", "mem", "temp"),
                labels=rng.integers(0, 3, size=40).astype(np.intp)
                if with_labels else None,
                target=rng.random(40) if with_target else None,
                arch=f"arch{i}",
            )
        )
    return SegmentData(spec, components, label_names=("a", "b", "c"), seed=11)


class TestSensorCSV:
    def test_round_trip(self, tmp_path):
        ts = np.arange(5) * 0.5
        values = np.array([1.0, -2.25, 0.0, 3.5e-4, 1e6])
        save_sensor_csv(tmp_path / "s.csv", ts, values)
        ts2, v2 = load_sensor_csv(tmp_path / "s.csv")
        assert np.array_equal(ts, ts2)
        assert np.array_equal(values, v2)

    def test_rejects_mismatched_shapes(self, tmp_path):
        with pytest.raises(ValueError):
            save_sensor_csv(tmp_path / "s.csv", np.arange(3), np.arange(4))


class TestSegmentCSVFormat:
    def test_round_trip_with_sanitized_names(self, tmp_path):
        segment = _tiny_segment(with_labels=True)
        root = save_segment(segment, tmp_path / "seg")
        # '/' in component and sensor names must be sanitized on disk ...
        assert (root / "node_a" / "cpu_0_load.csv").exists()
        loaded = load_segment(root)
        # ... but restored verbatim from the manifest.
        assert [c.name for c in loaded.components] == ["node/a", "node.b"]
        assert loaded.components[0].sensor_names == (
            "cpu/0/load", "mem used", "temp,core",
        )
        assert loaded.label_names == ("a", "b", "c")
        assert loaded.seed == 11
        for orig, back in zip(segment.components, loaded.components):
            # CSV stores %.9g: values survive to ~9 significant digits.
            np.testing.assert_allclose(back.matrix, orig.matrix, rtol=1e-8)
            assert np.array_equal(back.labels, orig.labels)
            assert back.arch == orig.arch
            assert back.sensor_groups == orig.sensor_groups

    def test_timestamps_follow_sampling_interval(self, tmp_path):
        segment = _tiny_segment()
        root = save_segment(segment, tmp_path / "seg")
        ts, _ = load_sensor_csv(root / "node_a" / "mem used.csv")
        interval = segment.spec.sampling_interval_s
        assert np.array_equal(ts, np.arange(40) * interval)


class TestSegmentNPZFormat:
    @pytest.mark.parametrize("with_labels,with_target", [
        (True, False), (False, True), (True, True),
    ])
    def test_bit_exact_round_trip(self, tmp_path, with_labels, with_target):
        segment = _tiny_segment(
            with_labels=with_labels, with_target=with_target
        )
        path = save_segment_npz(segment, tmp_path / "seg.npz")
        loaded = load_segment_npz(path)
        assert loaded.spec.name == segment.spec.name
        assert loaded.label_names == segment.label_names
        assert loaded.seed == segment.seed
        for orig, back in zip(segment.components, loaded.components):
            assert np.array_equal(back.matrix, orig.matrix)  # bit-exact
            assert back.sensor_names == orig.sensor_names
            assert back.sensor_groups == orig.sensor_groups
            assert back.name == orig.name and back.arch == orig.arch
            if with_labels:
                assert np.array_equal(back.labels, orig.labels)
            else:
                assert back.labels is None
            if with_target:
                assert np.array_equal(back.target, orig.target)
            else:
                assert back.target is None

    def test_rejects_foreign_npz(self, tmp_path):
        import json

        path = tmp_path / "x.npz"
        np.savez(path, manifest=np.frombuffer(
            json.dumps({"format": "other"}).encode(), dtype=np.uint8
        ))
        with pytest.raises(ValueError, match="unsupported segment format"):
            load_segment_npz(path)


class TestSegmentNPZMmap:
    """Zero-copy ``mmap_mode`` reads of the binary segment format."""

    def test_mmap_round_trip_bit_exact(self, tmp_path):
        segment = _tiny_segment(with_labels=True, with_target=True)
        path = save_segment_npz(segment, tmp_path / "seg.npz")
        loaded = load_segment_npz(path, mmap_mode="r")
        for orig, back in zip(segment.components, loaded.components):
            assert np.array_equal(back.matrix, orig.matrix)
            assert np.array_equal(back.labels, orig.labels)
            assert np.array_equal(back.target, orig.target)
            assert back.sensor_names == orig.sensor_names

    def test_mmap_arrays_are_file_backed_and_read_only(self, tmp_path):
        segment = _tiny_segment()
        path = save_segment_npz(segment, tmp_path / "seg.npz")
        loaded = load_segment_npz(path, mmap_mode="r")
        matrix = loaded.components[0].matrix
        assert isinstance(matrix, np.memmap)
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_mmap_copy_on_write_is_mutable(self, tmp_path):
        segment = _tiny_segment()
        path = save_segment_npz(segment, tmp_path / "seg.npz")
        loaded = load_segment_npz(path, mmap_mode="c")
        loaded.components[0].matrix[0, 0] = 123.0
        assert loaded.components[0].matrix[0, 0] == 123.0
        # ... without touching the file.
        again = load_segment_npz(path, mmap_mode="r")
        assert again.components[0].matrix[0, 0] != 123.0

    def test_rejects_unknown_mmap_mode(self, tmp_path):
        segment = _tiny_segment()
        path = save_segment_npz(segment, tmp_path / "seg.npz")
        with pytest.raises(ValueError, match="mmap_mode"):
            load_segment_npz(path, mmap_mode="r+")

    def test_compressed_archive_falls_back_to_eager_read(self, tmp_path):
        """Compressed members cannot map; the loader still returns them."""
        segment = _tiny_segment(with_labels=True)
        eager = save_segment_npz(segment, tmp_path / "eager.npz")
        arrays = dict(np.load(eager))
        compressed = tmp_path / "compressed.npz"
        np.savez_compressed(compressed, **arrays)
        loaded = load_segment_npz(compressed, mmap_mode="r")
        for orig, back in zip(segment.components, loaded.components):
            assert np.array_equal(back.matrix, orig.matrix)


class TestLoadNpzArrays:
    def test_truncated_archive_leaks_no_file_handle(self, tmp_path):
        """A failed eager load closes the file it opened: no
        ``ResourceWarning: unclosed file`` surfaces at the next gc."""
        path = tmp_path / "half.npz"
        np.savez(path, x=np.arange(1000.0))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                load_npz_arrays(path)
            except Exception:
                pass
            else:
                pytest.fail("a truncated archive must not load")
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]


class TestAtomicSavez:
    def test_threads_writing_one_path_never_collide(self, tmp_path):
        """Two threads of one process rewriting the same archive both
        succeed, and what lands is always one complete archive."""
        target = tmp_path / "shared.npz"
        errors: list[BaseException] = []
        start = threading.Barrier(2)

        def writer(value: int) -> None:
            try:
                start.wait(timeout=10)
                for _ in range(40):
                    atomic_savez(target, data=np.full(4096, value))
            except BaseException as exc:  # reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(v,)) for v in (1, 2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        data = load_npz_arrays(target)["data"]
        assert data.shape == (4096,) and data[0] in (1, 2)
        assert (data == data[0]).all()
        assert os.listdir(tmp_path) == ["shared.npz"]


    @pytest.mark.parametrize(
        "arrays",
        [
            {"c": np.arange(24.0).reshape(2, 3, 4)},
            {"f": np.asfortranarray(np.arange(12).reshape(3, 4))},
            {"empty": np.empty((0, 5)), "scalar": np.array(3 + 4j)},
            {
                "manifest": np.frombuffer(b'{"format": "x"}', dtype=np.uint8),
                "strided": np.arange(40)[::3],
                "big": np.zeros((3, 200_000), dtype=np.float32),
            },
        ],
        ids=["c-contiguous", "f-contiguous", "empty", "manifest"],
    )
    def test_archive_equals_np_savez_byte_for_byte(self, tmp_path, arrays):
        # Zip members carry their write time: pin the clock.
        with mock.patch("time.time", return_value=1.7e9):
            atomic_savez(tmp_path / "ours.npz", **arrays)
            np.savez(tmp_path / "numpy.npz", **arrays)
        ours = (tmp_path / "ours.npz").read_bytes()
        assert ours == (tmp_path / "numpy.npz").read_bytes()

    def test_large_member_is_written_without_a_copy(self, tmp_path):
        """np.savez copies a member through 16 MiB chunks; the archive
        writer hands out slices of the array's own buffer."""
        big = np.ones(2 << 20)  # 16 MiB
        atomic_savez(tmp_path / "warm.npz", x=big[:8])
        tracemalloc.start()
        try:
            atomic_savez(tmp_path / "big.npz", x=big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.array_equal(load_npz_arrays(tmp_path / "big.npz")["x"], big)


class TestCacheKeyStability:
    """Content keys must be stable across processes (no hash seeds)."""

    SNIPPET = (
        "from repro.datasets.recipes import recipe\n"
        "from repro.scenarios.cache import dataset_key, segment_key\n"
        "from repro.scenarios.registry import get_scenario\n"
        "r = recipe('application', t=700, nodes=2, noise_std=0.05)\n"
        "print(segment_key(r))\n"
        "print(dataset_key(r, 'cs-20', wl=30, ws=5))\n"
        "print(get_scenario('fig3').spec_hash())\n"
    )

    def _subprocess_keys(self) -> list[str]:
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", self.SNIPPET],
            capture_output=True,
            text=True,
            check=True,
            env={
                **os.environ,
                "PYTHONPATH": str(src),
                "PYTHONHASHSEED": "random",
            },
        )
        return out.stdout.split()

    def test_keys_match_across_processes(self):
        from repro.scenarios.registry import get_scenario

        r = recipe("application", t=700, nodes=2, noise_std=0.05)
        local = [
            segment_key(r),
            dataset_key(r, "cs-20", wl=30, ws=5),
            get_scenario("fig3").spec_hash(),
        ]
        assert self._subprocess_keys() == local

    def test_generated_data_stable_across_hash_seeds(self):
        """Recipes must build bit-identical segments in any process.

        Guards against PYTHONHASHSEED leaking into generation (e.g. via
        ``hash(str)``-derived RNG seeds), which would silently poison the
        cross-process artifact cache.
        """
        snippet = (
            "from repro.datasets.recipes import recipe\n"
            "m = recipe('application', t=400, nodes=2).build()"
            ".components[0].matrix\n"
            "print(repr(float(m.sum())))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        sums = set()
        for seed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                check=True,
                env={
                    **os.environ,
                    "PYTHONPATH": str(src),
                    "PYTHONHASHSEED": seed,
                },
            )
            sums.add(out.stdout.strip())
        assert len(sums) == 1, f"generation depends on PYTHONHASHSEED: {sums}"
