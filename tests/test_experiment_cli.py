"""Smoke tests for the paper scenarios through ``repro run`` (tiny
configurations)."""

import numpy as np

from repro import cli
from repro.experiments import fig6


def _run(argv, capsys) -> str:
    assert cli.main(["run", *argv]) == 0
    return capsys.readouterr().out


class TestTable1CLI:
    def test_main_prints_all_segments(self, capsys):
        out = _run(["table1", "--scale", "0.2", "--seed", "1"], capsys)
        for name in ("fault", "application", "power", "infrastructure",
                     "cross-architecture"):
            assert name in out


class TestFig5CLI:
    def test_main_with_small_grids(self, capsys):
        out = _run(
            ["fig5", "--smoke", "--methods", "lan", "cs-5", "--repeats", "2"],
            capsys,
        )
        assert "Figure 5" in out
        assert "lan" in out and "cs-5" in out

    def test_csv_export(self, tmp_path, capsys):
        csv = tmp_path / "fig5.csv"
        _run(
            ["fig5", "--smoke", "--methods", "lan", "--repeats", "1",
             "--csv", str(csv)],
            capsys,
        )
        assert csv.exists()
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("Axis,")
        assert len(lines) == 3  # header + 2 points


class TestFig6CLI:
    def test_main_writes_images(self, tmp_path, capsys):
        # The smoke recipe (t=2600, 2 nodes) covers at least one run of
        # every application (runs are 250-500 samples, six applications
        # plus idle gaps); the smoke evaluation renders Linpack at 8
        # blocks.
        out = _run(["fig6", "--smoke", "--out", str(tmp_path)], capsys)
        assert "Linpack" in out
        assert (tmp_path / "fig6_linpack_real.pgm").exists()
        assert (tmp_path / "fig6_linpack_imag.pgm").exists()


class TestFig2CLI:
    def test_writes_amg_images(self, tmp_path, capsys):
        out = _run(["fig2", "--smoke", "--out", str(tmp_path)], capsys)
        assert "AMG" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fig2_amg_imag.pgm", "fig2_amg_real.pgm",
        ]


class TestFig7CLI:
    def test_main_writes_three_architectures(self, tmp_path, capsys):
        _run(["fig7", "--smoke", "--out", str(tmp_path)], capsys)
        pgms = list(tmp_path.glob("fig7_*_real.pgm"))
        assert len(pgms) == 3


class TestCrossArchCLI:
    def test_main_reports_scores(self, capsys):
        out = _run(["crossarch", "--smoke"], capsys)
        assert "Random forest" in out
        assert "incompatible" in out


class TestPaperCatalog:
    def test_list_maps_every_paper_artifact(self, capsys):
        """`repro list` names one scenario for each artifact of the paper."""
        assert cli.main(["list", "--tag", "paper"]) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            cells = [c.strip() for c in line.split("|")]
            if len(cells) > 2 and cells[0] != "Name":
                rows[cells[2]] = cells[0]
        assert rows == {
            "Table I": "table1",
            "Figure 2": "fig2",
            "Figure 3": "fig3",
            "Figure 4": "fig4",
            "Figure 5": "fig5",
            "Figure 6": "fig6",
            "Figure 7": "fig7",
            "Section IV-F": "crossarch",
        }


class TestRunIntervalHelpers:
    def test_fig6_interval_roundtrip_random(self, rng):
        labels = rng.integers(0, 3, size=200)
        for lid in range(3):
            covered = np.zeros(200, dtype=bool)
            for s, e in fig6.run_intervals(labels, lid):
                assert s < e
                covered[s:e] = True
            assert np.array_equal(covered, labels == lid)
