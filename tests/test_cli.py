"""Tests for the experiment CLI."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestCatalogue:
    def test_every_table_and_figure_registered(self):
        expected = {
            "insertion",
            "table2",
            "table3",
            "scalability",
            "accuracy",
            "histogram-accuracy",
            "histogram-types",
            "query-opt",
            "baselines",
            "multidim",
            "multitenant",
            "churn",
            "robustness",
            "faultmatrix",
            "soak",
            "ablations",
            "trace",
        }
        assert set(EXPERIMENTS) == expected

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out


class TestExecution:
    def test_runs_small_experiment(self, capsys):
        # multidim is the cheapest registered experiment; run it for real.
        assert main(["multidim", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Multi-dimension" in out

    def test_scale_and_nodes_flags(self, capsys):
        assert main(["table2", "--seed", "3", "--scale", "0.0005", "--nodes", "32"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "0.0005" in out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_rejects_jobs_below_one(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["multidim", "--jobs", "0"])
        assert exit_info.value.code == 2
        assert "--jobs must be >= 1, got 0" in capsys.readouterr().err

    def test_query_opt_command(self, capsys):
        assert main(["query-opt", "--seed", "3", "--scale", "0.0002", "--nodes", "32"]) == 0
        assert "Query optimization" in capsys.readouterr().out


class TestOutputOption:
    def test_reports_written_to_directory(self, tmp_path, capsys):
        assert main(
            ["multidim", "--seed", "3", "--output", str(tmp_path / "reports")]
        ) == 0
        saved = tmp_path / "reports" / "multidim.txt"
        assert saved.exists()
        assert "Multi-dimension" in saved.read_text()
