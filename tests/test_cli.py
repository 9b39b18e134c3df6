"""Tests for the experiment CLI and the registry it is generated from."""

import pathlib

import pytest

from repro.cli import _build_parser, main
from repro.errors import ConfigurationError
from repro.experiments.ablations import ABLATIONS
from repro.experiments.registry import EXPERIMENTS, run
from repro.experiments.soak import GATE

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: Each ablation study shrunk to two or three small cells.
TINY_STUDIES = dict(
    retries=dict(lims=(1, 2), n_nodes=32, n_items=2_000, trials=1),
    replication=dict(degrees=(0, 1), n_nodes=32, n_items=2_000, trials=1),
    bitshift=dict(shifts=(0, 1), n_nodes=32, n_items=2_000, trials=1),
    overlays=dict(n_nodes=32, n_items=2_000, num_bitmaps=16, trials=1),
)


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

    def test_registry_covers_every_result_file_and_command(self, capsys):
        archived = [stem for entry in EXPERIMENTS.values() for stem in entry.results]
        assert len(archived) == len(set(archived))
        assert set(archived) == {path.stem for path in RESULTS_DIR.glob("*.txt")}
        parser = _build_parser()
        choices = next(a for a in parser._actions if a.dest == "experiment").choices
        assert set(choices) - {"list", "all"} <= set(EXPERIMENTS)
        main(["list"])
        out = capsys.readouterr().out
        for entry in EXPERIMENTS.values():
            assert entry.description in out

    @pytest.mark.parametrize(
        "name, params",
        [
            ("table3", dict(n_nodes=32, ms=(16,), n_buckets=5, scale=2e-4, trials=1,
                            bucket_m=16, bucket_counts=(2, 4))),
            ("soak", dict(
                ticks=12,
                fault_every=4,
                n_nodes=24,
                items_per_tick=20,
                gate={**GATE, "n_nodes": 24, "n_items": 500, "trials": 1, "draws": 1},
            )),
            ("ablations", {
                study: {**ABLATIONS.params[study], **tiny}
                for study, tiny in TINY_STUDIES.items()
            }),
        ],
    )
    def test_every_result_file_renders(self, name, params):
        entry = EXPERIMENTS[name]
        resolved = entry.resolve(params)
        texts = entry.render(entry.execute(resolved, jobs=1), resolved)
        assert tuple(texts) == entry.results
        assert all(text.strip() for text in texts.values())

    def test_unknown_param_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            run("multidim", bogus=1)
        with pytest.raises(ConfigurationError, match="bogus"):
            run("soak", gate={"bogus": 1})
        with pytest.raises(ConfigurationError, match="table9"):
            run("table9")


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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["multidim", "--seed", "3", "--nodes", "16", "--scale", "5"], "--scale"),
            (["ablations", "--nodes", "16"], "--nodes"),
            (["churn", "--trace-jsonl", "t.jsonl"], "--trace-jsonl"),
            (["all", "--scale", "0.001"], "--scale"),
        ],
    )
    def test_rejects_a_flag_the_experiment_does_not_take(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"does not take {flag}" in capsys.readouterr().err

    def test_title_reads_the_scale_the_run_used(self, capsys, monkeypatch):
        monkeypatch.setenv("DHS_SCALE", "0.0005")
        assert main(["table2", "--seed", "3", "--nodes", "32"]) == 0
        assert "(workload scale 0.0005)" in capsys.readouterr().out
        assert EXPERIMENTS["table3"].resolve({})["scale"] == 0.0005
        assert EXPERIMENTS["table3"].resolve({"scale": 0.25})["scale"] == 0.25

    def test_query_opt_command(self, capsys):
        assert main(["query-opt", "--seed", "3", "--scale", "0.0002", "--nodes", "32"]) == 0
        assert "Query optimization" in capsys.readouterr().out


class TestOutputOption:
    def test_trace_jsonl_round_trips_the_golden_fixture(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "--trace-jsonl", str(path)]) == 0
        golden = pathlib.Path(__file__).parent / "obs" / "golden_trace.jsonl"
        assert path.read_bytes() == golden.read_bytes()
        assert "Traced DHS count" in capsys.readouterr().out

    def test_output_writes_only_archived_files(self, tmp_path, capsys):
        # trace prints a report but archives no file under benchmarks/results/.
        assert main(["trace", "--output", str(tmp_path)]) == 0
        assert "Traced DHS count" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_reports_written_to_directory(self, tmp_path, capsys):
        assert main(
            ["multidim", "--seed", "3", "--output", str(tmp_path / "reports")]
        ) == 0
        saved = tmp_path / "reports" / "multidim.txt"
        assert saved.exists()
        assert "Multi-dimension" in saved.read_text()
