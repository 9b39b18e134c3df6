"""``tools/cov.py`` must not leave a coverage file behind a failed run."""

from __future__ import annotations

from tools import cov


def test_failed_pytest_run_leaves_the_json_untouched(tmp_path, monkeypatch, capsys):
    # The line tracer would displace the one an enclosing coverage run
    # installed; what is under test is the exit-code handling around it.
    monkeypatch.setattr(cov.LineCollector, "start", lambda self: None)
    monkeypatch.setattr(cov.LineCollector, "stop", lambda self: None)
    failing = tmp_path / "test_deliberately_failing.py"
    failing.write_text("def test_fails():\n    assert False\n")
    target = tmp_path / "COVERAGE.json"
    target.write_text("committed measurement\n")

    code = cov.main(
        ["cov.py", "--json", str(target), str(failing), "-p", "no:cacheprovider"]
    )

    assert code == 1
    assert target.read_text() == "committed measurement\n"
    assert f"not writing {target}: pytest exited 1" in capsys.readouterr().out
