"""A bad sweep name fails before any cell of the grid runs."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.ablations import ABLATIONS
from repro.experiments.registry import run
from repro.sim import parallel


@pytest.fixture
def executed(monkeypatch):
    """The specs ``run_trials`` ran, in order."""
    ran = []
    execute = parallel._execute

    def counting(spec):
        ran.append(spec)
        return execute(spec)

    monkeypatch.setattr(parallel, "_execute", counting)
    return ran


@pytest.mark.parametrize(
    "name, params, match",
    [
        (
            "faultmatrix",
            dict(fault_kinds=("drop", "crashh"), n_nodes=16, n_items=500, draws=1),
            "unknown fault kind 'crashh'",
        ),
        (
            "ablations",
            dict(overlays={**ABLATIONS.params["overlays"], "overlays": ("chord", "kad")}),
            "unknown overlay 'kad'",
        ),
        (
            "robustness",
            dict(failure_fractions=(0.3, 0.1), n_nodes=16, n_items=500),
            "failure_fractions must be ascending",
        ),
    ],
)
def test_rejected_before_any_cell_runs(executed, name, params, match):
    with pytest.raises(ConfigurationError, match=match):
        run(name, jobs=1, **params)
    assert executed == []


def test_a_good_grid_runs_every_cell(executed):
    rows = run(
        "faultmatrix",
        jobs=1,
        fault_kinds=("drop",),
        intensities=(0.3,),
        policies=("none",),
        replications=(0,),
        n_nodes=16,
        n_items=500,
        num_bitmaps=16,
        trials=1,
        draws=2,
    )
    assert len(executed) == 2
    assert len(rows) == 1
