"""Golden regression for the multi-tenant Zipf workload.

The committed fixture pins the per-tenant operation counts and the
load-balance summary row byte-for-byte, so refactors to the lean node
representation (or the vectorized populate path) cannot silently shift
results.  Regenerate deliberately with::

    PYTHONPATH=src python -c "..."  # see tests/experiments/data/

after verifying the change is an intended behaviour change.
"""

import json
import pathlib
from dataclasses import asdict

from repro.experiments.multitenant import format_multitenant
from repro.experiments.registry import run
from repro.workloads.multitenant import tenant_op_counts

FIXTURE = pathlib.Path(__file__).parent / "data" / "multitenant_golden.json"


class TestMultitenantGolden:
    def test_zipf_op_counts_pinned(self):
        golden = json.loads(FIXTURE.read_text())
        zipf = golden["zipf"]
        ops = tenant_op_counts(
            zipf["n_tenants"],
            zipf["total_ops"],
            theta=zipf["theta"],
            seed=zipf["seed"],
        )
        assert ops.tolist() == zipf["op_counts"]

    def test_summary_rows_pinned_byte_for_byte(self):
        golden = json.loads(FIXTURE.read_text())
        params = golden["params"]
        rows = run(
            "multitenant",
            node_counts=tuple(params["node_counts"]),
            n_tenants=params["n_tenants"],
            total_ops=params["total_ops"],
            theta=params["theta"],
            num_bitmaps=params["num_bitmaps"],
            count_tenants=params["count_tenants"],
            trials=params["trials"],
            seed=params["seed"],
            jobs=1,
        )
        # Every numeric field exactly equal (JSON floats round-trip).
        assert [asdict(row) for row in rows] == golden["rows"]
        # ... and the rendered summary row byte-for-byte.
        assert format_multitenant(rows) == golden["report"]
