"""Compare two result files of ``run.py`` against BENCHMARK.json's bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

Per workload and end-to-end metric it prints both values, the signed
relative change in the metric's *better* direction (positive = B is
better) and a verdict:

``ok``
    B is no worse than A by more than the metric's bound.
``worse``
    B is worse than A by more than the bound.
``exact-mismatch``
    A and B ran the same seed, so the simulated statistics (hops, bytes,
    error, failed ops, ``sim_digest``) must be identical, and are not —
    yet the change is inside the bound.  A change that claims only a
    speed-up must not produce this.

Exit status is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Simulated statistics: identical for one seed, whatever the host.
EXACT = ("hops_per_op", "bytes_per_op", "rel_error_pct")


def change(a: float, b: float, better: str) -> float:
    """Relative change from ``a`` to ``b``, positive when ``b`` is better."""
    if a:
        delta = (b - a) / abs(a)
    else:
        delta = 0.0 if b == a else math.copysign(math.inf, b - a)
    return (-delta if better == "lower" else delta) or 0.0  # no -0.0


def verdict(a: float, b: float, better: str, bound: float, exact: bool) -> str:
    """``ok`` / ``worse`` / ``exact-mismatch`` for one metric."""
    if change(a, b, better) < -bound:
        return "worse"
    if exact and a != b:
        return "exact-mismatch"
    return "ok"


def compare(
    a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]
) -> List[Tuple[str, str, Any, Any, Optional[float], str]]:
    """Rows ``(workload, metric, a, b, change, verdict)`` for two results."""
    same_seed = a["manifest"]["seed"] == b["manifest"]["seed"]
    rows: List[Tuple[str, str, Any, Any, Optional[float], str]] = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        ra, rb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va = ra["end_to_end"][key]["value"]
            vb = rb["end_to_end"][key]["value"]
            exact = same_seed and key in EXACT
            rows.append(
                (
                    name, key, va, vb,
                    change(va, vb, metric["better"]),
                    verdict(va, vb, metric["better"], metric["bound"], exact),
                )
            )
        # Failed ops are held to an absolute bound of zero.
        fa, fb = ra["failed_op_share"], rb["failed_op_share"]
        rows.append((name, "failed_op_share", fa, fb, fa - fb, "worse" if fb > fa else "ok"))
        if same_seed:
            da, db = ra["sim_digest"], rb["sim_digest"]
            rows.append(
                (name, "sim_digest", da[:12], db[:12], None, "ok" if da == db else "exact-mismatch")
            )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.strip().split("\n\n")[0], file=sys.stderr)
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    print(f"{'workload':16s} {'metric':16s} {'A':>16s} {'B':>16s} {'change':>9s}  verdict")
    for workload, metric, va, vb, delta, result in rows:
        shown = "" if delta is None else f"{100 * delta:+8.2f}%"
        fa = va if isinstance(va, str) else f"{va:.4f}"
        fb = vb if isinstance(vb, str) else f"{vb:.4f}"
        print(f"{workload:16s} {metric:16s} {fa:>16s} {fb:>16s} {shown:>9s}  {result}")
    tally = {result: sum(1 for row in rows if row[5] == result) for result in ("ok", "worse", "exact-mismatch")}
    print(", ".join(f"{count} {result}" for result, count in tally.items()))
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
