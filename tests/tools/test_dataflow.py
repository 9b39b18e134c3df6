"""Tests for the whole-program dataflow passes (DHS8xx) and their plumbing.

Fixture trees are miniature ``repro`` packages run through
``analyze_paths`` — the same single run the CLI makes, per-file and
whole-program rules together.  Each pass gets a seeded defect it must
catch (an out-of-API store write, an impure merge function, ...) and a
clean twin it must not flag; RNG construction across a package is
checked at the same level, and so is statement-span suppression
anchoring.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

from tools.analyze import Config, analyze_file, analyze_paths


def make_package(root: Path, files: Dict[str, str]) -> Path:
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        for ancestor in path.relative_to(root).parents:
            if str(ancestor) != ".":
                (root / ancestor / "__init__.py").touch()
        path.write_text(textwrap.dedent(body))
    return root / "repro"


def dataflow_codes(tmp_path: Path, files: Dict[str, str]) -> List[str]:
    pkg = make_package(tmp_path, files)
    report = analyze_paths([pkg], Config())
    assert not report.errors, report.errors
    return [v.code for v in report.violations]


# ----------------------------------------------------------------------
# RNG construction across a package (DHS101).  An unseeded RNG is flagged
# where it is built, so a helper handing it to another module cannot hide
# it; passing a seed where an RNG is expected is an `int` vs `Random`
# type error for `mypy --strict`.
# ----------------------------------------------------------------------
class TestRngTaint:
    def test_cross_module_rng_leak(self, tmp_path):
        pkg = make_package(
            tmp_path,
            {
                "repro/sim/entropy.py": """
                    import random

                    def make_rng():
                        return random.Random()
                    """,
                "repro/experiments/driver.py": """
                    from repro.sim.entropy import make_rng

                    def run():
                        rng = make_rng()
                        return rng.random()
                    """,
            },
        )
        report = analyze_paths([pkg], Config())
        flagged = [(v.code, Path(v.path).name) for v in report.violations]
        assert flagged == [("DHS101", "entropy.py")]

    def test_unblessed_literal_seed_flagged(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/sim/bad.py": """
                    import random
                    import numpy as np

                    def make():
                        return random.Random(1234)

                    def make_np():
                        return np.random.default_rng(1234)
                    """,
            },
        )
        assert codes == ["DHS101", "DHS101"]

    def test_seed_derived_constructions_clean(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/sim/good.py": """
                    import numpy as np
                    from repro.sim.seeds import derive_seed

                    def make(seed):
                        return np.random.default_rng(derive_seed(seed, "sub"))

                    def make_from_param(worker_seed):
                        return np.random.default_rng(worker_seed % (2 ** 32))
                    """,
            },
        )
        assert codes == []

    def test_rng_passed_to_rng_parameter_clean(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/sim/helper.py": """
                    def draw(rng):
                        return rng.random()
                    """,
                "repro/experiments/use.py": """
                    from repro.sim.helper import draw
                    from repro.sim.seeds import rng_for

                    def run(seed):
                        return draw(rng_for(seed, "use"))
                    """,
            },
        )
        assert codes == []

    def test_seed_module_is_exempt(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/sim/seeds.py": """
                    import random

                    def rng_for(seed, label):
                        return random.Random(hash((seed, label)))
                    """,
            },
        )
        # DHS103 still sees the salted hash(); only the RNG is exempt.
        assert codes == ["DHS103"]


# ----------------------------------------------------------------------
# Worker shared-state writes (DHS811–DHS813)
# ----------------------------------------------------------------------
class TestSharedState:
    def test_global_write_in_worker_cell(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/experiments/exp.py": """
                    from repro.sim.parallel import TrialSpec

                    TOTALS = {}

                    def _cell(seed):
                        TOTALS["runs"] = 1
                        return 0

                    def main():
                        return TrialSpec(fn=_cell, seed=1)
                    """,
            },
        )
        assert "DHS811" in codes

    def test_global_write_outside_worker_path_not_811(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/experiments/exp.py": """
                    TOTALS = {}

                    def untracked(seed):
                        TOTALS["runs"] = 1
                        return 0
                    """,
            },
        )
        assert "DHS811" not in codes

    def test_out_of_api_store_write(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/experiments/exp.py": """
                    from repro.sim.parallel import TrialSpec

                    def _cell(seed, node):
                        node.store["k"] = 1
                        return 0

                    def main():
                        return TrialSpec(fn=_cell, seed=1)
                    """,
            },
        )
        assert "DHS812" in codes

    def test_store_callback_pattern_is_sanctioned(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/experiments/exp.py": """
                    from repro.sim.parallel import TrialSpec

                    def _cell(seed, dht, key):
                        def write(node):
                            node.store[key] = 1

                        dht.store(key, write)
                        return 0

                    def main():
                        return TrialSpec(fn=_cell, seed=1)
                    """,
            },
        )
        assert "DHS812" not in codes

    def test_overlay_owns_store_writes(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/overlay/dht.py": """
                    from repro.sim.parallel import TrialSpec

                    def _cell(seed, node):
                        node.store["k"] = 1
                        return 0

                    def main():
                        return TrialSpec(fn=_cell, seed=1)
                    """,
            },
        )
        assert "DHS812" not in codes

    def test_obs_internals_mutation(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/obs/runtime.py": "METRICS = {}\n",
                "repro/experiments/exp.py": """
                    from repro.sim.parallel import TrialSpec
                    from repro.obs.runtime import METRICS

                    def _cell(seed):
                        METRICS["draws"] = 1
                        return 0

                    def main():
                        return TrialSpec(fn=_cell, seed=1)
                    """,
            },
        )
        assert "DHS813" in codes

    def test_roots_flow_through_call_graph(self, tmp_path):
        # The defect sits two hops below the TrialSpec entry point.
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/experiments/exp.py": """
                    from repro.sim.parallel import TrialSpec

                    COUNTS = {}

                    def _leaf():
                        COUNTS["n"] = 1

                    def _mid():
                        _leaf()

                    def _cell(seed):
                        _mid()
                        return 0

                    def main():
                        return TrialSpec(fn=_cell, seed=1)
                    """,
            },
        )
        assert "DHS811" in codes


# ----------------------------------------------------------------------
# Purity (DHS821–DHS822)
# ----------------------------------------------------------------------
PURITY_BASE = {
    "repro/sketches/base.py": """
        class Sketch:
            def __init__(self):
                self.regs = []

            def copy(self):
                return Sketch()

            def merge(self, other):
                self.regs.append(other)
        """,
}


class TestPurity:
    def test_direct_param_mutation_in_merge_module(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/sketches/merge.py": """
                    def union_into(target, other):
                        target.regs.update(other.regs)
                        return target
                    """,
            },
        )
        assert "DHS821" in codes

    def test_chain_impurity_with_witness(self, tmp_path):
        pkg = make_package(
            tmp_path,
            {
                **PURITY_BASE,
                "repro/sketches/merge.py": """
                    from repro.sketches.base import Sketch

                    def union_bad(first: Sketch, rest):
                        first.merge(rest)
                        return first
                    """,
            },
        )
        report = analyze_paths([pkg], Config())
        chain = [v for v in report.violations if v.code == "DHS822"]
        assert chain, [v.code for v in report.violations]
        assert "Sketch.merge" in chain[0].message

    def test_fresh_local_mutation_is_pure(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                **PURITY_BASE,
                "repro/sketches/merge.py": """
                    from repro.sketches.base import Sketch

                    def union_all(first: Sketch, rest):
                        result = Sketch()
                        result.merge(first)
                        for sketch in rest:
                            result.merge(sketch)
                        return result
                    """,
            },
        )
        assert [c for c in codes if c.startswith("DHS82")] == []

    def test_estimator_method_mutating_self(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/sketches/flaky.py": """
                    class Flaky:
                        def __init__(self):
                            self.calls = 0

                        def estimate(self):
                            self.calls += 1
                            return 1.0
                    """,
            },
        )
        assert "DHS821" in codes

    def test_io_in_required_module(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                "repro/sketches/setops.py": """
                    def estimate_union(a, b):
                        print("estimating")
                        return 0.0
                    """,
            },
        )
        assert "DHS821" in codes

    def test_pure_reads_stay_clean(self, tmp_path):
        codes = dataflow_codes(
            tmp_path,
            {
                **PURITY_BASE,
                "repro/sketches/setops.py": """
                    from repro.sketches.base import Sketch

                    def estimate_intersection(a: Sketch, b: Sketch):
                        return len(a.regs) + len(b.regs)
                    """,
            },
        )
        assert [c for c in codes if c.startswith("DHS82")] == []


# ----------------------------------------------------------------------
# Suppression anchoring over multi-line statements
# ----------------------------------------------------------------------
class TestSuppressionSpans:
    def lint(self, tmp_path: Path, source: str):
        path = tmp_path / "snippet.py"
        path.write_text(textwrap.dedent(source))
        violations, suppressed = analyze_file(path, Config(), module=None)
        return [v.code for v in violations], suppressed

    def test_comment_on_first_line_covers_continuations(self, tmp_path):
        codes, suppressed = self.lint(
            tmp_path,
            """
            import time

            now = (  # dhslint: disable=DHS102
                time.time()
            )
            """,
        )
        assert codes == []
        assert suppressed == 1

    def test_comment_on_continuation_line_covers_whole_statement(self, tmp_path):
        codes, suppressed = self.lint(
            tmp_path,
            """
            import time

            pair = (
                time.time(),
                1,  # dhslint: disable=DHS102
            )
            """,
        )
        assert codes == []
        assert suppressed == 1

    def test_decorator_comment_does_not_blanket_the_body(self, tmp_path):
        codes, _ = self.lint(
            tmp_path,
            """
            import functools
            import time

            @functools.wraps(print)  # dhslint: disable=DHS102
            def f():
                return time.time()
            """,
        )
        assert codes == ["DHS102"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
