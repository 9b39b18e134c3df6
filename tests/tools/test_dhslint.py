"""Tests for ``tools.analyze`` (dhslint).

Each rule code gets a fixture snippet that triggers it and one that is
clean (or suppressed); a subprocess smoke test asserts the shipped tree
passes and that the CLI's exit codes and rule catalogue behave.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.analyze import Config, analyze_file, analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint(tmp_path: Path, source: str, module: str | None = None):
    """Write ``source`` to a file and return its violation codes."""
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source))
    violations, suppressed = analyze_file(path, Config(), module=module)
    return [v.code for v in violations], suppressed


# ----------------------------------------------------------------------
# DHS101 — unseeded RNG
# ----------------------------------------------------------------------
class TestUnseededRng:
    def test_module_level_random_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "import random\nx = random.random()\n")
        assert codes == ["DHS101"]

    def test_direct_random_construction_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "import random\nrng = random.Random(7)\n")
        assert codes == ["DHS101"]

    def test_from_import_alias_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "from random import randint as ri\nx = ri(0, 9)\n")
        assert codes == ["DHS101"]

    def test_numpy_global_rng_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "import numpy as np\nx = np.random.rand(3)\n")
        assert codes == ["DHS101"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "import numpy as np\nr = np.random.default_rng()\n")
        assert codes == ["DHS101"]

    def test_seeded_default_rng_clean(self, tmp_path):
        # workloads/zipf.py's form: the seed parameter passed straight in.
        codes, _ = lint(
            tmp_path,
            "import numpy as np\ndef f(seed):\n    return np.random.default_rng(seed)\n",
        )
        assert codes == []

    def test_derived_seed_default_rng_clean(self, tmp_path):
        # workloads/assignment.py, experiments/multitenant.py and
        # experiments/histogram_types.py: a derived seed folded to 32 bits.
        codes, _ = lint(
            tmp_path,
            """
            import numpy as np
            from repro.sim.seeds import derive_seed

            def f(seed):
                return np.random.default_rng(derive_seed(seed, "x") % 2**32)
            """,
        )
        assert codes == []

    def test_seed_attribute_default_rng_clean(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "from numpy.random import default_rng\n"
            "def f(spec):\n    return default_rng(seed=spec.seed + 1)\n",
        )
        assert codes == []

    def test_literal_seed_default_rng_flagged(self, tmp_path):
        # A constant seed detaches the stream from the master seed: every
        # run draws the same numbers whatever --seed says.
        codes, _ = lint(tmp_path, "import numpy as np\nr = np.random.default_rng(1234)\n")
        assert codes == ["DHS101"]

    def test_unrelated_value_default_rng_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "import numpy as np\ndef f(n_nodes):\n"
            "    return np.random.default_rng(seed=n_nodes * 7)\n",
        )
        assert codes == ["DHS101"]

    def test_seed_root_module_exempt(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "import random\nrng = random.Random(7)\n",
            module="repro.sim.seeds",
        )
        assert codes == []

    def test_instance_rng_use_clean(self, tmp_path):
        codes, _ = lint(tmp_path, "def f(rng):\n    return rng.random()\n")
        assert codes == []


# ----------------------------------------------------------------------
# DHS102 — wall clock / entropy
# ----------------------------------------------------------------------
class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "import time\nnow = time.time()\n")
        assert codes == ["DHS102"]

    def test_datetime_now_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path, "from datetime import datetime\nd = datetime.now()\n"
        )
        assert codes == ["DHS102"]

    def test_os_urandom_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "import os\nb = os.urandom(8)\n")
        assert codes == ["DHS102"]

    def test_logical_time_clean(self, tmp_path):
        codes, _ = lint(tmp_path, "def sweep(now: int) -> int:\n    return now + 1\n")
        assert codes == []


# ----------------------------------------------------------------------
# DHS103 — builtin hash()
# ----------------------------------------------------------------------
class TestBuiltinHash:
    def test_hash_call_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "key = hash('item')\n")
        assert codes == ["DHS103"]

    def test_hash_inside_dunder_hash_clean(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            """
            class Family:
                def __hash__(self) -> int:
                    return hash((type(self).__name__, 3))
            """,
        )
        assert codes == []

    def test_method_named_hash_clean(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            """
            class Family:
                def hash(self, item):
                    return 7
            f = Family()
            x = f.hash('a')
            """,
        )
        assert codes == []


# ----------------------------------------------------------------------
# DHS2xx — layering
# ----------------------------------------------------------------------
def make_package(root: Path, files: dict) -> Path:
    """Materialize a mini ``repro`` package tree with ``__init__.py`` files."""
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        for ancestor in path.relative_to(root).parents:
            if str(ancestor) != ".":
                (root / ancestor / "__init__.py").touch()
        path.write_text(textwrap.dedent(body))
    return root / "repro"


class TestLayering:
    def test_upward_import_flagged(self, tmp_path):
        pkg = make_package(
            tmp_path, {"repro/sketches/est.py": "from repro.core.dhs import X\n"}
        )
        report = analyze_paths([pkg], Config())
        assert [v.code for v in report.violations] == ["DHS201"]
        assert "upward" in report.violations[0].message

    def test_same_layer_import_flagged(self, tmp_path):
        pkg = make_package(
            tmp_path, {"repro/sketches/est.py": "from repro.sim.seeds import rng_for\n"}
        )
        report = analyze_paths([pkg], Config())
        assert [v.code for v in report.violations] == ["DHS201"]
        assert "same-layer" in report.violations[0].message

    def test_relative_upward_import_flagged(self, tmp_path):
        pkg = make_package(
            tmp_path, {"repro/sketches/est.py": "from ..core import dhs\n"}
        )
        report = analyze_paths([pkg], Config())
        assert [v.code for v in report.violations] == ["DHS201"]

    def test_downward_import_clean(self, tmp_path):
        pkg = make_package(
            tmp_path,
            {"repro/core/engine.py": "from repro.sketches.base import HashSketch\n"},
        )
        report = analyze_paths([pkg], Config())
        assert report.violations == []

    def test_hashing_must_stay_self_contained(self, tmp_path):
        pkg = make_package(
            tmp_path, {"repro/hashing/mix.py": "from repro.errors import ReproError\n"}
        )
        report = analyze_paths([pkg], Config())
        assert [v.code for v in report.violations] == ["DHS202"]

    def test_hashing_internal_import_clean(self, tmp_path):
        pkg = make_package(
            tmp_path, {"repro/hashing/mix.py": "from repro.hashing.bits import rho\n"}
        )
        report = analyze_paths([pkg], Config())
        assert report.violations == []

    def test_unassigned_package_flagged(self, tmp_path):
        pkg = make_package(tmp_path, {"repro/mystery/mod.py": "x = 1\n"})
        report = analyze_paths([pkg], Config())
        # One DHS203 per file of the unassigned package (init + module).
        assert set(v.code for v in report.violations) == {"DHS203"}
        assert len(report.violations) == 2


# ----------------------------------------------------------------------
# DHS301 — float equality
# ----------------------------------------------------------------------
class TestFloatEquality:
    def test_float_literal_comparison_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "def f(x):\n    return x == 0.5\n")
        assert codes == ["DHS301"]

    def test_division_comparison_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "def f(a, b, c):\n    return a / b != c\n")
        assert codes == ["DHS301"]

    def test_math_call_comparison_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "import math\ndef f(x, y):\n    return math.log(x) == y\n")
        assert codes == ["DHS301"]

    def test_isclose_clean(self, tmp_path):
        codes, _ = lint(
            tmp_path, "import math\ndef f(x):\n    return math.isclose(x, 0.5)\n"
        )
        assert codes == []

    def test_int_comparison_clean(self, tmp_path):
        codes, _ = lint(tmp_path, "def f(x: int) -> bool:\n    return x == 5\n")
        assert codes == []

    def test_rule_scoped_to_estimator_packages(self, tmp_path):
        source = "def f(x):\n    return x == 0.5\n"
        flagged, _ = lint(tmp_path, source, module="repro.sketches.pcsa")
        exempt, _ = lint(tmp_path, source, module="repro.overlay.chord")
        assert flagged == ["DHS301"]
        assert exempt == []


# ----------------------------------------------------------------------
# DHS4xx — generic hygiene
# ----------------------------------------------------------------------
class TestGenericRules:
    def test_mutable_default_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "def f(xs=[]):\n    return xs\n")
        assert codes == ["DHS401"]

    def test_mutable_call_default_flagged(self, tmp_path):
        codes, _ = lint(tmp_path, "def f(xs=dict()):\n    return xs\n")
        assert codes == ["DHS401"]

    def test_none_default_clean(self, tmp_path):
        codes, _ = lint(tmp_path, "def f(xs=None):\n    return xs or []\n")
        assert codes == []

    def test_bare_except_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path, "try:\n    x = 1\nexcept:\n    x = 2\n"
        )
        assert codes == ["DHS402"]

    def test_broad_except_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path, "try:\n    x = 1\nexcept Exception:\n    x = 2\n"
        )
        assert codes == ["DHS402"]

    def test_reraising_handler_clean(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "try:\n    x = 1\nexcept Exception:\n    raise RuntimeError('ctx')\n",
        )
        assert codes == []

    def test_narrow_except_clean(self, tmp_path):
        codes, _ = lint(
            tmp_path, "try:\n    x = 1\nexcept ValueError:\n    x = 2\n"
        )
        assert codes == []

    def test_all_lists_undefined_name(self, tmp_path):
        codes, _ = lint(tmp_path, "__all__ = ['ghost']\n")
        assert codes == ["DHS403"]

    def test_public_def_missing_from_all(self, tmp_path):
        codes, _ = lint(
            tmp_path, "__all__ = ['f']\n\ndef f():\n    pass\n\ndef g():\n    pass\n"
        )
        assert codes == ["DHS403"]

    def test_private_def_not_required(self, tmp_path):
        codes, _ = lint(
            tmp_path, "__all__ = ['f']\n\ndef f():\n    pass\n\ndef _g():\n    pass\n"
        )
        assert codes == []

    def test_module_without_all_not_checked(self, tmp_path):
        codes, _ = lint(tmp_path, "def f():\n    pass\n")
        assert codes == []


# ----------------------------------------------------------------------
# DHS501 — ad-hoc process pools
# ----------------------------------------------------------------------
class TestAdHocProcessPool:
    def test_multiprocessing_import_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path, "import multiprocessing\n", module="repro.experiments.foo"
        )
        assert codes == ["DHS501"]

    def test_concurrent_futures_import_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "from concurrent.futures import ProcessPoolExecutor\n",
            module="repro.core.count",
        )
        assert codes == ["DHS501"]

    def test_os_fork_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path, "import os\npid = os.fork()\n", module="repro.overlay.chord"
        )
        assert codes == ["DHS501"]

    def test_parallel_root_exempt(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "import multiprocessing\nfrom concurrent.futures import ProcessPoolExecutor\n",
            module="repro.sim.parallel",
        )
        assert codes == []

    def test_outside_package_not_checked(self, tmp_path):
        codes, _ = lint(tmp_path, "import multiprocessing\n")
        assert codes == []

    # ``_exempt`` in the next two ids is historical: only
    # repro.sim.parallel is exempt, regstore is flagged like any module.
    def test_regstore_shared_memory_import_exempt(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "from multiprocessing import shared_memory\n",
            module="repro.core.regstore",
        )
        assert codes == ["DHS501"]

    def test_regstore_dotted_shared_memory_import_exempt(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "import multiprocessing.shared_memory\n",
            module="repro.core.regstore",
        )
        assert codes == ["DHS501"]

    def test_regstore_pool_import_still_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "from multiprocessing import Pool\n",
            module="repro.core.regstore",
        )
        assert codes == ["DHS501"]


# ----------------------------------------------------------------------
# DHS1001 — digest computation over register state outside antientropy
# ----------------------------------------------------------------------
class TestDigestOutsideAntientropy:
    def test_hashlib_next_to_regstore_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "import hashlib\n"
            "from repro.core.regstore import RegArena\n"
            "d = hashlib.blake2b(b'row', digest_size=16)\n",
            module="repro.core.maintenance",
        )
        # Both the import and the call are flagged.
        assert codes == ["DHS1001", "DHS1001"]

    def test_from_import_forms_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "from hashlib import blake2b\n"
            "from repro.core import regstore\n"
            "d = blake2b(b'row')\n",
            module="repro.experiments.soak",
        )
        assert codes == ["DHS1001", "DHS1001"]

    def test_antientropy_module_exempt(self, tmp_path):
        # The same snippet would trip DHS201 too (overlay importing
        # core) — the real module duck-types arenas for exactly that
        # reason; here only the DHS1001 exemption is under test.
        codes, _ = lint(
            tmp_path,
            "import hashlib\n"
            "from repro.core.regstore import RegArena\n"
            "d = hashlib.blake2b(b'row')\n",
            module="repro.overlay.antientropy",
        )
        assert "DHS1001" not in codes

    def test_hashlib_without_regstore_clean(self, tmp_path):
        # workloads/relations.py hashes relation names — no register
        # state in sight, so no canonicalization to fork.
        codes, _ = lint(
            tmp_path,
            "import hashlib\nd = hashlib.blake2b(b'relation').digest()\n",
            module="repro.workloads.relations",
        )
        assert codes == []

    def test_regstore_without_hashlib_clean(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "from repro.core.regstore import RegArena\narena = None\n",
            module="repro.core.maintenance",
        )
        assert codes == []

    def test_outside_package_not_checked(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "import hashlib\nfrom repro.core.regstore import RegArena\n",
        )
        assert codes == []


# ----------------------------------------------------------------------
# DHS502 — unseeded TrialSpec in experiment drivers
# ----------------------------------------------------------------------
class TestUnseededTrialSpec:
    HEADER = "from repro.sim.parallel import TrialSpec\n\ndef f():\n    pass\n\n"

    def test_missing_seed_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            self.HEADER + "spec = TrialSpec(fn=f)\n",
            module="repro.experiments.accuracy",
        )
        assert codes == ["DHS502"]

    def test_literal_seed_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            self.HEADER + "spec = TrialSpec(fn=f, seed=0)\n",
            module="repro.experiments.accuracy",
        )
        assert codes == ["DHS502"]

    def test_positional_literal_seed_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            self.HEADER + "spec = TrialSpec(f, 42)\n",
            module="repro.experiments.accuracy",
        )
        assert codes == ["DHS502"]

    def test_derived_seed_clean(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            self.HEADER
            + "def build(seed):\n    return TrialSpec(fn=f, seed=seed)\n",
            module="repro.experiments.accuracy",
        )
        assert codes == []

    def test_outside_experiments_not_checked(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            self.HEADER + "spec = TrialSpec(fn=f)\n",
            module="repro.sim.parallel_helpers",
        )
        assert codes == []


# ----------------------------------------------------------------------
# DHS601 — real-time waits in the simulation package
# ----------------------------------------------------------------------
class TestRealTimeWait:
    def test_time_sleep_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "import time\ntime.sleep(0.5)\n",
            module="repro.overlay.faults",
        )
        assert codes == ["DHS601"]

    def test_from_import_alias_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "from time import sleep as zzz\nzzz(1)\n",
            module="repro.core.policy",
        )
        assert codes == ["DHS601"]

    def test_asyncio_sleep_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "import asyncio\n\nasync def f():\n    await asyncio.sleep(1)\n",
            module="repro.core.maintenance",
        )
        assert codes == ["DHS601"]

    def test_threading_timer_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "import threading\nt = threading.Timer(5.0, print)\n",
            module="repro.sim.churn",
        )
        assert codes == ["DHS601"]

    def test_outside_package_not_checked(self, tmp_path):
        # Benchmarks / tools may legitimately sleep (e.g. warm-up loops);
        # the rule polices only the simulation package itself.
        codes, _ = lint(tmp_path, "import time\ntime.sleep(0.5)\n")
        assert codes == []

    def test_logical_clock_clean(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "def wait(injector, ticks):\n"
            "    injector.advance_to(injector.clock + ticks)\n",
            module="repro.overlay.faults",
        )
        assert codes == []


# ----------------------------------------------------------------------
# DHS701 — ad-hoc console output
# ----------------------------------------------------------------------
class TestAdHocOutput:
    def test_print_in_library_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "def walk(result):\n    print('probes', result.probes)\n",
            module="repro.core.count",
        )
        assert codes == ["DHS701"]

    def test_stdout_write_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "import sys\nsys.stdout.write('hops\\n')\n",
            module="repro.overlay.chord",
        )
        assert codes == ["DHS701"]

    def test_stderr_write_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "import sys\nsys.stderr.write('oops\\n')\n",
            module="repro.sim.parallel",
        )
        assert codes == ["DHS701"]

    def test_pprint_flagged(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "from pprint import pprint\npprint({'hops': 3})\n",
            module="repro.experiments.accuracy",
        )
        assert codes == ["DHS701"]

    def test_cli_exempt(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "print('report written')\n",
            module="repro.cli",
        )
        assert codes == []

    def test_obs_package_exempt(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "import sys\nsys.stdout.write('span tree\\n')\n",
            module="repro.obs.export",
        )
        assert codes == []

    def test_outside_package_not_checked(self, tmp_path):
        # Benchmarks, tools and tests print freely; the rule polices the
        # library package only.
        codes, _ = lint(tmp_path, "print('bench done')\n")
        assert codes == []

    def test_metrics_call_clean(self, tmp_path):
        codes, _ = lint(
            tmp_path,
            "from repro.obs import runtime as obs\n"
            "def record(hops):\n"
            "    if obs.METERING:\n"
            "        obs.METRICS.observe('dhs.lookup.hops', hops)\n",
            module="repro.core.count",
        )
        assert codes == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_disable_suppresses(self, tmp_path):
        codes, suppressed = lint(
            tmp_path,
            "import random\nx = random.random()  # dhslint: disable=DHS101\n",
        )
        assert codes == []
        assert suppressed == 1

    def test_disable_all_suppresses(self, tmp_path):
        codes, suppressed = lint(
            tmp_path,
            "import time\nnow = time.time()  # dhslint: disable=all\n",
        )
        assert codes == []
        assert suppressed == 1

    def test_disable_wrong_code_keeps_violation(self, tmp_path):
        codes, suppressed = lint(
            tmp_path,
            "import time\nnow = time.time()  # dhslint: disable=DHS101\n",
        )
        assert codes == ["DHS102"]
        assert suppressed == 0


# ----------------------------------------------------------------------
# CLI end-to-end
# ----------------------------------------------------------------------
def run_cli(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "tools.analyze", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=env,
    )


class TestCli:
    def test_shipped_tree_is_clean(self):
        result = run_cli("src/repro")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 violation(s)" in result.stdout

    def test_shipped_tree_is_dataflow_clean(self):
        # No flag needed: every run includes the whole-program (DHS8xx)
        # pass and prints its summary line.
        result = run_cli("src/repro")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 violation(s)" in result.stdout
        assert "dataflow [" in result.stdout
        assert re.search(r"worker_roots=[1-9]", result.stdout), result.stdout

    def test_violations_exit_nonzero_with_code(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        result = run_cli(str(bad))
        assert result.returncode == 1
        assert "DHS101" in result.stdout

    def test_missing_path_is_usage_error(self):
        result = run_cli("does/not/exist")
        assert result.returncode == 2

    def test_syntax_error_reported(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        result = run_cli(str(bad))
        assert result.returncode == 2
        assert "syntax error" in result.stdout

    def test_list_rules_names_every_code(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for code in (
            "DHS101", "DHS102", "DHS103",
            "DHS201", "DHS202", "DHS203",
            "DHS301", "DHS401", "DHS402", "DHS403",
            "DHS501", "DHS502", "DHS601", "DHS701", "DHS1001",
            # Whole-program dataflow rules.
            "DHS811", "DHS812", "DHS813",
            "DHS821", "DHS822",
        ):
            assert code in result.stdout
        # The RNG rule is DHS101 alone; the retired taint codes are gone.
        assert "DHS80" not in result.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
