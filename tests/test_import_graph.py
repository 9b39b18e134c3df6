"""``repro`` and every module under it import without scipy.

scipy once came in for a single Gamma value and cost about 20 MiB of
resident memory in every process, ``python -m repro`` and the benchmark
runner included.  A fresh interpreter is the only place ``sys.modules``
tells the truth: this one already holds whatever other tests imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

IMPORT_EVERYTHING = """
import importlib, pkgutil, sys
import repro
modules = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in modules:
    importlib.import_module(name)
print(len(modules))
print(" ".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_no_module_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERYTHING],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    n_modules, scipy_modules = done.stdout.split("\n")[:2]
    assert int(n_modules) > 50, "walk_packages found too little of repro"
    assert scipy_modules == ""
