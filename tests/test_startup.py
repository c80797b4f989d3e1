"""Start-up cost guards, checked in a fresh interpreter.

Importing scipy costs a few tenths of a second per process, so the CLI
must not load it at import time, and fitting a distribution must not
load it just to compute the KS diagnostic.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import repro.cli
print(scipy_modules())

import numpy as np
from repro.learners.fitting import fit_best, fit_lognormal
sample = np.random.default_rng(0).lognormal(3.0, 1.0, 200)
fit_lognormal(sample)
fit_best(sample, families=("weibull", "exponential"))
print(scipy_modules())
"""


def test_cli_import_and_fitting_do_not_load_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.splitlines() == ["[]", "[]"]
