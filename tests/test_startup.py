"""Start-up cost guards, checked in a fresh interpreter.

Importing scipy costs a few tenths of a second per process, and scipy is
only a test dependency, so neither importing the CLI, nor fitting a
distribution, nor evaluating a log-normal quantile, nor a distribution
learner's retrain may load it.
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
lognormal = fit_lognormal(sample)
fit_best(sample, families=("weibull", "exponential"))
print(scipy_modules())

lognormal.quantile(0.6)
from repro.learners import DistributionLearner
from repro.raslog import SDSC_PROFILE, GeneratorConfig, generate_log
log = generate_log(
    SDSC_PROFILE, GeneratorConfig(scale=0.3, weeks=8, seed=1, duplicates=False)
).clean
rules = DistributionLearner(families=("lognormal",)).train(log, 3600.0)
assert [r.distribution for r in rules] == ["lognormal"], rules
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
    assert out.stdout.splitlines() == ["[]", "[]", "[]"]
