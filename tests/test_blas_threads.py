"""The full-sample moments do not depend on the BLAS thread count.

Each statistic is printed as ``float.hex`` by a fresh interpreter, since
OpenBLAS reads its thread count once, when numpy loads it. The draw is
long enough that a threaded dot product would split its sum.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import dataclasses
from tracebounds import arm_reaction_rate, conditional_mean, estimate_te_dim, naive_estimates
from tracebounds.oracle import DGPConfig, OutcomeMeans, StrataProbs, simulate

ds = simulate(DGPConfig(
    n=300_000,
    strata=StrataProbs(at=0.2, c=0.3, nt=0.5),
    means=OutcomeMeans(at=(0.5, 1.5), c=(0.0, 2.0), nt=(0.0, 0.0)),
    noise_sd=0.5,
    seed=3,
))[0]
values = [estimate_te_dim(ds).te_hat, arm_reaction_rate(ds, 0), arm_reaction_rate(ds, 1)]
values += [conditional_mean(ds, d, m) for d in (0, 1) for m in (0, 1)]
values += dataclasses.astuple(naive_estimates(ds))
print(" ".join(v.hex() for v in values))
"""


def _statistics(threads: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    return subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True).stdout


def test_the_moments_are_the_same_at_one_and_two_blas_threads():
    one = _statistics(1)
    assert len(one.split()) == 12
    assert _statistics(2) == one
