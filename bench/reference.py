"""Reference values and tolerances for the benchmark's correctness checks.

The success-ratio tables and growth references are the paper's published
values.  Their deviations from 20,000-trial estimates are consistent with
about 1000 trials per published value, so each sampled check compares the
benchmark's estimate with the reference in quadrature:

    |observed - reference| <= Z * sd * sqrt(1 / trials + 1 / REFERENCE_TRIALS)

where ``sd`` is the per-trial standard deviation of the statistic.  A check
therefore depends only on the law of the process and the trial count, never
on which random stream produced the trials.
"""

from __future__ import annotations

import math

Z = 7.0
REFERENCE_TRIALS = 1000
TABLE_ROUNDING = 0.0005  # the tables are printed to three decimals

TABLE_N = tuple(range(5, 15))

REMOVAL_TABLE = {
    (1, 2): (0.947, 0.993, 0.999, 1.000, 1.000, 1.000, 1.000, 1.000, 1.000, 1.000),
    (1, 3): (0.507, 0.748, 0.908, 0.965, 0.992, 0.998, 1.000, 1.000, 1.000, 1.000),
    (1, 4): (0.051, 0.229, 0.484, 0.733, 0.883, 0.971, 0.985, 0.998, 0.998, 1.000),
    (2, 3): (0.687, 0.870, 0.968, 0.994, 0.998, 1.000, 1.000, 1.000, 1.000, 1.000),
    (2, 4): (0.086, 0.332, 0.572, 0.806, 0.926, 0.978, 0.990, 0.996, 1.000, 1.000),
    (3, 4): (0.258, 0.590, 0.796, 0.908, 0.981, 0.992, 0.999, 0.999, 1.000, 1.000),
}

ADDITION_TABLE = {
    (1, 2): (0.923, 0.962, 0.964, 0.980, 0.993, 0.989, 0.998, 0.995, 1.000, 1.000),
    (1, 3): (0.715, 0.828, 0.903, 0.914, 0.954, 0.968, 0.978, 0.988, 0.982, 0.992),
    (1, 4): (0.382, 0.616, 0.727, 0.825, 0.864, 0.916, 0.931, 0.937, 0.958, 0.963),
    (2, 3): (0.958, 0.986, 0.988, 0.998, 0.998, 0.999, 1.000, 1.000, 1.000, 1.000),
    (2, 4): (0.706, 0.890, 0.954, 0.981, 0.985, 0.988, 0.994, 0.994, 0.999, 0.999),
    (3, 4): (0.907, 0.982, 0.994, 0.999, 1.000, 0.999, 1.000, 1.000, 1.000, 1.000),
}

# A published 1.000 from ~1000 trials only says the failure rate is below
# about 3 in 1000, so the binomial variance is floored at that rate.
_RATE_FLOOR = 3 / REFERENCE_TRIALS

# (1, 1) growth references at n = 40, as (mean, per-trial sd).  The means are
# the paper's fitted curves; the standard deviations were estimated from
# 4000 trials and rounded up.
GROWTH_40 = {
    "removal": {"edges": (51.9, 1.7), "longest_path": (10.0, 1.6)},
    "addition": {"edges": (580.0, 135.0), "longest_path": (30.9, 5.7)},
}

# Per-trial sd of the (1, 1) removal edge count at n = 100, estimated from
# 1000 trials and rounded up; used for the density-ceiling check.
REMOVAL_EDGES_SD_100 = 2.8
DENSITY_SLACK = 0.05  # the paper's ceiling 3 - 2 ln 2 plus this slack

COMBINED_HIT_FLOOR = 0.99


def table_reference(kind: str, x: int, y: int, n: int) -> float:
    table = REMOVAL_TABLE if kind == "removal" else ADDITION_TABLE
    return table[(x, y)][TABLE_N.index(n)]


def ratio_tolerance(reference: float, trials: int) -> float:
    """Allowed |observed - reference| for a success ratio over ``trials``."""
    p = min(max(reference, _RATE_FLOOR), 1 - _RATE_FLOOR)
    sd = math.sqrt(p * (1 - p))
    return Z * sd * math.sqrt(1 / trials + 1 / REFERENCE_TRIALS) + TABLE_ROUNDING


def mean_tolerance(sd: float, trials: int) -> float:
    """Allowed |observed - reference| for a mean over ``trials``."""
    return Z * sd * math.sqrt(1 / trials + 1 / REFERENCE_TRIALS)


def floor_tolerance(floor: float, trials: int) -> float:
    """How far below ``floor`` a ratio over ``trials`` may read."""
    return Z * math.sqrt(floor * (1 - floor) / trials)
