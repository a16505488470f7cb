"""The A4 staged-schedule descent for one seed, importable by worker processes."""

import numpy as np

from sdse_lab.guidance import EstimatorKind
from sdse_lab.mixtures import FULL_COND, toy_mixture
from sdse_lab.optimize import optimize_point
from sdse_lab.samplers import SamplerKind, TimestepSampler
from sdse_lab.schedule import linear_beta_schedule


def staged_distance(seed: int, cal: dict) -> float:
    """Distance from the final iterate of the calibrated staged-schedule SDSE run
    (`cal`, the calibration's "staged_schedule" entry) to the nearest joint mode."""
    mix = toy_mixture()
    sampler = TimestepSampler(SamplerKind.NON_INCREASING,
                              cal["sampler"]["t_min"], cal["sampler"]["t_max"],
                              cal["steps"], jitter=cal["sampler"]["jitter"])
    traj = optimize_point([0.5, 1.0], EstimatorKind.SDSE, sampler, mix, linear_beta_schedule(),
                          lr=cal["lr"], steps=cal["steps"], seed=seed)
    return float(np.min(np.linalg.norm(mix.mode_points(FULL_COND) - traj.final_theta, axis=1)))
