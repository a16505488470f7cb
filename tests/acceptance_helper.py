"""The A4 toy-phase descents for one seed each, importable by worker processes.

Each takes the seed and its entry of the frozen acceptance calibration.
"""

import numpy as np

from sdse_lab.experiments import Classification, convergence_check
from sdse_lab.guidance import EstimatorKind, StageThresholds
from sdse_lab.mixtures import FULL_COND, toy_mixture
from sdse_lab.optimize import optimize_point
from sdse_lab.samplers import SamplerKind, TimestepSampler
from sdse_lab.schedule import linear_beta_schedule

START = [0.5, 1.0]
MIX = toy_mixture()
SCHED = linear_beta_schedule()
MODES = MIX.mode_points(FULL_COND)


def _descend(kind: EstimatorKind, sampler: TimestepSampler, seed: int, cal: dict, **kwargs):
    """The toy mixture and the calibration's lr and steps, from START."""
    return optimize_point(START, kind, sampler, MIX, SCHED, lr=cal["lr"], steps=cal["steps"],
                          seed=seed, **kwargs)


def _mode_distance(traj) -> float:
    """Distance from the final iterate to the nearest joint mode."""
    return float(np.min(np.linalg.norm(MODES - traj.final_theta, axis=1)))


def small_shift_decreased(seed: int, cal: dict) -> bool:
    """Whether the M1-only descent ("phase_small_shift") ends, over its last 10
    rows, below its starting image-condition density."""
    sampler = TimestepSampler(SamplerKind.UNIFORM, cal["sampler"]["t_min"],
                              cal["sampler"]["t_max"], cal["steps"])
    traj = _descend(EstimatorKind.M1_ONLY, sampler, seed, cal)
    return bool(traj.densities[-10:, 1].mean() < traj.densities[0, 1])


def middle_trap(seed: int, cal: dict, tol: float) -> tuple[bool, float]:
    """Whether the M4-only descent at the fixed middle timestep ("phase_middle_trap")
    stalls in an intermediate trap, and its distance to the nearest joint mode."""
    sampler = TimestepSampler(SamplerKind.UNIFORM, cal["fixed_t"], cal["fixed_t"], cal["steps"])
    traj = _descend(EstimatorKind.M4_ONLY, sampler, seed, cal)
    rep = convergence_check(traj, MODES, tol=tol, grad_tol=cal["trap_grad_tol"],
                            window=cal["ema_window"])
    return rep.classification is Classification.INTERMEDIATE_TRAP, rep.distance


def staged_distance(seed: int, cal: dict) -> float:
    """Distance from the final iterate of the calibrated staged-schedule SDSE run
    ("staged_schedule") to the nearest joint mode."""
    sampler = TimestepSampler(SamplerKind.NON_INCREASING,
                              cal["sampler"]["t_min"], cal["sampler"]["t_max"],
                              cal["steps"], jitter=cal["sampler"]["jitter"])
    return _mode_distance(_descend(EstimatorKind.SDSE, sampler, seed, cal))


def plain_guidance_distance(seed: int, cal: dict) -> float:
    """Distance to the nearest joint mode after the plain guided residual with
    uniform sampling over every timestep ("plain_guidance")."""
    sampler = TimestepSampler(SamplerKind.UNIFORM, cal["sampler"]["t_min"],
                              cal["sampler"]["t_max"], cal["steps"])
    thresholds = StageThresholds(cal["thresholds"]["M"], cal["thresholds"]["L"])
    return _mode_distance(_descend(EstimatorKind.SDS, sampler, seed, cal,
                                   thresholds=thresholds))
