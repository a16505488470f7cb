"""Point descent driven by guidance residuals, with full trajectory logs.

Each step draws a timestep and a fresh noise sample, forward-diffuses the
current point with that same sample, evaluates the chosen estimator's
residual, and takes a plain gradient step. The noise used to diffuse is the
noise subtracted inside the residual, which is what cancels most of the
injected variance at heavily noised timesteps.

One loop runs every descent. `optimize_seeds` steps a stack of seeds together,
one row of an (S, d) iterate per seed with its own timestep and noise, so each
step costs one residual and one density call whatever S is. `optimize_point`
is its one-seed call, which keeps a (d,) iterate and scalar timesteps.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import instance, number, seed_list
from .guidance import (STAGED, EstimatorKind, GuidanceWeights, StageThresholds, check_t_max,
                       term_residual)
from .mixtures import ConditionedMixture
from .oracle import NoiseOracle
from .samplers import TimestepSampler, timestep_sequence
from .schedule import NoiseSchedule

DIVERGENCE_GUARD = 1e3


def within_guard(theta) -> bool:
    """The descent's divergence test, which every iterate passes: theta @ theta <=
    DIVERGENCE_GUARD**2 (never on NaN or inf)."""
    theta = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore"):
        return bool(theta @ theta <= DIVERGENCE_GUARD**2)


TRAJECTORY_COLUMNS = ("step", "t", "theta_0", "theta_1", "res_0", "res_1",
                      "p", "p_img", "p_full")


@dataclass
class Trajectory:
    """Ordered optimization log; row 0 is the initial state with t=0 and zero residual."""

    steps: np.ndarray
    timesteps: np.ndarray
    thetas: np.ndarray
    residuals: np.ndarray
    densities: np.ndarray  # columns: p, p_img, p_full
    seed: int
    config_digest: str = ""
    guard_tripped: bool = False

    @property
    def num_rows(self) -> int:
        return len(self.steps)

    @property
    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]

    def to_csv(self) -> str:
        if self.thetas.shape[1] != 2:
            raise ValueError("trajectory CSV format is fixed to 2-D points")
        buf = io.StringIO()
        if self.config_digest:
            buf.write(f"# digest={self.config_digest}\n")
        buf.write(f"# seed={self.seed}\n")
        buf.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        # tolist() yields Python ints and floats, whose str/repr are the CSV text
        values = np.column_stack([self.thetas, self.residuals, self.densities])
        for step, t, row in zip(self.steps.astype(int).tolist(),
                                self.timesteps.astype(int).tolist(),
                                values.astype(float).tolist()):
            buf.write(f"{step},{t},{','.join(map(repr, row))}\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def trajectory_from_csv(path) -> Trajectory:
    """Read what `Trajectory.to_csv` writes; a malformed line is a ValueError naming
    `<path>:<line>`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text (byte {err.start})") from None
    seed = 0
    digest = ""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("step,"):
            continue
        try:
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("digest="):
                    digest = body[len("digest="):]
                elif body.startswith("seed="):
                    seed = int(body[len("seed="):])
                continue
            values = line.split(",")
            if len(values) != len(TRAJECTORY_COLUMNS):
                raise ValueError(f"expected {len(TRAJECTORY_COLUMNS)} columns, "
                                 f"got {len(values)}")
            row = [int(v) for v in values[:2]] + [float(v) for v in values[2:]]
            if rows and row[0] <= rows[-1][0]:
                raise ValueError("steps must be strictly increasing")
            rows.append(row)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise ValueError(f"no trajectory rows in {path}")
    return Trajectory(steps=data[:, 0].astype(int), timesteps=data[:, 1].astype(int),
                      thetas=data[:, 2:4], residuals=data[:, 4:6],
                      densities=data[:, 6:9], seed=seed, config_digest=digest)


def optimize_point(theta0, kind: EstimatorKind, sampler: TimestepSampler,
                   mix: ConditionedMixture, sched: NoiseSchedule, lr: float,
                   steps: int, seed: int,
                   weights: GuidanceWeights = GuidanceWeights(),
                   thresholds: StageThresholds = StageThresholds(),
                   config_digest: str = "",
                   oracle: NoiseOracle | None = None) -> Trajectory:
    """Run the descent for one seed and log every state: `optimize_seeds` on [seed]."""
    return optimize_seeds(theta0, kind, sampler, mix, sched, lr, steps, [seed], weights,
                          thresholds, config_digest, oracle)[0]


def optimize_seeds(theta0, kind: EstimatorKind, sampler: TimestepSampler,
                   mix: ConditionedMixture, sched: NoiseSchedule, lr: float,
                   steps: int, seeds: list[int],
                   weights: GuidanceWeights = GuidanceWeights(),
                   thresholds: StageThresholds = StageThresholds(),
                   config_digest: str = "",
                   oracle: NoiseOracle | None = None) -> list[Trajectory]:
    """Run the descent from theta0 once per seed and log every state.

    Deterministic given the seed: its generator draws the timestep sequence
    first, then one noise sample per step. A run aborts with the guard flag
    set if the iterate norm ever exceeds 1e3 or stops being finite; a theta0
    beyond it is refused. Several seeds step as the rows of one (S, d) iterate,
    and a row leaves it when it trips the guard; each seed's trajectory is bit
    for bit the one it gets alone. Refused before any draw, by a ConfigError naming it:
    weights or thresholds not of their record type, and a sampler.t_max past the cap
    every run shares (`guidance.check_t_max`: the schedule, and middle_max if staged).
    """
    theta = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta0 must be finite")
    if theta.size != mix.dim:
        raise ValueError(f"theta0 has dimension {theta.size} but the mixture has "
                         f"dimension {mix.dim}")
    if not within_guard(theta):
        raise ValueError(f"theta0 lies beyond the divergence guard: its norm must be "
                         f"<= {DIVERGENCE_GUARD:g}")
    steps = number(steps, "steps", integer=True, minimum=1)
    lr = number(lr, "lr", minimum=0.0)
    seeds = seed_list(seeds)
    instance(weights, "weights", GuidanceWeights)
    instance(thresholds, "thresholds", StageThresholds)
    check_t_max(sampler.t_max, sched.num_steps, thresholds, kind in STAGED, "sampler.t_max")
    if oracle is None:
        oracle = NoiseOracle(mix, sched)
    elif oracle.mixture is not mix or oracle.schedule is not sched:
        raise ValueError("oracle must be built on the same mixture and schedule")

    count = len(seeds)
    ts = np.empty((count, steps), dtype=int)
    epsilons = np.empty((count, steps, theta.size))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        ts[row] = timestep_sequence(sampler, rng, steps)
        epsilons[row] = rng.standard_normal((steps, theta.size))
    scales = sched.sqrt_alphas_bar[ts - 1]
    noise = sched.sigmas[ts - 1][..., None] * epsilons

    thetas = np.zeros((count, steps + 1, theta.size))
    residuals = np.zeros_like(thetas)
    densities = np.zeros((count, steps + 1, 3))
    thetas[:, 0] = theta
    densities[:, 0] = oracle.density_bundle(theta)
    ends = np.full(count, steps)
    tseq, logs = ts, (thetas, residuals, densities)
    if count == 1:  # one seed: a (d,) iterate, int timesteps, 1-D rows and int indices
        tseq, scales, noise, epsilons = ts[0].tolist(), scales[0], noise[0], epsilons[0]
        logs = [log[0] for log in logs]
    else:  # the rows still inside the guard
        live, theta, scales = np.arange(count), np.tile(theta, (count, 1)), scales[..., None]
    log_thetas, log_residuals, log_densities = logs
    # A step that overflows leaves the guard, which ends the run and names it.
    with np.errstate(over="ignore"):
        for i in range(1, steps + 1):
            at = i - 1 if count == 1 else (live, i - 1)
            res = term_residual(kind, oracle, scales[at] * theta + noise[at], tseq[at],
                                epsilons[at], weights, thresholds)
            theta = theta - lr * res
            at = i if count == 1 else (live, i)
            log_thetas[at], log_residuals[at] = theta, res
            log_densities[at] = oracle.density_bundle(theta)
            if count == 1:
                if not (theta @ theta <= DIVERGENCE_GUARD**2):  # within_guard; trips on NaN/inf
                    ends[0] = i
                    break
                continue
            # each row's theta @ theta, by the same dot as one seed's
            inside = (theta[:, None, :] @ theta[:, :, None])[:, 0, 0] <= DIVERGENCE_GUARD**2
            if not inside.all():
                ends[live[~inside]] = i
                live, theta = live[inside], theta[inside]
                if not live.size:
                    break
    return [Trajectory(steps=np.arange(n + 1), timesteps=np.concatenate(([0], ts[row, :n])),
                       thetas=thetas[row, :n + 1], residuals=residuals[row, :n + 1],
                       densities=densities[row, :n + 1], seed=seed,
                       config_digest=config_digest,
                       guard_tripped=not within_guard(thetas[row, n]))
            for row, (seed, n) in enumerate(zip(seeds, ends.tolist()))]
