"""Single-point descent driven by guidance residuals, with full trajectory logs.

Each step draws a timestep and a fresh noise sample, forward-diffuses the
current point with that same sample, evaluates the chosen estimator's
residual, and takes a plain gradient step. The noise used to diffuse is the
noise subtracted inside the residual, which is what cancels most of the
injected variance at heavily noised timesteps.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .guidance import EstimatorKind, GuidanceWeights, StageThresholds, term_residual
from .mixtures import ConditionedMixture
from .oracle import NoiseOracle
from .samplers import TimestepSampler, timestep_sequence
from .schedule import NoiseSchedule

DIVERGENCE_GUARD = 1e3

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

    def __post_init__(self):
        n = len(self.steps)
        if not (len(self.timesteps) == len(self.thetas) == len(self.residuals)
                == len(self.densities) == n):
            raise ValueError("trajectory arrays must have consistent lengths")
        if n and np.any(np.diff(self.steps) <= 0):
            raise ValueError("steps must be strictly increasing")

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
        for i in range(self.num_rows):
            row = [str(int(self.steps[i])), str(int(self.timesteps[i]))]
            row += [repr(float(v)) for v in self.thetas[i]]
            row += [repr(float(v)) for v in self.residuals[i]]
            row += [repr(float(v)) for v in self.densities[i]]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def trajectory_from_csv(path) -> Trajectory:
    seed = 0
    digest = ""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("digest="):
                    digest = body[len("digest="):]
                elif body.startswith("seed="):
                    seed = int(body[len("seed="):])
                continue
            if line.startswith("step,"):
                continue
            rows.append([float(v) for v in line.split(",")])
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
                   noising: bool = True, weight_fn=None,
                   config_digest: str = "",
                   oracle: NoiseOracle | None = None) -> Trajectory:
    """Run the descent and log every state.

    Deterministic given the seed: the timestep sequence is drawn first, then
    one noise sample per step. Aborts with the guard flag set if the iterate
    norm ever exceeds 1e3 or stops being finite.
    """
    theta = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta0 must be finite")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 <= lr < np.inf:
        raise ValueError(f"lr must be a finite number >= 0, got {lr}")
    if oracle is None:
        oracle = NoiseOracle(mix, sched, noising=noising)
    dim = theta.size

    rng = np.random.default_rng(seed)
    ts = timestep_sequence(sampler, rng, steps)
    epsilons = rng.standard_normal((steps, dim))
    sqrt_ab = np.sqrt(sched.alphas_bar)
    sigma = np.sqrt(1.0 - sched.alphas_bar)

    n = steps + 1
    out_steps = np.arange(n)
    out_ts = np.zeros(n, dtype=int)
    thetas = np.zeros((n, dim))
    residuals = np.zeros((n, dim))
    densities = np.zeros((n, 3))

    thetas[0] = theta
    densities[0] = oracle.density_bundle(theta)
    guard = False
    used = 1
    for i in range(steps):
        t = int(ts[i])
        epsilon = epsilons[i]
        z_t = sqrt_ab[t - 1] * theta + sigma[t - 1] * epsilon
        res = term_residual(kind, oracle, z_t, t, epsilon, weights, thresholds,
                            weight_fn)
        theta = theta - lr * res
        thetas[i + 1] = theta
        residuals[i + 1] = res
        out_ts[i + 1] = t
        densities[i + 1] = oracle.density_bundle(theta)
        used = i + 2
        if not (theta @ theta <= DIVERGENCE_GUARD**2):  # also trips on NaN/inf
            guard = True
            break

    return Trajectory(steps=out_steps[:used], timesteps=out_ts[:used],
                      thetas=thetas[:used], residuals=residuals[:used],
                      densities=densities[:used], seed=seed,
                      config_digest=config_digest, guard_tripped=guard)
