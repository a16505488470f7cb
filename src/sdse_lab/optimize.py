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
from pathlib import Path

import numpy as np

from .guidance import STAGED, EstimatorKind, GuidanceWeights, StageThresholds, term_residual
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
    """Run the descent and log every state.

    Deterministic given the seed: the timestep sequence is drawn first, then
    one noise sample per step. Aborts with the guard flag set if the iterate
    norm ever exceeds 1e3 or stops being finite; a theta0 beyond it is refused.
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
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 <= lr < np.inf:
        raise ValueError(f"lr must be a finite number >= 0, got {lr}")
    if sampler.t_max > sched.num_steps:
        raise ValueError(f"sampler t_max = {sampler.t_max} lies beyond the schedule's "
                         f"{sched.num_steps} steps")
    if kind in STAGED and sampler.t_max > thresholds.middle_max:
        raise ValueError(f"sampler range must lie within [1, middle_max = "
                         f"{thresholds.middle_max}] for {kind.value}")
    if oracle is None:
        oracle = NoiseOracle(mix, sched)
    elif oracle.mixture is not mix or oracle.schedule is not sched:
        raise ValueError("oracle must be built on the same mixture and schedule")
    dim = theta.size

    rng = np.random.default_rng(seed)
    ts = timestep_sequence(sampler, rng, steps)
    epsilons = rng.standard_normal((steps, dim))
    sqrt_ab, sigma = sched.sqrt_alphas_bar, sched.sigmas

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
    # A step that overflows leaves the guard, which ends the run and names it.
    with np.errstate(over="ignore"):
        for i in range(steps):
            t = int(ts[i])
            epsilon = epsilons[i]
            z_t = sqrt_ab[t - 1] * theta + sigma[t - 1] * epsilon
            res = term_residual(kind, oracle, z_t, t, epsilon, weights, thresholds)
            theta = theta - lr * res
            thetas[i + 1] = theta
            residuals[i + 1] = res
            out_ts[i + 1] = t
            densities[i + 1] = oracle.density_bundle(theta)
            used = i + 2
            if not (theta @ theta <= DIVERGENCE_GUARD**2):  # within_guard; trips on NaN/inf
                guard = True
                break

    return Trajectory(steps=out_steps[:used], timesteps=out_ts[:used],
                      thetas=thetas[:used], residuals=residuals[:used],
                      densities=densities[:used], seed=seed,
                      config_digest=config_digest, guard_tripped=guard)
