"""Score-distillation editing laboratory.

Exact conditioned Gaussian-mixture oracles, guidance term decomposition with
timestep staging, Laplacian-smoothed latent meshes with gradient-aware view
allocation, and the scripted experiments that exercise all of it.
"""

__version__ = "0.1.0"

from .guidance import (EstimatorKind, GuidanceWeights, StageThresholds, TermBundle,
                       cfg_combine, decompose_terms, sdse_residual, term_residual)
from .mixtures import (ALL_CONDITIONS, Condition, ConditionedMixture, FULL_COND, IMAGE_COND,
                       TEXT_COND, UNCONDITIONED, load_mixture, mixture_density,
                       mixture_log_density, mixture_score, noised_mixture, sub_mixture,
                       toy_mixture)
from .mesh import (LatentMesh, build_laplacian, grid_mesh, load_mesh, smoothness_gradient,
                   smoothness_loss)
from .optimize import Trajectory, optimize_point, trajectory_from_csv
from .oracle import NoiseOracle, forward_diffuse, predict_noise
from .samplers import SamplerKind, TimestepSampler, timestep_sequence
from .schedule import NoiseSchedule, linear_beta_schedule
from .views import (RegionAllocation, ViewSpec, allocate_views, backprop_view,
                    edit_step, make_view, region_weights, render_view)

__all__ = [name for name in dir() if not name.startswith("_")]
