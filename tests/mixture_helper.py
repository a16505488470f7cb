"""Mixtures for tests, written one component at a time."""

import numpy as np

from sdse_lab.mixtures import ConditionedMixture


def mixture_of(*components) -> ConditionedMixture:
    """The mixture of (weight, mean, covariance, label) components; a scalar
    covariance is that multiple of the identity, as in a mixture file."""
    weights, means, covs, labels = zip(*components)
    eye = np.eye(np.size(means[0]))
    return ConditionedMixture(weights, means, [c * eye if np.ndim(c) == 0 else c for c in covs],
                              labels)
