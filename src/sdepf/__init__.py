"""Continuous-discrete particle filtering for SDE state-space models.

The state evolves as an Ito SDE between measurement times; importance
weights for arbitrary proposal drifts come from a measure-change
likelihood ratio accumulated along each Euler path, so no transition
densities are ever needed.  Conditionally linear-Gaussian sub-states and
conjugate static parameters can be marginalized in closed form.
"""

from .exceptions import (ConfigError, DegeneracyError, DiffusionError,
                         IntegrationError, SdepfError, SingularMatrixError)
from .sde import (BrownianIncrements, DiffusionSpec, SdeModel, SplitSdeModel,
                  TimeGrid, integrate_sde, sample_brownian_increments)
from .girsanov import (CoupledResult, ImportanceSpec, estimate_kl,
                       prior_proposal, propagate_coupled,
                       propagate_coupled_split)
from .filtering import (FilterConfig, FilterResult, MeasurementModel,
                        ParticleSet, StepStats, SummaryRow, finish_step,
                        gaussian_measurement, init_particle_set, run_filter,
                        seed_streams, sir_step, systematic_counts,
                        systematic_resample, systematic_resample_indices)
from .raoblackwell import (CondGaussModel, ConjugateFamily, GaussianBlock,
                           eval_mixture, gamma_poisson_family,
                           init_rb_gauss_set, invchi2_family, rb_gauss_step,
                           rb_param_step, repair_cov)
from .proposals import build_bridge, ekf_condition, ekf_predict
from . import models

__version__ = "0.1.0"

__all__ = [
    "BrownianIncrements", "CondGaussModel", "ConfigError", "ConjugateFamily",
    "CoupledResult", "DegeneracyError", "DiffusionError", "DiffusionSpec",
    "FilterConfig", "FilterResult", "GaussianBlock", "ImportanceSpec",
    "IntegrationError", "MeasurementModel", "ParticleSet", "SdeModel",
    "SdepfError", "SingularMatrixError", "SplitSdeModel", "StepStats",
    "SummaryRow", "TimeGrid", "build_bridge", "ekf_condition", "ekf_predict",
    "estimate_kl", "eval_mixture", "finish_step", "gamma_poisson_family",
    "gaussian_measurement", "init_particle_set", "init_rb_gauss_set",
    "integrate_sde", "invchi2_family", "models", "prior_proposal",
    "propagate_coupled", "propagate_coupled_split", "rb_gauss_step",
    "rb_param_step", "repair_cov", "run_filter", "sample_brownian_increments",
    "seed_streams", "sir_step", "systematic_counts", "systematic_resample",
    "systematic_resample_indices",
]
