"""Graph-based Bayesian semi-supervised learning on manifold point clouds.

Pipeline: sample a point cloud, build an epsilon-graph and its Laplacian,
truncate the spectrum, place a Gaussian series prior on the retained
eigenvectors, push it through a heat-equation forward map, observe a few
labels, and sample the posterior with pCN.  For Gaussian noise the
posterior is also available in closed form, which the sampler is checked
against.  The experiments module wraps the recurring studies behind JSON
configs and a CLI.
"""

__version__ = "0.1.0"

from .cloud import PointCloud, sample_sphere
from .graph import (
    GeometricGraph,
    build_eps_graph,
    default_eps,
    kernel_weight,
    laplacian,
    sphere_calibration,
    unit_ball_volume,
)
from .spectral import (
    ContinuumBasis,
    SpectralBasis,
    eigendecompose,
    spectral_error,
)
from .prior import (
    UNTRUNCATED,
    PriorSpec,
    default_truncation,
    oscillation,
    regularity_experiment,
    sample_graph_prior,
)
from .forward import design_matrix, heat
from .likelihood import (
    NoiseModel,
    potential,
    potential_from_design_matrix,
    synthesize_data,
)
from .sampler import (
    ChainResult,
    SamplerConfig,
    acceptance_rate,
    integrated_autocorr_time,
    pcn,
    posterior_mean,
    stationary_acceptance,
)
from .oracle import (
    PosteriorSummary,
    coefficient_posterior,
    continuum_posterior,
    graph_posterior,
    laplace_surrogate,
    predicted_acceptance,
)
from .interpolate import knn_interpolate, l2_distance, sphere_mc_grid
from .experiments import (
    DEFAULT_TRUTH,
    ExperimentConfig,
    run_experiment,
    truth_coefficients,
    validate_config,
)
