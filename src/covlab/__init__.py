"""covlab: k-coverage thresholds of random samples on catalog manifolds,
with certified error intervals and comparisons against their limiting laws."""

from .geometry import (Family, ManifoldSpec, Metric, RegionKind, RegionSpec,
                       REGION_ALL, boundary_measure, interior_body,
                       intrinsic_diameter, region_measures, solid_ball,
                       spherical_cap, unit_disk, unit_sphere, unit_square,
                       volume)
from .sampling import (CloudOrigin, DensitySpec, PointCloud, density_sample,
                       poisson_sample, save_cloud_csv, uniform_sample)
from .grids import EvalGrid, build_grid
from .coverage import (CoverageError, KnnField, ThresholdEstimate,
                       coverage_threshold, interior_threshold)
from .limits import (LimitLaw, Regime, boundary_centering,
                     boundary_coefficient, boundary_law_cdf,
                     interior_centering, interior_coefficient,
                     interior_law_cdf, rate_function, rate_inverse,
                     strong_law_limit, unit_ball_volume)
from .harness import (ConfigError, ConfigRefused, ExperimentConfig,
                      ExperimentResult, KSchedule, RunMode, Sampler,
                      constant_k, ks_distance, run_experiment)

__version__ = "0.1.0"
