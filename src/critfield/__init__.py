"""
critfield: the local structure of critical points of isotropic Gaussian fields.

The library computes the exact covariance of the second-order field data at
two nearby points conditioned on both being critical, expands it as the
separation shrinks, tracks the eigenstructure of that expansion, and turns
the result into Monte Carlo estimates of how close critical-point pairs
split by type.  A torus field simulator provides an independent empirical
check of the same statistics.
"""

from .covariance import (CondCov, OracleConvergenceError, QualReport,
                         SingularConditioningError, check_qualified,
                         conditional_covariance, conditional_covariance_oracle,
                         cov_partials, sigma_expansion)
from .fieldsim import (CriticalPoint, FieldRealization, GridSpec, PairTable,
                       euler_characteristic, find_critical_points,
                       pair_statistics, sample_field)
from .models import (RadialModel, cauchy_model, find_rescaling, gaussian_model,
                     model_from_spec, rescale)
from .rice import (RiceEstimate, index_ratio_mc, maxima_share,
                   mean_critical_density, psi_ratio, ratio_sweep,
                   rice_density_mc, rice_density_quadrature, sign_ratio)
from .spectral import (LimitPolynomial, SpectralExpansion, SpectrumCatalogue,
                       eigenpath, factor_at, h_matrix, h_r, limit_polynomial,
                       spectrum_sigma0)
from .symmetric import matriculate, tau_index, vectorize_sym

__version__ = "0.1.0"
