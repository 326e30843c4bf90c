"""Gaussian free fields on hypercubes from killed long-range random walks.

Simulation and verification toolkit: exact spectral kernels for walks on
{0,1}^N, Green functions of geometrically killed walks, coupled Gaussian
field samplers driven by fast Walsh-Hadamard transforms, the de Finetti
point-process layer for mixture walks, and the level-set limit process
with its complex transform.
"""

from .errors import DomainError, NumericError, ResourceLimitError
from .increments import (DeFinettiBeta, DeFinettiDiscrete, IIDBernoulli,
                         IncrementModel, LimitLinear, LimitPoissonDirichlet,
                         MFlip, MarkovEntries, RandomSiteHalf, SingleFlip,
                         SymmetricBetaSpin, b_k, b_subset, model_from_dict,
                         model_to_dict, rho_k, rho_subset, sample_Z)
from .field import (FieldSample, KSpinDraw, SpectralNoise, centered_field,
                    gff_log_density_check, infinite_field_marginal,
                    marginal_average, nested_fields, sample_field_cholesky,
                    sample_field_spectral, sample_random_kspin, spin_sum)
from .limits import (FixedCorrelation, KappaSpec, VanishingKillingY,
                     build_kappa_spec, inversion_check, kappa_cov,
                     kappa_sample, levelset_clt_check, levelset_cov,
                     levelset_direct, levelset_representation,
                     parseval_check, transform_cov, transform_sample)
from .pointproc import (EvolvedMeasure, YLaw, beta_example_density,
                        joint_sign_laplace, killed_measure_moments,
                        laplace_neg_log_abs, moment_Y, sample_Y, sign_probability)
from .polynomials import KrawtchoukBasis, hermite_eval, krawtchouk_eval
from .walk import (GreenSpec, coupon_collector_prob, green_hamming,
                   green_matrix_oracle, green_spectral, sample_killed_endpoint,
                   step, t_step_prob, transition_matrix)
from .walsh import fwht

__version__ = "0.1.0"
