"""Certified lower bounds on bound-state counts for 2D spin-orbit
Hamiltonians perturbed by measure-valued potentials.

The pipeline: ``model`` locates the band minimum, ``measure`` handles
Radon measures and their Fourier transforms, ``certificate`` builds the
variational trial space and checks negative definiteness of the Rayleigh
matrix, ``oracle`` cross-checks by brute-force diagonalization, and
``cli``/``config``/``report`` wrap everything in a JSON-driven front end.
"""

from .certificate import (CertificateResult, DefinitenessReport, TrialBasis,
                          certify, definiteness, grad_norm_sq, kinetic_matrix,
                          potential_matrix_dropped, potential_matrix_exact,
                          select_points, trial_basis)
from .config import RunConfig, build_measure, build_model, parse_config
from .errors import (CapacityError, ConfigError, DegenerateInputError,
                     NumericalInputError, QuadratureFailureError,
                     ResolutionError, SearchDomainError, SpinboundError,
                     SupportError)
from .hankel import FhatProfile
from .measure import (ClosedFormCircle, CurveDelta, DecayProfile, Density,
                      SampledCurve, Segment, Sum, decay_scan, fourier,
                      fourier_batch, fourier_grid, fourier_matrix,
                      total_mass)
from .model import (BandBasis, BandPair, Circle, CouplingSpec, PointCloud,
                    SymbolMatrix, ThresholdData, band_basis, bands,
                    lower_band, lower_band_vectors, quad_constant, symbol,
                    threshold)
from .oracle import (BoxSpec, SpectrumResult, SweepResult, assemble,
                     convergence_sweep, eigen_count_below, spectrum)

__version__ = "0.1.0"
