"""Ambiguity subspaces and blind channel estimation for OSTB codes."""

from .census import CensusError, CensusResult, find_mstar, write_census_csv
from .embed import overline, underline, vec
from .estimator import (ConstellationModel, ConvergenceError, EstimateReport,
                        SimulationConfig, ambiguity_matrix, decode,
                        draw_channel, estimate_channel, predicted_eigenvalues,
                        run_estimate, sample_R, simulate, theoretical_R)
from .gamma import unit_gammas
from .kyfan import (KyFanError, KyFanSampleReport, SpectrumSpec,
                    construct_maximizer, kyfan_membership, kyfan_sample_check,
                    kyfan_value, random_stiefel)
from .ostbc import (BUILTIN_CODE_NAMES, ChannelRealization, CodeFormatError,
                    CodeValidationError, OstbCode, RealifiedCode, build_A,
                    builtin_code, code_from_dict, encode, load_code, realify,
                    validate_code)
from .subspace import (AmbiguityStructureError, AmbiguitySubspace,
                       HurwitzRadonBasis, SubspaceError, compute_bspace,
                       compute_bstar, hr_basis, lift_to_channel,
                       principal_angles, rho, spans_match)

__version__ = "0.1.0"
