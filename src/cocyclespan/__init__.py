"""Spannability, quasi-multiplicativity and pressure machinery for locally
constant matrix cocycles, with shrinking-target and recurrence dimension
solvers for planar self-affine systems."""

__version__ = "0.1.0"

from .errors import ContractViolation, InputError, ResourceLimitError
from .systems import GeneratorSystem
from .fixtures import E1, E2, E3, E4, E5
from .linalg import SubspaceBasis, span_basis, wedge_power
from .wordspace import ScaledProduct, enumerate_words, parse_word, product, word_str
from .hypotheses import (HypothesisReport, IrreducibilityVerdict,
                         algebra_dimension, check_hypotheses,
                         irreducibility_verdict, orbit_span, power_system,
                         wedge_system)
from .spannability import (FailureDiagnosis, MkBasis, SpannabilityCertificate,
                           diagnose_failure, minimal_spannable_k, mk_bases,
                           mk_basis, spannable_at)
from .quasimult import (ConnectorConstant, GammaResult, QMReport, connector_constant,
                        empirical_qm, gamma_minimax)
from .thermo import (BetaEstimate, DimensionReport, PotentialSpec,
                     PressureBracket, QMInput, TargetSequence,
                     affinity_dimension, alpha_hat, all_ones_targets, beta_hat,
                     conformal_qm_input, potential_value, pressure_bracket,
                     r0_interval, s0_interval, square_pressure)
from .gibbs import (CylinderWeights, KappaFloorReport, MixingReport,
                    cylinder_weights, kappa_floor, psi_mixing_stat)
