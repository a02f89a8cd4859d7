"""Certified numerics for pressure functions of Markov shifts and interval maps.

Modules
-------
shifts        finite Markov shifts, words, Birkhoff sums
transfer      transfer matrices, Perron data, component decomposition
series        certified series enclosures (Euler-Maclaurin tails)
renewal       induced-pressure engine: roots, recurrence classes, transitions
sequences     explicit level-value families feeding the engine
intervalmaps  Chebyshev / Manneville-Pomeau / coded doubling models
cli           `thermoform` command line front end
"""

from .errors import (ConvergenceError, EnvelopeError, IndeterminateError,
                     NotMixingError)
from .series import CertifiedSum
from .shifts import (FiniteShift, LocallyConstantPotential, SymbolValues,
                     birkhoff_sum, cycle_shift, disjoint_union,
                     enumerate_admissible_words, enumerate_periodic_words,
                     full_shift, golden_mean_shift, is_admissible,
                     is_topologically_mixing, renewal_shift)
from .transfer import (ComponentDecomposition, RPFSolution, TransferMatrix,
                       build_transfer_matrix, cylinder_weight,
                       decompose_components, pressure_curve_finite, solve_rpf)
from .renewal import (Derivative, FlatInterval, PressureCurve, PressureRoot,
                      RecurrenceClass, RenewalModel, SmoothnessVerdict,
                      TailEnvelope, WitnessReport, certified_G,
                      certified_series, classify, conformal_atom_masses,
                      cyr_sarig_witness, finite_truncation, flat_transitions,
                      locate_flat_interval, pressure_curve, pressure_derivative,
                      renewal_zn, smoothness_at_transition, solve_pressure,
                      POSITIVE_RECURRENT, NULL_RECURRENT, TRANSIENT,
                      FIRST_ORDER, C1)
from .sequences import (RealizedSequence, SequenceSpec, build_tail,
                        dfu_perturb, from_spec, model_from_spec, normalize,
                        realize_model, sequence_table, with_leading_shift)
from .intervalmaps import (GurevichEstimate, IntervalMapModel,
                           PeriodicPointSet, ZnResult, chebyshev_model,
                           chebyshev_pressure_curve,
                           chebyshev_pressure_exact,
                           doubling_grid_model, gurevich_estimate,
                           hofbauer_doubling_model, manneville_pomeau_model,
                           mp_induced_model, mp_preimage_ladder,
                           periodic_points, two_slope_kink, zn_sum)

__version__ = "0.1.0"
