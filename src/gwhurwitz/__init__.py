"""Exact arithmetic for Hurwitz numbers, symmetric-group characters,
infinite-wedge correlators, completed cycles, and stationary invariants
of target curves."""

__version__ = "0.1.0"

from .characters import CharacterTable, chi, dim_hook, f2_shifted, f_eta, transposition_class
from .fock import (Alpha, AStarOp, CalE, ExpAlpha, ExpUF2, FockState, apply_A, apply_Astar,
                   apply_alpha, apply_calE, apply_expUF2, apply_exp_alpha, boson_state,
                   correlator, inner_product)
from .gwh import (CompletedCycle, CrosscheckReport, ElsvReport, IFunctionCoefficient,
                  StationaryGW, completed_cycle, elsv_check, gwh_crosscheck,
                  hodge_H_connected, hodge_H_series, i_function_empty,
                  i_function_numeric, i_function_unstable_connected, rho,
                  stationary_gw, tau_via_wallcrossing)
from .hurwitz import (BranchData, double_hurwitz_exp_series, hurwitz_classsum,
                      hurwitz_connected, hurwitz_disconnected, monodromy_oracle)
from .partitions import (ClassSum, as_partition, enumerate_partitions, format_partition,
                         parse_partition, subpartitions_by_removing_ones, z_factor)
from .qseries import (INF, MultiSeries, PrecisionError, Rational, SeriesError,
                      VariableMismatchError, format_rational, pochhammer_series, s_of,
                      s_series, sigma_of, sigma_series)

__all__ = [name for name in dir() if not name.startswith("_")]
