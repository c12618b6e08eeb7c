"""Exact arithmetic for Hurwitz numbers, symmetric-group characters,
infinite-wedge correlators, completed cycles, and stationary invariants
of target curves.

Public names are imported on first use (PEP 562), so a process loads only
the layers it touches: a character-table or Hurwitz count never loads the
series core or the wedge engine.  The counting layers and the wall-crossing
route keep no memo past a call; `clear_caches()` empties the two weight
memos the wedge engine keeps across calls, for long-running callers and
in-process benchmarks.
"""

import importlib
import sys

__version__ = "0.1.0"

# the monodromy oracle's degree limits, here so the command-line parser can
# read them without loading `oracle`, which binds them from here
DEFAULT_ORACLE_BOUND = 5
# at genus >= 2 the oracle sweeps all d! x d! pairs, 1.6e9 of them at d = 8
ORACLE_CEILING = 8

_EXPORTS = {
    "branch": ("BranchData",),
    "characters": ("CharacterTable", "chi", "dim_hook", "f2_shifted", "f_eta",
                   "transposition_class"),
    "cycles": ("ClassSum", "CompletedCycle", "StationaryGW", "completed_cycle", "rho",
               "stationary_gw"),
    "fock": ("FockState", "apply_A", "apply_Astar", "apply_alpha", "apply_calE",
             "apply_expUF2", "apply_exp_alpha", "boson_state", "inner_product"),
    "gwh": ("CrosscheckReport", "ElsvReport", "elsv_check", "gwh_crosscheck",
            "hodge_H_connected", "hodge_H_series", "i_function_empty",
            "i_function_unstable_connected", "tau_via_wallcrossing"),
    "hurwitz": ("hurwitz_classsum", "hurwitz_connected", "hurwitz_disconnected"),
    "icoeff": ("IFunctionCoefficient", "i_function_numeric"),
    "oracle": ("monodromy_oracle",),
    "partitions": ("as_partition", "enumerate_partitions", "format_partition",
                   "parse_partition", "subpartitions_by_removing_ones", "z_factor"),
    "qseries": ("INF", "MultiSeries", "PrecisionError", "Rational", "SeriesError",
                "VariableMismatchError", "format_rational", "pochhammer_series", "s_of",
                "s_series", "sigma_of", "sigma_series"),
    "words": ("Alpha", "AStarOp", "CalE", "ExpAlpha", "ExpUF2", "correlator"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME, "clear_caches"])

# every cache the layers keep across calls, by module; each has `cache_clear`.
# `fock`'s weights are read again across `apply_calE` calls.
_CACHES = {
    "fock": ("_exp_weight", "_inv_sigma"),
}


def clear_caches() -> None:
    """Empty every cache of `_CACHES`; a layer not loaded yet holds none and stays unloaded."""
    for module, names in _CACHES.items():
        loaded = sys.modules.get(f"{__name__}.{module}")
        for name in names if loaded else ():
            getattr(loaded, name).cache_clear()


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
