"""The package namespace: pinned public names, each resolved on first use."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import gwhurwitz

ROOT = pathlib.Path(__file__).resolve().parent.parent

# every public name with the module that defines it
HOMES = {
    "characters": ["CharacterTable", "chi", "dim_hook", "f2_shifted", "f_eta",
                   "transposition_class"],
    "fock": ["Alpha", "AStarOp", "CalE", "ExpAlpha", "ExpUF2", "FockState", "apply_A",
             "apply_Astar", "apply_alpha", "apply_calE", "apply_expUF2", "apply_exp_alpha",
             "boson_state", "correlator", "inner_product"],
    "gwh": ["CompletedCycle", "CrosscheckReport", "ElsvReport", "IFunctionCoefficient",
            "StationaryGW", "completed_cycle", "elsv_check", "gwh_crosscheck",
            "hodge_H_connected", "hodge_H_series", "i_function_empty", "i_function_numeric",
            "i_function_unstable_connected", "rho", "stationary_gw", "tau_via_wallcrossing"],
    "hurwitz": ["BranchData", "hurwitz_classsum", "hurwitz_connected",
                "hurwitz_disconnected", "monodromy_oracle"],
    "partitions": ["ClassSum", "as_partition", "enumerate_partitions", "format_partition",
                   "parse_partition", "subpartitions_by_removing_ones", "z_factor"],
    "qseries": ["INF", "MultiSeries", "PrecisionError", "Rational", "SeriesError",
                "VariableMismatchError", "format_rational", "pochhammer_series", "s_of",
                "s_series", "sigma_of", "sigma_series"],
}
NAMES = sorted([*HOMES, *(name for names in HOMES.values() for name in names),
                "clear_caches"])


def test_all_is_the_pinned_list():
    assert len(NAMES) == 68
    assert sorted(gwhurwitz.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(HOMES))
def test_names_are_the_objects_of_their_home_module(module):
    home = importlib.import_module(f"gwhurwitz.{module}")
    assert getattr(gwhurwitz, module) is home
    for name in HOMES[module]:
        assert getattr(gwhurwitz, name) is getattr(home, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(gwhurwitz, "no_such_name")
    assert not hasattr(gwhurwitz, "euler_partition_counts")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from gwhurwitz import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert namespace["chi"] is gwhurwitz.characters.chi


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(gwhurwitz))


def test_import_loads_only_what_is_touched():
    script = ("import sys, gwhurwitz\n"
              "print(sorted(m for m in sys.modules if m.startswith('gwhurwitz.')))\n"
              "gwhurwitz.chi\n"
              "print(sorted(m for m in sys.modules if m.startswith('gwhurwitz.')))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    bare, touched = done.stdout.splitlines()
    assert bare == "[]"
    assert "gwhurwitz.characters" in touched
    assert "gwhurwitz.fock" not in touched and "gwhurwitz.gwh" not in touched


# each counting layer with the package modules it may load: only those below it
LAYERS = {
    "partitions": ["gwhurwitz.partitions"],
    "characters": ["gwhurwitz.characters", "gwhurwitz.partitions"],
    "hurwitz": ["gwhurwitz.hurwitz", "gwhurwitz.partitions"],
}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_counting_layers_load_only_the_layers_below(module):
    script = (f"import sys, gwhurwitz.{module}\n"
              "print(sorted(m for m in sys.modules if m.startswith('gwhurwitz.')))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(LAYERS[module])


def _cache_sizes() -> dict:
    """Entries in each registered cache."""
    sizes = {}
    for module, names in gwhurwitz._CACHES.items():
        home = importlib.import_module(f"gwhurwitz.{module}")
        for name in names:
            sizes[f"{module}.{name}"] = getattr(home, name).cache_info().currsize
    return sizes


def test_clear_caches_empties_every_cache():
    from gwhurwitz import gwh

    gwh.gwh_crosscheck(3, 2)
    gwh.i_function_numeric(0, (1,), 2)
    filled = _cache_sizes()
    assert all(filled.values()), filled
    gwhurwitz.clear_caches()
    assert not any(_cache_sizes().values())


@pytest.mark.parametrize("module", sorted(HOMES))
def test_every_cache_is_registered(module):
    home = importlib.import_module(f"gwhurwitz.{module}")
    found = {name for name, obj in vars(home).items() if hasattr(obj, "cache_clear")}
    assert found == set(gwhurwitz._CACHES.get(module, ()))


def test_clear_caches_loads_no_layer():
    script = ("import sys, gwhurwitz\n"
              "gwhurwitz.clear_caches()\n"
              "print(sorted(m for m in sys.modules if m.startswith('gwhurwitz.')))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
