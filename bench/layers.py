"""Per-layer metrics from the span files that bench/trace_shim.py writes.

A span's self time is its duration minus the durations of its child spans.
A layer's self time is the sum over the spans of its functions.  Inclusive
times ("*_s" without "self") count only outermost spans of a name, so that
recursion is not counted twice.
"""

from __future__ import annotations

import array
import json
import statistics
from collections import defaultdict

# metric -> (unit, better); the order is the order of BENCHMARK.json.
METRICS = {
    "qseries.mul_calls": ("count", "lower"),
    "qseries.mul_self_s": ("s", "lower"),
    "qseries.mul_term_products": ("count", "lower"),
    "qseries.init_calls": ("count", "lower"),
    "qseries.exp_calls": ("count", "lower"),
    "qseries.inverse_calls": ("count", "lower"),
    "qseries.self_s": ("s", "lower"),
    "fock.correlator_calls": ("count", "lower"),
    "fock.correlator_s": ("s", "lower"),
    "fock.calE_calls": ("count", "lower"),
    "fock.calE_self_s": ("s", "lower"),
    "fock.a_family_self_s": ("s", "lower"),
    "fock.self_s": ("s", "lower"),
    "fock.state_terms_max": ("count", "lower"),
    "characters.table_builds": ("count", "lower"),
    "characters.build_s": ("s", "lower"),
    "characters.table_cells": ("count", "lower"),
    "characters.chi_calls": ("count", "lower"),
    "characters.self_s": ("s", "lower"),
    "partitions.check_calls": ("count", "lower"),
    "partitions.enumerate_calls": ("count", "lower"),
    "partitions.z_factor_calls": ("count", "lower"),
    "partitions.self_s": ("s", "lower"),
    "hurwitz.disconnected_calls": ("count", "lower"),
    "hurwitz.disconnected_self_s": ("s", "lower"),
    "hurwitz.connected_s": ("s", "lower"),
    "hurwitz.double_series_s": ("s", "lower"),
    "hurwitz.oracle_s": ("s", "lower"),
    "hurwitz.group_context_s": ("s", "lower"),
    "gwh.completed_cycle_s": ("s", "lower"),
    "gwh.wallcrossing_s": ("s", "lower"),
    "gwh.i_function_calls": ("count", "lower"),
    "gwh.elsv_s": ("s", "lower"),
    "gwh.stationary_s": ("s", "lower"),
    "gwh.self_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.table_load_s": ("s", "lower"),
    "cli.cache_hit_ratio": ("ratio", "higher"),
    "cli.table_store_s": ("s", "lower"),
    "cli.cache_bytes": ("bytes", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.emit_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

CALLS = {
    "qseries.mul_calls": ["qseries.MultiSeries.__mul__"],
    "qseries.init_calls": ["qseries.MultiSeries.__init__"],
    "qseries.exp_calls": ["qseries.MultiSeries.exp"],
    "qseries.inverse_calls": ["qseries.MultiSeries.inverse"],
    "fock.correlator_calls": ["fock.correlator"],
    "fock.calE_calls": ["fock.apply_calE"],
    "characters.table_builds": ["characters._build_table"],
    "characters.chi_calls": ["characters.chi", "characters.CharacterTable.chi"],
    "partitions.check_calls": ["partitions.check_partition"],
    "partitions.enumerate_calls": ["partitions.enumerate_partitions"],
    "partitions.z_factor_calls": ["partitions.z_factor"],
    "hurwitz.disconnected_calls": ["hurwitz.hurwitz_disconnected"],
    "gwh.i_function_calls": ["gwh.i_function_numeric"],
}
SELF = {
    "qseries.mul_self_s": "qseries.MultiSeries.__mul__",
    "fock.calE_self_s": "fock.apply_calE",
    "fock.a_family_self_s": "fock._a_family",
    "hurwitz.disconnected_self_s": "hurwitz.hurwitz_disconnected",
}
INCLUSIVE = {
    "fock.correlator_s": ["fock.correlator"],
    "characters.build_s": ["characters._build_table"],
    "hurwitz.connected_s": ["hurwitz.hurwitz_connected"],
    "hurwitz.double_series_s": ["hurwitz.double_hurwitz_exp_series"],
    "hurwitz.oracle_s": ["hurwitz.monodromy_oracle"],
    "hurwitz.group_context_s": ["hurwitz._GroupContext.__init__",
                                "hurwitz._GroupContext.commutator_distribution"],
    "gwh.completed_cycle_s": ["gwh.completed_cycle"],
    "gwh.wallcrossing_s": ["gwh.tau_via_wallcrossing"],
    "gwh.elsv_s": ["gwh.elsv_check"],
    "gwh.stationary_s": ["gwh.stationary_gw"],
    "cli.table_load_s": ["cli.load_cached_table"],
    "cli.table_store_s": ["cli.store_table"],
    "cli.emit_s": ["cli._emit"],
}
LAYER_SELF = ("qseries", "fock", "characters", "partitions", "gwh")


class Totals:
    """Sums over any number of span files."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.import_s = []

    def add(self, path: str) -> None:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            n = header["n"]
            arrays = [array.array(code) for code in "iidd"]
            for arr in arrays:
                arr.fromfile(handle, n)
        names = header["names"]
        name, parent, start, end = arrays
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        wanted = {names.index(x) for labels in INCLUSIVE.values() for x in labels
                  if x in names}
        for i in range(n):
            label = names[name[i]]
            own = dur[i] - child[i]
            self.calls[label] += 1
            self.self_s[label] += own
            self.layer_self_s[label.split(".", 1)[0]] += own
            if name[i] in wanted:
                p = parent[i]
                while p >= 0 and name[p] != name[i]:
                    p = parent[p]
                if p < 0:
                    self.outer_s[label] += dur[i]
        for key, value in header["counters"].items():
            if key == "state_terms_max":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        self.import_s.append(header["import_s"])

    def metrics(self, cache_bytes: int, emit_bytes: int, overhead_s: float) -> dict:
        out = {}
        for metric, labels in CALLS.items():
            out[metric] = sum(self.calls[x] for x in labels)
        for metric, label in SELF.items():
            out[metric] = self.self_s[label]
        for metric, labels in INCLUSIVE.items():
            out[metric] = sum(self.outer_s[x] for x in labels)
        for layer in LAYER_SELF:
            out[f"{layer}.self_s"] = self.layer_self_s[layer]
        c = self.counters
        out["qseries.mul_term_products"] = c["mul_term_products"]
        out["fock.state_terms_max"] = c["state_terms_max"]
        out["characters.table_cells"] = c["table_cells"]
        out["cli.cache_hit_ratio"] = c["table_hits"] / c["table_loads"] if c["table_loads"] else 0.0
        out["cli.import_s"] = statistics.median(self.import_s) if self.import_s else 0.0
        out["cli.cache_bytes"] = cache_bytes
        out["cli.emit_bytes"] = emit_bytes
        out["trace.overhead_s"] = overhead_s
        return {m: {"value": out[m], "unit": METRICS[m][0]} for m in METRICS}
