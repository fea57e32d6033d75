"""Spans and counters recorded around calls into the trades package.

Nothing here edits the package: a wrapper replaces a function wherever a
``trades`` module holds it (``from .games import phi_stack`` copies the
reference, so every copy is replaced), or replaces a method on its class.

A span is (name, start, end, parent).  Spans live in flat arrays while
the command runs and are written out once, with ``numpy.savez``, when it
ends.  Analysis (self times, counts, the ``.oracle`` split) happens in
the benchmark runner, not in the measured process.
"""

import functools
import sys
import time
from array import array

import numpy as np

ORACLE_SPAN = "games.oracle"


class SpanStore:
    """Open/close stack of spans plus named counters, for one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.counts = {}
        # member .project calls made inside each projector span
        self.member_calls = {}
        self.current_project = -1

    def name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(float("nan"))
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def save(self, path):
        """Write spans and counters; the runner reads them with load_spans."""
        member_idx = np.fromiter(self.member_calls.keys(), dtype=np.int64)
        member_val = np.fromiter(self.member_calls.values(), dtype=np.int64)
        np.savez(path,
                 names=np.asarray(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 count_keys=np.asarray(list(self.counts), dtype=str),
                 count_vals=np.asarray(list(self.counts.values()),
                                       dtype=np.float64),
                 member_idx=member_idx, member_val=member_val)


def load_spans(path):
    with np.load(path) as data:
        out = {key: data[key] for key in data.files}
    out["names"] = [str(n) for n in out["names"]]
    out["counts"] = {str(k): float(v) for k, v in
                     zip(out.pop("count_keys"), out.pop("count_vals"))}
    return out


# ----------------------------------------------------------------- wrapping


def _replace_everywhere(original, replacement):
    """Point every trades module attribute that is `original` at `replacement`."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "trades"
                                  or mod_name.startswith("trades.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    if hits == 0:
        raise LookupError(f"{original!r} is not held by any trades module")


def span_wrapper(store, name, fn):
    name_id = store.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = store.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            store.close(idx)
    return wrapper


def wrap_function(store, name, fn):
    _replace_everywhere(fn, span_wrapper(store, name, fn))


def wrap_method(store, name, cls, method):
    setattr(cls, method, span_wrapper(store, name, getattr(cls, method)))


def install_tracing(store):
    """Spans and counters at every layer boundary the benchmark reports."""
    import trades.algorithm as algorithm
    import trades.cli as cli
    import trades.config as config
    import trades.games as games
    import trades.grid as grid
    import trades.network as network
    import trades.projections as projections

    functions = [
        ("config.load", config.load_config),
        ("config.parse", config.parse_config),
        ("network.build", cli.build_graph),
        ("network.spectrum", network.spectrum),
        ("network.consensus_step", network.consensus_step),
        ("cli.assemble", cli.assemble_game),
        ("cli.write", cli._write_atomic),
        ("games.random_game", games.random_strongly_monotone_game),
        ("games.phi_stack", games.phi_stack),
        ("games.local_operator", games.local_operator),
        ("games.pseudo_gradient", games.pseudo_gradient),
        (ORACLE_SPAN, games.solve_ne_oracle),
        ("grid.build_voltage_game", grid.build_voltage_game),
        ("grid.evaluate_voltages", grid.evaluate_voltages),
        ("algorithm.run", algorithm.run),
        ("algorithm.fit", algorithm.fit_convergence),
    ]
    for fn in (grid.build_radial_network, grid.gen_baseline_profile,
               grid.distflow_sensitivities, grid.gen_prices, grid.gen_agents,
               grid.default_voltage_config):
        functions.append(("grid.scenario", fn))
    for name, fn in functions:
        wrap_function(store, name, fn)

    wrap_method(store, "games.constants", games.AffineGameSpec, "exact_modulus")
    wrap_method(store, "games.constants", games.AffineGameSpec,
                "exact_lipschitz")
    wrap_method(store, "algorithm.record", algorithm._Recorder, "add")
    wrap_method(store, "projections.membership_residual",
                projections.FeasibleSetProjector, "membership_residual")
    _wrap_projector_call(store, projections.FeasibleSetProjector)
    _wrap_csv_text(store, algorithm.IterationTrace)
    for cls in (projections.Box, projections.Hyperplane,
                projections.Halfspace, projections.DiskPairs):
        _count_member_project(store, cls)
    _count_dykstra_exceptions(store, projections.project_dykstra)


def _wrap_projector_call(store, cls):
    """Projector call span; member .project calls inside it are tallied."""
    name_id = store.name_id("projections.project")
    call = cls.__call__

    @functools.wraps(call)
    def wrapper(self, v):
        outer = store.current_project
        idx = store.open(name_id)
        store.current_project = idx
        store.member_calls[idx] = 0
        try:
            return call(self, v)
        finally:
            store.close(idx)
            store.current_project = outer
    cls.__call__ = wrapper


def _count_member_project(store, cls):
    project = cls.project

    @functools.wraps(project)
    def wrapper(self, v):
        idx = store.current_project
        if idx >= 0:
            store.member_calls[idx] += 1
        return project(self, v)
    cls.project = wrapper


def _count_dykstra_exceptions(store, fn):
    """Count Dykstra runs that end without the fixed-point certificate."""
    from trades.errors import EmptyIntersectionSuspected, MaxSweepsExceeded

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (MaxSweepsExceeded, EmptyIntersectionSuspected):
            store.count("projections.dykstra_exceptions")
            raise
    _replace_everywhere(fn, wrapper)


def _wrap_csv_text(store, cls):
    name_id = store.name_id("cli.trace_csv")
    csv_text = cls.csv_text

    @functools.wraps(csv_text)
    def wrapper(self):
        idx = store.open(name_id)
        try:
            text = csv_text(self)
        finally:
            store.close(idx)
        store.count("cli.trace_csv_bytes", len(text.encode()))
        return text
    cls.csv_text = wrapper


# ----------------------------------------------------------------- analysis


def self_times(start, end, parent):
    """Each span's duration minus the part of it its child spans cover.

    Children of one span never overlap (a process records one call stack),
    so the covered part is the sum of the children's durations, each
    clipped to its parent's interval.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    kids = np.flatnonzero(parent >= 0)
    par = parent[kids]
    covered_each = (np.minimum(end[kids], end[par])
                    - np.maximum(start[kids], start[par])).clip(min=0.0)
    covered = np.bincount(par, weights=covered_each, minlength=start.size)
    return duration - covered


def under_span(names, name, parent, target):
    """Boolean mask: span has an ancestor (or is itself) named `target`."""
    name = np.asarray(name)
    parent = np.asarray(parent, dtype=np.int64)
    if target not in names:
        return np.zeros(name.size, dtype=bool)
    inside = name == names.index(target)
    kids = np.flatnonzero(parent >= 0)
    # one pass per level of nesting, until no flag changes
    while True:
        grown = inside.copy()
        grown[kids] |= inside[parent[kids]]
        if np.array_equal(grown, inside):
            return inside
        inside = grown
