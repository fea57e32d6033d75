"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import os
import statistics
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stats import quartiles, tail_percentile  # noqa: E402


def _record(store, tree, clock):
    """Open/close spans by hand: tree is [(name, duration_before, children,
    duration_after)], times advance through the fake clock list."""
    for name, before, children, after in tree:
        idx = len(store.start)
        store.name.append(store.name_id(name))
        store.parent.append(store.stack[-1] if store.stack else -1)
        store.start.append(clock[0])
        store.end.append(float("nan"))
        store.stack.append(idx)
        clock[0] += before
        _record(store, children, clock)
        clock[0] += after
        store.end[idx] = clock[0]
        store.stack.pop()


def test_self_time_subtracts_direct_children_only():
    store = tracing.SpanStore()
    clock = [0.0]
    _record(store, [("run", 1.0, [("project", 2.0, [("member", 0.5, [], 0.0)],
                                   0.25),
                                  ("consensus", 0.75, [], 0.0)], 3.0)], clock)
    own = tracing.self_times(store.start, store.end, store.parent)
    # run: 7.5 long, children project (2.75) and consensus (0.75)
    assert np.allclose(own, [4.0, 2.25, 0.5, 0.75])
    assert np.isclose(own.sum(), store.end[0] - store.start[0])


def test_self_time_clips_children_to_the_parent_interval():
    start = [0.0, -1.0, 3.0]
    end = [4.0, 1.0, 9.0]
    parent = [-1, 0, 0]
    own = tracing.self_times(start, end, parent)
    assert np.allclose(own, [4.0 - 1.0 - 1.0, 2.0, 6.0])


def test_under_span_marks_every_descendant():
    store = tracing.SpanStore()
    clock = [0.0]
    _record(store, [("run", 1.0, [("phi", 1.0, [], 0.0)], 0.0),
                    (tracing.ORACLE_SPAN, 1.0,
                     [("pg", 1.0, [("phi", 1.0, [], 0.0)], 0.0)], 0.0)],
            clock)
    mask = tracing.under_span(store.names, np.asarray(store.name),
                              np.asarray(store.parent), tracing.ORACLE_SPAN)
    assert mask.tolist() == [False, False, True, True, True]
    none = tracing.under_span(store.names, np.asarray(store.name),
                              np.asarray(store.parent), "absent")
    assert not none.any()


def test_span_store_round_trip(tmp_path):
    store = tracing.SpanStore()
    wrapped = tracing.span_wrapper(store, "layer", lambda x: x + 1)
    assert wrapped(1) == 2
    store.count("projections.dykstra_exceptions")
    path = str(tmp_path / "spans.npz")
    store.save(path)
    spans = tracing.load_spans(path)
    assert spans["names"] == ["layer"]
    assert spans["name"].tolist() == [0]
    assert spans["parent"].tolist() == [-1]
    assert spans["end"][0] >= spans["start"][0]
    assert spans["counts"] == {"projections.dykstra_exceptions": 1.0}


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(9) is None
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(2600) == 99.0
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(100000) == 99.99


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    assert quartiles([2.5]) == (2.5, 2.5)


def test_scaled_weighs_each_gap_by_the_readings_around_it():
    ref = calibrate.REFERENCE_S
    # readings of ref, 3 ref and 2 ref seconds
    readings = [(1.0, 1.0 + ref), (2.0, 2.0 + 3 * ref), (3.0, 3.0 + 2 * ref)]
    gap1 = 2.0 - (1.0 + ref)              # level 2 ref
    gap2 = 3.0 - (2.0 + 3 * ref)          # level 2.5 ref
    expected = 0.5 + gap1 / 2 + gap2 / 2.5 + 1.0 / 2
    # 0.5 s before the first reading (level ref), 1 s after the last
    assert np.isclose(calibrate.scaled(readings, 0.5, 3.0 + 2 * ref + 1.0),
                      expected)
    assert np.isclose(calibrate.scaled(readings, 1.5, 1.75), 0.25 / 2)


def test_busy_counts_readings_clipped_to_the_interval():
    readings = [(0.0, 0.5), (1.0, 1.25), (2.0, 3.0)]
    assert np.isclose(calibrate.busy(readings, 0.0, 4.0), 1.75)
    assert np.isclose(calibrate.busy(readings, 0.25, 2.5), 1.0)
    assert calibrate.busy(readings, 1.5, 1.9) == 0.0


def test_config_generation_is_reproducible_from_the_seed():
    for name in workloads.WORKLOADS:
        first = workloads.commands(name, 7, "cfg.ini")
        again = workloads.commands(name, 7, "cfg.ini")
        other = workloads.commands(name, 8, "cfg.ini")
        assert first == again
        assert first != other
        assert workloads.config_text(name) == workloads.config_text(name)
    seeds = workloads.master_seeds(7, 4)
    assert seeds == list(range(seeds[0], seeds[0] + 4))


def test_generated_configs_parse(tmp_path):
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "src"))
    from trades.config import load_config
    for name in workloads.WORKLOADS:
        path = tmp_path / f"{name}.ini"
        path.write_text(workloads.config_text(name))
        args = workloads.commands(name, 3, str(path))[0]
        cfg = load_config(str(path), seed=int(args[3]))
        assert cfg.seed == int(args[3])
