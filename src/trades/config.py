"""Experiment configuration: parsing, validation, canonical echo.

The on-disk format is a plain INI-style text file, flat key = value
lines grouped under section headers, versioned by a ``spec_version``
key.  Unknown sections and unknown keys are rejected outright so a
typo cannot silently fall back to a default.

Every section's keys, their kinds, defaults and bounds are the rows of
``_KEYS``: one table reads, checks and echoes them, and declares the
fields of each section's settings record.  The few rules that relate
keys to one another are written out in ``parse_config``.

One master seed drives everything: per-component seeds (graph topology,
scenario data, iterate initialization) are derived from it through a
seed sequence unless a section pins its own.  The canonical echo
materializes every derived value, so feeding the echo back through the
parser reproduces the identical experiment.

Referenced files (network_file, prices_file, agents_file) resolve relative
to the directory containing the config file; output_dir resolves against
the working directory.
"""

import configparser
import operator
import os

import numpy as np

from ._base import Record
from .algorithm import TRACKER_MODES, TradesConfig
from .errors import ConfigError
from .network import _WEIGHT_METHODS

SPEC_VERSION = 1
SCENARIOS = ("affine", "voltage")
# [voltage] defaults, which the voltage model's functions share
DEFAULT_POWER_BASE_KW = 1000.0
DEFAULT_VOLTAGE_SCALE = 2400.0

# kinds besides int, float, str and a tuple of allowed words
_FILE, _FLAG, _FLOATS, _OR_NONE = "file", "on/off", "float list", "float or none"
# defaults besides a value; a derived one is passed in by parse_config
_REQUIRED, _DERIVED = "required", "derived"
_POSITIVE = ((">", 0.0),)
_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}
_TRADES = TradesConfig()  # [trades] defaults; TradesConfig checks the values


def _at_least(n):
    return ((">=", n),)


# section -> key -> (kind, default, bound), in echo order
_KEYS = {
    "experiment": {
        "spec_version": (int, _REQUIRED, None),
        "scenario": (SCENARIOS, _REQUIRED, None),
        "seed": (int, _REQUIRED, _at_least(0)),
        "output_dir": (str, "out", None),
        "oracle": (_FLAG, True, None),
    },
    "graph": {
        "n_agents": (int, _REQUIRED, _at_least(2)),
        "edge_prob": (float, _REQUIRED, ((">=", 0.0), ("<=", 1.0))),
        "weight_method": (_WEIGHT_METHODS, _WEIGHT_METHODS[0], None),
        "seed": (int, _DERIVED, _at_least(0)),
    },
    "trades": {
        "gamma": (float, _TRADES.gamma, None),
        "delta": (float, _TRADES.delta, None),
        "stop_tol": (float, _TRADES.stop_tol, None),
        "max_iter": (int, _TRADES.max_iter, None),
        "trace_stride": (int, _TRADES.trace_stride, None),
        "tracker": (TRACKER_MODES, _TRADES.tracker, None),
    },
    "affine": {
        "strategy_dim": (int, _REQUIRED, _at_least(1)),
        "agg_dim": (int, _REQUIRED, _at_least(1)),
        "coupling": (float, 0.3, None),
        "box_halfwidth": (_OR_NONE, 5.0, _POSITIVE),  # none: unconstrained
        "seed": (int, _DERIVED, _at_least(0)),
    },
    "voltage": {
        "n_buses": (int, _REQUIRED, _at_least(2)),
        "horizon": (int, _REQUIRED, _at_least(1)),
        "power_base_kw": (float, DEFAULT_POWER_BASE_KW, _POSITIVE),
        "voltage_scale": (float, DEFAULT_VOLTAGE_SCALE, _POSITIVE),
        "penalty_weight": (float, 1.0, _POSITIVE),
        "active_weight": (float, 1.0, _POSITIVE),
        "reactive_weight": (float, 10.0, _POSITIVE),
        "network_file": (_FILE, None, None),
        "prices_file": (_FILE, None, None),
        "agents_file": (_FILE, None, None),
        "seed": (int, _DERIVED, _at_least(0)),
    },
    "sweep": {
        "gamma": (_FLOATS, _REQUIRED, None),
        "delta": (_FLOATS, _REQUIRED, None),
        "max_iter": (int, _DERIVED, _at_least(1)),
    },
}


def _settings(name):
    """Frozen record of one section: a field per key, named as the key."""
    return type(f"{name.capitalize()}Settings", (Record,),
                {"__annotations__": dict.fromkeys(_KEYS[name]),
                 "__module__": __name__},  # so records pickle by name
                frozen=True)


GraphSettings, AffineSettings, VoltageSettings, SweepSettings = map(
    _settings, ("graph", "affine", "voltage", "sweep"))


class ExperimentConfig(Record, frozen=True):
    scenario: str
    seed: int
    output_dir: str
    oracle: bool
    graph: GraphSettings
    trades: TradesConfig
    affine: AffineSettings = None
    voltage: VoltageSettings = None
    sweep: SweepSettings = None


def derive_component_seeds(master_seed):
    """Graph, scenario, and init seeds from the one master seed."""
    state = np.random.SeedSequence(int(master_seed)).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def split_scenario_seed(scenario_seed):
    """Network, baseline, price and agent seeds of one scenario."""
    state = np.random.SeedSequence(int(scenario_seed)).generate_state(4)
    return tuple(int(v) for v in state)


# ----------------------------------------------------------------- parsing


class _Unparsable(ConfigError):
    """Text that is not INI; load_config adds the file to the message."""


def _read_sections(text):
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str
    # configparser's own messages span lines and name no file
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise _Unparsable(f"line {exc.lineno} comes before any [section] "
                          "header") from None
    except configparser.ParsingError as exc:
        raise _Unparsable(f"line {exc.errors[0][0]} is neither a [section] "
                          "header nor key = value") from None
    except configparser.Error as exc:   # a repeated section or key
        raise _Unparsable(f"line {exc.lineno}: "
                          f"{str(exc).split(']: ', 1)[-1]}") from None
    sections = {}
    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigError(f"unknown section [{name}]; "
                              f"expected {sorted(_KEYS)}")
        items = dict(parser.items(name))
        stray = set(items) - set(_KEYS[name])
        if stray:
            raise ConfigError(f"[{name}] has unknown keys: {sorted(stray)}")
        sections[name] = items
    return sections


def _value(name, key, kind, default, bound, raw, base_dir):
    """One key's raw string, or its default, as a typed value in bound."""
    if raw is None:
        if default == _REQUIRED:
            raise ConfigError(f"[{name}] missing required key {key!r}")
        return default
    where = f"[{name}] {key}"
    if kind is str:
        return raw
    if kind == _FILE:
        path = os.path.abspath(os.path.join(base_dir, raw))
        if not os.path.isfile(path):
            raise ConfigError(f"{where} refers to a missing file: {path}")
        return path
    if kind == _OR_NONE:
        if raw == "none":
            return None
        kind = float
    if kind == _FLAG:
        if raw not in ("on", "off"):
            raise ConfigError(f"{where} = {raw!r}; expected on or off")
        return raw == "on"
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ConfigError(f"{where} = {raw!r}; expected one of {kind}")
        return raw
    if kind == _FLOATS:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"{where} lists no values")
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"{where} = {raw!r} is not a "
                              "comma-separated list of numbers")
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} = {raw!r} is not {noun}")
    if kind is float and not np.isfinite(value):
        raise ConfigError(f"{where} must be finite")
    for op, limit in bound or ():
        if not _COMPARE[op](value, limit):
            got = f", got {value}" if kind is int else ""
            raise ConfigError(f"{where} must be {op} {limit}{got}")
    return value


def _section(sections, name, base_dir, **defaults):
    """A section's typed values by key, in table order.

    defaults replace the table's derived ones.
    """
    items = sections.get(name, {})
    return {key: _value(name, key, kind, defaults.get(key, default), bound,
                        items.get(key), base_dir)
            for key, (kind, default, bound) in _KEYS[name].items()}


def parse_config(text, base_dir=".", overrides=None):
    """Build a validated ExperimentConfig from the raw text.

    overrides maps [experiment] keys to raw values that replace the
    file's before anything is read from the section.
    """
    sections = _read_sections(text)
    if "experiment" not in sections:
        raise ConfigError("missing required section [experiment]")
    sections["experiment"].update(overrides or {})
    exp = _section(sections, "experiment", base_dir)
    if exp["spec_version"] != SPEC_VERSION:
        raise ConfigError(f"spec_version {exp['spec_version']} unsupported; "
                          f"this build reads version {SPEC_VERSION}")
    scenario = exp["scenario"]
    graph_derived, scenario_derived, init_seed = derive_component_seeds(exp["seed"])

    if "graph" not in sections:
        raise ConfigError("missing required section [graph]")
    graph = GraphSettings(**_section(sections, "graph", base_dir,
                                     seed=graph_derived))

    try:
        trades = TradesConfig(**_section(sections, "trades", base_dir),
                              seed=init_seed)
    except ValueError as exc:
        raise ConfigError(f"[trades] {exc}")

    other = "voltage" if scenario == "affine" else "affine"
    article = {"affine": "an", "voltage": "a"}
    if other in sections:
        raise ConfigError(f"scenario = {scenario} forbids "
                          f"{article[other]} [{other}] section")
    if scenario not in sections:
        raise ConfigError(f"scenario = {scenario} requires "
                          f"{article[scenario]} [{scenario}] section")
    affine = voltage = None
    if scenario == "affine":
        affine = AffineSettings(**_section(sections, "affine", base_dir,
                                           seed=scenario_derived))
    else:
        values = _section(sections, "voltage", base_dir, seed=scenario_derived)
        if values["agents_file"] is None and values["horizon"] < 10:
            raise ConfigError("[voltage] horizon must be >= 10 when agent "
                              "schedules are generated")
        voltage = VoltageSettings(**values)

    sweep = None
    if "sweep" in sections:
        values = _section(sections, "sweep", base_dir, max_iter=trades.max_iter)
        if not all(np.isfinite(g) and g > 0 for g in values["gamma"]):
            raise ConfigError("[sweep] gamma values must be finite and positive")
        if not all(0 < dl <= 1 for dl in values["delta"]):
            raise ConfigError("[sweep] delta values must lie in (0, 1]")
        sweep = SweepSettings(**values)

    return ExperimentConfig(scenario=scenario, seed=exp["seed"],
                            output_dir=exp["output_dir"], oracle=exp["oracle"],
                            graph=graph, trades=trades,
                            affine=affine, voltage=voltage, sweep=sweep)


def load_config(path, seed=None, output_dir=None, oracle=None):
    """Parse a config file, applying command-line overrides first.

    seed replaces the master seed before component seeds are derived;
    output_dir and oracle replace their [experiment] keys.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    overrides = {}
    if seed is not None:
        overrides["seed"] = str(int(seed))
    if output_dir is not None:
        overrides["output_dir"] = str(output_dir)
    if oracle is not None:
        overrides["oracle"] = oracle
    try:
        return parse_config(text, overrides=overrides,
                            base_dir=os.path.dirname(os.path.abspath(path)))
    except _Unparsable as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None


# ------------------------------------------------------------------- echo


def _fmt(value):
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    if value is None:
        return "none"
    return str(value)


def canonical_text(cfg):
    """Serialize with every derived value materialized.

    Parsing the result yields a config equal to cfg, so the echo file
    written next to run outputs is a complete, replayable record.
    """
    sections = {
        "experiment": {**vars(cfg), "spec_version": SPEC_VERSION},
        "graph": vars(cfg.graph),
        "trades": vars(cfg.trades),
        "affine": cfg.affine and vars(cfg.affine),
        "voltage": cfg.voltage and vars(cfg.voltage),
        "sweep": cfg.sweep and vars(cfg.sweep),
    }
    lines = []
    for name, values in sections.items():
        if values is None:
            continue
        lines.append(f"[{name}]")
        for key, (kind, _, _) in _KEYS[name].items():
            value = values[key]
            if value is not None or kind != _FILE:  # unset files are left out
                lines.append(f"{key} = {_fmt(value)}")
        lines.append("")
    return "\n".join(lines)
