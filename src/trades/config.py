"""Experiment configuration: parsing, validation, canonical echo.

The on-disk format is a plain INI-style text file, flat key = value
lines grouped under section headers, versioned by a ``spec_version``
key.  Unknown sections and unknown keys are rejected outright so a
typo cannot silently fall back to a default.

Every section's keys, their kinds, defaults and bounds are the rows of
``_KEYS``: one table reads, checks and echoes them, and declares the
fields of each section's settings record; the ``[trades]`` rows are
built from ``TradesConfig``'s fields and defaults (all but its seed).
The few rules that relate keys to one another are written out in
``parse_config``.

One master seed drives everything: per-component seeds (graph topology,
scenario data, iterate initialization) are derived from it through a
seed sequence unless a section pins its own.  The canonical echo
materializes every derived value, so feeding the echo back through the
parser reproduces the identical experiment.  output_dir resolves against
the working directory.
"""

import configparser
import operator

import numpy as np

from ._base import Record
from .algorithm import TRACKER_MODES, TradesConfig
from .errors import ConfigError
from .network import _WEIGHT_METHODS

SPEC_VERSION = 1
SCENARIOS = ("affine", "voltage")

# kinds besides int, float, str and a tuple of allowed words
_FLAG, _FLOATS, _OR_NONE = "on/off", "float list", "float or none"
# defaults besides a value; a derived one is passed in by parse_config
_REQUIRED, _DERIVED = "required", "derived"
_POSITIVE = ((">", 0.0),)
_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


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
    # TradesConfig's fields and defaults but the derived seed; it checks them
    "trades": {key: (TRACKER_MODES if key == "tracker" else kind,
                     getattr(TradesConfig, key), None)
               for key, kind in TradesConfig.__annotations__.items()
               if key != "seed"},
    "affine": {
        "strategy_dim": (int, _REQUIRED, _at_least(1)),
        "agg_dim": (int, _REQUIRED, _at_least(1)),
        "coupling": (float, 0.3, None),
        "box_halfwidth": (_OR_NONE, 5.0, _POSITIVE),  # none: unconstrained
        "seed": (int, _DERIVED, _at_least(0)),
    },
    "voltage": {
        "n_buses": (int, _REQUIRED, _at_least(2)),
        "horizon": (int, _REQUIRED, _at_least(10)),   # overnight windows
        "penalty_weight": (float, 1.0, _POSITIVE),
        "active_weight": (float, 1.0, _POSITIVE),
        "reactive_weight": (float, 10.0, _POSITIVE),
        "seed": (int, _DERIVED, _at_least(0)),
    },
    "sweep": {
        "gamma": (_FLOATS, _REQUIRED, None),
        "delta": (_FLOATS, _REQUIRED, None),
        "max_iter": (int, _DERIVED, _at_least(1)),
    },
}


def _settings(name):
    """Frozen record of one section: a field per key, named as the key,
    and the section's name as the class attribute section."""
    return type(f"{name.capitalize()}Settings", (Record,),
                {"__annotations__": dict.fromkeys(_KEYS[name]),
                 "__module__": __name__,   # so records pickle by name
                 "section": name}, frozen=True)


GraphSettings, AffineSettings, VoltageSettings, SweepSettings = map(
    _settings, ("graph", "affine", "voltage", "sweep"))


class ExperimentConfig(Record, frozen=True):
    seed: int
    output_dir: str
    oracle: bool
    graph: GraphSettings
    trades: TradesConfig
    settings: Record    # [scenario]'s: AffineSettings or VoltageSettings
    sweep: SweepSettings = None

    @property
    def scenario(self):
        """affine or voltage: the section the settings record holds."""
        return self.settings.section


def seed_streams(seed, count):
    """count seeds drawn from one: the graph, scenario and init seeds of a
    master seed (3), or the network, baseline, price and agent seeds of a
    scenario seed (4)."""
    return tuple(map(int, np.random.SeedSequence(int(seed)).generate_state(count)))


# ----------------------------------------------------------------- parsing


class _Unparsable(ConfigError):
    """Text that is not INI; load_config adds the file to the message."""


def _read_sections(text):
    # no header can name the default section, so [DEFAULT] is an unknown
    # section, not keys copied into every other one
    parser = configparser.ConfigParser(interpolation=None, strict=True,
                                       default_section="")
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


def _value(name, key, kind, default, bound, raw):
    """One key's raw string, or its default, as a typed value in bound."""
    if raw is None:
        if default == _REQUIRED:
            raise ConfigError(f"[{name}] missing required key {key!r}")
        return default
    where = f"[{name}] {key}"
    if kind is str:
        return raw
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


def _section(sections, name, **defaults):
    """A section's typed values by key, in table order.

    defaults replace the table's derived ones.
    """
    items = sections.get(name, {})
    return {key: _value(name, key, kind, defaults.get(key, default), bound,
                        items.get(key))
            for key, (kind, default, bound) in _KEYS[name].items()}


def parse_config(text, overrides=None):
    """Build a validated ExperimentConfig from the raw text.

    overrides maps [experiment] keys to raw values that replace the
    file's before anything is read from the section.
    """
    sections = _read_sections(text)
    if "experiment" not in sections:
        raise ConfigError("missing required section [experiment]")
    sections["experiment"].update(overrides or {})
    exp = _section(sections, "experiment")
    if exp["spec_version"] != SPEC_VERSION:
        raise ConfigError(f"spec_version {exp['spec_version']} unsupported; "
                          f"this build reads version {SPEC_VERSION}")
    scenario = exp["scenario"]
    graph_derived, scenario_derived, init_seed = seed_streams(exp["seed"], 3)

    if "graph" not in sections:
        raise ConfigError("missing required section [graph]")
    graph = GraphSettings(**_section(sections, "graph", seed=graph_derived))

    try:
        trades = TradesConfig(**_section(sections, "trades"), seed=init_seed)
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
    settings = (AffineSettings if scenario == "affine" else VoltageSettings)(
        **_section(sections, scenario, seed=scenario_derived))

    sweep = None
    if "sweep" in sections:
        sweep = SweepSettings(**_section(sections, "sweep",
                                         max_iter=trades.max_iter))
        try:    # a cell's step passes TradesConfig's own check
            for key in ("gamma", "delta"):
                for value in getattr(sweep, key):
                    trades._replace(**{key: value})
        except ValueError as exc:
            raise ConfigError(f"[sweep] {exc}")

    return ExperimentConfig(seed=exp["seed"], output_dir=exp["output_dir"],
                            oracle=exp["oracle"], graph=graph, trades=trades,
                            settings=settings, sweep=sweep)


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
        return parse_config(text, overrides=overrides)
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
        "experiment": {**vars(cfg), "scenario": cfg.scenario,
                       "spec_version": SPEC_VERSION},
        "graph": vars(cfg.graph),
        "trades": vars(cfg.trades),
        cfg.scenario: vars(cfg.settings),
        "sweep": cfg.sweep and vars(cfg.sweep),
    }
    lines = []
    for name, values in sections.items():
        if values is None:
            continue
        lines.append(f"[{name}]")
        lines += [f"{key} = {_fmt(values[key])}" for key in _KEYS[name]]
        lines.append("")
    return "\n".join(lines)
