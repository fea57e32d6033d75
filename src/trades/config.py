"""Experiment configuration: parsing, validation, canonical echo.

The on-disk format is a plain INI-style text file, flat key = value
lines grouped under section headers, versioned by a ``spec_version``
key.  Unknown sections and unknown keys are rejected outright so a
typo cannot silently fall back to a default.

Sections:

    [experiment]  spec_version, scenario (affine | voltage), seed,
                  output_dir, oracle (on | off)
    [graph]       n_agents, edge_prob, weight_method, seed
    [trades]      gamma, delta, stop_tol, max_iter, trace_stride, tracker
    [affine]      strategy_dim, agg_dim, coupling, box_halfwidth, seed,
                  or a single game_file pointing at a saved instance
    [voltage]     n_buses, horizon, power_base_kw, voltage_scale,
                  penalty_weight, active_weight, reactive_weight,
                  network_file, prices_file, agents_file, seed
    [sweep]       gamma (comma list), delta (comma list), max_iter

One master seed drives everything: per-component seeds (graph topology,
scenario data, iterate initialization) are derived from it through a
seed sequence unless a section pins its own.  The canonical echo
materializes every derived value, so feeding the echo back through the
parser reproduces the identical experiment.

Referenced files (game_file, network_file, ...) resolve relative to the
directory containing the config file; output_dir resolves against the
working directory.
"""

import configparser
import os
from dataclasses import dataclass

import numpy as np

from .algorithm import TRACKER_MODES, TradesConfig
from .errors import ConfigError
from .games import quadratic_aggregative_game
from .grid import DEFAULT_POWER_BASE_KW, DEFAULT_VOLTAGE_SCALE
from .network import _WEIGHT_METHODS

SPEC_VERSION = 1
SCENARIOS = ("affine", "voltage")

_SECTION_KEYS = {
    "experiment": {"spec_version", "scenario", "seed", "output_dir", "oracle"},
    "graph": {"n_agents", "edge_prob", "weight_method", "seed"},
    "trades": {"gamma", "delta", "stop_tol", "max_iter", "trace_stride",
               "tracker"},
    "affine": {"strategy_dim", "agg_dim", "coupling", "box_halfwidth", "seed",
               "game_file"},
    "voltage": {"n_buses", "horizon", "power_base_kw", "voltage_scale",
                "penalty_weight", "active_weight", "reactive_weight",
                "network_file", "prices_file", "agents_file", "seed"},
    "sweep": {"gamma", "delta", "max_iter"},
}


@dataclass(frozen=True)
class GraphSettings:
    n_agents: int
    edge_prob: float
    weight_method: str
    seed: int


@dataclass(frozen=True)
class AffineSettings:
    strategy_dim: int = None
    agg_dim: int = None
    coupling: float = None
    box_halfwidth: float = None
    seed: int = None
    game_file: str = None


@dataclass(frozen=True)
class VoltageSettings:
    n_buses: int
    horizon: int
    power_base_kw: float
    voltage_scale: float
    penalty_weight: float
    active_weight: float
    reactive_weight: float
    seed: int
    network_file: str = None
    prices_file: str = None
    agents_file: str = None


@dataclass(frozen=True)
class SweepSettings:
    gammas: tuple
    deltas: tuple
    max_iter: int = None


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seed: int
    output_dir: str
    oracle: bool
    graph: GraphSettings
    trades: TradesConfig
    tracker: str
    affine: AffineSettings = None
    voltage: VoltageSettings = None
    sweep: SweepSettings = None


def derive_component_seeds(master_seed):
    """Graph, scenario, and init seeds from the one master seed."""
    state = np.random.SeedSequence(int(master_seed)).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def split_scenario_seed(scenario_seed, n_streams=4):
    """Independent sub-seeds for the pieces of one scenario."""
    state = np.random.SeedSequence(int(scenario_seed)).generate_state(n_streams)
    return tuple(int(v) for v in state)


# ----------------------------------------------------------------- parsing


class _Section:
    """One section's raw strings with typed, validated accessors."""

    def __init__(self, name, items):
        self.name = name
        self.items = dict(items)

    def _raw(self, key, default):
        return self.items.get(key, default)

    def get_int(self, key, default=None, minimum=None):
        raw = self._raw(key, None)
        if raw is None:
            if default is None:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not an integer")
        if minimum is not None and value < minimum:
            raise ConfigError(f"[{self.name}] {key} must be >= {minimum}, got {value}")
        return value

    def get_float(self, key, default=None, minimum=None, maximum=None,
                  exclusive_min=False):
        raw = self._raw(key, None)
        if raw is None:
            if default is None:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a number")
        if not np.isfinite(value):
            raise ConfigError(f"[{self.name}] {key} must be finite")
        if minimum is not None:
            if exclusive_min and value <= minimum:
                raise ConfigError(f"[{self.name}] {key} must be > {minimum}")
            if not exclusive_min and value < minimum:
                raise ConfigError(f"[{self.name}] {key} must be >= {minimum}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"[{self.name}] {key} must be <= {maximum}")
        return value

    def get_choice(self, key, choices, default=None):
        raw = self._raw(key, None)
        if raw is None:
            if default is None:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            return default
        if raw not in choices:
            raise ConfigError(f"[{self.name}] {key} = {raw!r}; "
                              f"expected one of {tuple(choices)}")
        return raw

    def get_flag(self, key, default=None):
        raw = self._raw(key, None)
        if raw is None:
            if default is None:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            return default
        if raw not in ("on", "off"):
            raise ConfigError(f"[{self.name}] {key} = {raw!r}; expected on or off")
        return raw == "on"

    def get_str(self, key, default=None):
        return self._raw(key, default)

    def get_float_list(self, key):
        raw = self._raw(key, None)
        if raw is None:
            raise ConfigError(f"[{self.name}] missing required key {key!r}")
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"[{self.name}] {key} lists no values")
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a "
                              "comma-separated list of numbers")


def _read_sections(text):
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}")
    sections = {}
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]; "
                              f"expected {sorted(_SECTION_KEYS)}")
        items = dict(parser.items(name))
        stray = set(items) - _SECTION_KEYS[name]
        if stray:
            raise ConfigError(f"[{name}] has unknown keys: {sorted(stray)}")
        sections[name] = _Section(name, items)
    return sections


def _resolve_file(sec, key, base_dir):
    raw = sec.get_str(key)
    if raw is None:
        return None
    path = raw if os.path.isabs(raw) else os.path.join(base_dir, raw)
    path = os.path.abspath(path)
    if not os.path.isfile(path):
        raise ConfigError(f"[{sec.name}] {key} refers to a missing file: {path}")
    return path


def parse_config(text, base_dir=".", overrides=None):
    """Build a validated ExperimentConfig from the raw text.

    overrides maps [experiment] keys to raw values that replace the
    file's before anything is read from the section.
    """
    sections = _read_sections(text)
    if "experiment" not in sections:
        raise ConfigError("missing required section [experiment]")
    sections["experiment"].items.update(overrides or {})
    exp = sections["experiment"]
    version = exp.get_int("spec_version")
    if version != SPEC_VERSION:
        raise ConfigError(f"spec_version {version} unsupported; "
                          f"this build reads version {SPEC_VERSION}")
    scenario = exp.get_choice("scenario", SCENARIOS)
    master_seed = exp.get_int("seed", minimum=0)
    output_dir = exp.get_str("output_dir", "out")
    oracle = exp.get_flag("oracle", True)
    graph_derived, scenario_derived, init_seed = derive_component_seeds(master_seed)

    if "graph" not in sections:
        raise ConfigError("missing required section [graph]")
    gsec = sections["graph"]
    graph = GraphSettings(
        n_agents=gsec.get_int("n_agents", minimum=2),
        edge_prob=gsec.get_float("edge_prob", minimum=0.0, maximum=1.0),
        weight_method=gsec.get_choice("weight_method", _WEIGHT_METHODS,
                                      _WEIGHT_METHODS[0]),
        seed=gsec.get_int("seed", graph_derived, minimum=0))

    tsec = sections.get("trades", _Section("trades", {}))
    tracker = tsec.get_choice("tracker", TRACKER_MODES, TRACKER_MODES[0])
    try:
        trades = TradesConfig(
            gamma=tsec.get_float("gamma", 0.01),
            delta=tsec.get_float("delta", 0.5),
            stop_tol=tsec.get_float("stop_tol", 1e-10),
            max_iter=tsec.get_int("max_iter", 50000),
            trace_stride=tsec.get_int("trace_stride", 1),
            seed=init_seed)
    except ValueError as exc:
        raise ConfigError(f"[trades] {exc}")

    affine = voltage = None
    if scenario == "affine":
        if "voltage" in sections:
            raise ConfigError("scenario = affine forbids a [voltage] section")
        if "affine" not in sections:
            raise ConfigError("scenario = affine requires an [affine] section")
        asec = sections["affine"]
        game_file = _resolve_file(asec, "game_file", base_dir)
        if game_file is not None:
            stray = set(asec.items) - {"game_file"}
            if stray:
                raise ConfigError("[affine] game_file excludes the generator "
                                  f"keys, found {sorted(stray)}")
            affine = AffineSettings(game_file=game_file)
        else:
            halfwidth_raw = asec.get_str("box_halfwidth", "5.0")
            if halfwidth_raw == "none":
                halfwidth = None
            else:
                halfwidth = asec.get_float("box_halfwidth", 5.0,
                                           minimum=0.0, exclusive_min=True)
            affine = AffineSettings(
                strategy_dim=asec.get_int("strategy_dim", minimum=1),
                agg_dim=asec.get_int("agg_dim", minimum=1),
                coupling=asec.get_float("coupling", 0.3),
                box_halfwidth=halfwidth,
                seed=asec.get_int("seed", scenario_derived, minimum=0))
    else:
        if "affine" in sections:
            raise ConfigError("scenario = voltage forbids an [affine] section")
        if "voltage" not in sections:
            raise ConfigError("scenario = voltage requires a [voltage] section")
        vsec = sections["voltage"]
        agents_file = _resolve_file(vsec, "agents_file", base_dir)
        horizon = vsec.get_int("horizon", minimum=1)
        if agents_file is None and horizon < 10:
            raise ConfigError("[voltage] horizon must be >= 10 when agent "
                              "schedules are generated")
        voltage = VoltageSettings(
            n_buses=vsec.get_int("n_buses", minimum=2),
            horizon=horizon,
            power_base_kw=vsec.get_float("power_base_kw", DEFAULT_POWER_BASE_KW,
                                         minimum=0.0, exclusive_min=True),
            voltage_scale=vsec.get_float("voltage_scale", DEFAULT_VOLTAGE_SCALE,
                                         minimum=0.0, exclusive_min=True),
            penalty_weight=vsec.get_float("penalty_weight", 1.0,
                                          minimum=0.0, exclusive_min=True),
            active_weight=vsec.get_float("active_weight", 1.0,
                                         minimum=0.0, exclusive_min=True),
            reactive_weight=vsec.get_float("reactive_weight", 10.0,
                                           minimum=0.0, exclusive_min=True),
            seed=vsec.get_int("seed", scenario_derived, minimum=0),
            network_file=_resolve_file(vsec, "network_file", base_dir),
            prices_file=_resolve_file(vsec, "prices_file", base_dir),
            agents_file=agents_file)

    sweep = None
    if "sweep" in sections:
        ssec = sections["sweep"]
        gammas = ssec.get_float_list("gamma")
        deltas = ssec.get_float_list("delta")
        for g in gammas:
            if g <= 0:
                raise ConfigError("[sweep] gamma values must be positive")
        for dl in deltas:
            if not 0 < dl <= 1:
                raise ConfigError("[sweep] delta values must lie in (0, 1]")
        sweep = SweepSettings(gammas=gammas, deltas=deltas,
                              max_iter=ssec.get_int("max_iter", trades.max_iter,
                                                    minimum=1))

    return ExperimentConfig(scenario=scenario, seed=master_seed,
                            output_dir=output_dir, oracle=oracle,
                            graph=graph, trades=trades, tracker=tracker,
                            affine=affine, voltage=voltage, sweep=sweep)


def load_config(path, seed=None, output_dir=None, oracle=None):
    """Parse a config file, applying command-line overrides first.

    seed replaces the master seed before component seeds are derived;
    output_dir and oracle replace their [experiment] keys.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    overrides = {}
    if seed is not None:
        overrides["seed"] = str(int(seed))
    if output_dir is not None:
        overrides["output_dir"] = str(output_dir)
    if oracle is not None:
        overrides["oracle"] = oracle
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)),
                        overrides=overrides)


# ------------------------------------------------------------------- echo


def _fmt(value):
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return "none"
    return str(value)


def canonical_text(cfg):
    """Serialize with every derived value materialized.

    Parsing the result yields a config equal to cfg, so the echo file
    written next to run outputs is a complete, replayable record.
    """
    lines = [
        "[experiment]",
        f"spec_version = {SPEC_VERSION}",
        f"scenario = {cfg.scenario}",
        f"seed = {cfg.seed}",
        f"output_dir = {cfg.output_dir}",
        f"oracle = {_fmt(cfg.oracle)}",
        "",
        "[graph]",
        f"n_agents = {cfg.graph.n_agents}",
        f"edge_prob = {_fmt(cfg.graph.edge_prob)}",
        f"weight_method = {cfg.graph.weight_method}",
        f"seed = {cfg.graph.seed}",
        "",
        "[trades]",
        f"gamma = {_fmt(cfg.trades.gamma)}",
        f"delta = {_fmt(cfg.trades.delta)}",
        f"stop_tol = {_fmt(cfg.trades.stop_tol)}",
        f"max_iter = {cfg.trades.max_iter}",
        f"trace_stride = {cfg.trades.trace_stride}",
        f"tracker = {cfg.tracker}",
        "",
    ]
    if cfg.affine is not None:
        lines.append("[affine]")
        if cfg.affine.game_file is not None:
            lines.append(f"game_file = {cfg.affine.game_file}")
        else:
            lines += [
                f"strategy_dim = {cfg.affine.strategy_dim}",
                f"agg_dim = {cfg.affine.agg_dim}",
                f"coupling = {_fmt(cfg.affine.coupling)}",
                f"box_halfwidth = {_fmt(cfg.affine.box_halfwidth)}",
                f"seed = {cfg.affine.seed}",
            ]
        lines.append("")
    if cfg.voltage is not None:
        v = cfg.voltage
        lines += [
            "[voltage]",
            f"n_buses = {v.n_buses}",
            f"horizon = {v.horizon}",
            f"power_base_kw = {_fmt(v.power_base_kw)}",
            f"voltage_scale = {_fmt(v.voltage_scale)}",
            f"penalty_weight = {_fmt(v.penalty_weight)}",
            f"active_weight = {_fmt(v.active_weight)}",
            f"reactive_weight = {_fmt(v.reactive_weight)}",
        ]
        for key in ("network_file", "prices_file", "agents_file"):
            value = getattr(v, key)
            if value is not None:
                lines.append(f"{key} = {value}")
        lines += [f"seed = {v.seed}", ""]
    if cfg.sweep is not None:
        lines += [
            "[sweep]",
            "gamma = " + ",".join(repr(g) for g in cfg.sweep.gammas),
            "delta = " + ",".join(repr(d) for d in cfg.sweep.deltas),
            f"max_iter = {cfg.sweep.max_iter}",
            "",
        ]
    return "\n".join(lines)


# ------------------------------------------------- game file serialization


_GAME_HEADER = "quadratic-game v1"


def _matrix_lines(mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return [" ".join(repr(float(v)) for v in row) for row in mat]


def save_quadratic_game(game, path):
    """Write a quadratic game built by this package to a text file.

    The schema lists the agent count, aggregate dimension, and coupling
    once, then per agent the matrices of the quadratic cost, the
    contribution map, and the box bounds, one row per line with floats
    in repr form so a reload is bit-exact.
    """
    data = getattr(game, "quadratic_data", None)
    if data is None:
        raise ValueError("only games built by quadratic_aggregative_game "
                         "can be serialized")
    lines = [_GAME_HEADER,
             f"agents {game.N}",
             f"aggregate_dim {game.d}",
             f"coupling {repr(float(data['coupling']))}"]
    box = game.projector.box
    for i, (lower, upper) in enumerate(zip(box.lower.reshape(game.N, -1),
                                           box.upper.reshape(game.N, -1))):
        lines.append(f"agent {i}")
        lines.append(f"dim {game.m}")
        lines.append("Q")
        lines += _matrix_lines(data["quadratics"][i])
        lines.append("r")
        lines += _matrix_lines(data["linears"][i])
        lines.append("C")
        lines += _matrix_lines(data["couplers"][i])
        lines.append("G")
        lines += _matrix_lines(data["aggregators"][i])
        lines.append("lower")
        lines += _matrix_lines(lower)
        lines.append("upper")
        lines += _matrix_lines(upper)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class _LineReader:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next(self):
        if self.pos >= len(self.lines):
            raise ConfigError("game file ends early")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, token):
        line = self.next()
        if line != token:
            raise ConfigError(f"game file: expected {token!r}, found {line!r}")

    def tagged_int(self, tag):
        line = self.next()
        parts = line.split()
        if len(parts) != 2 or parts[0] != tag:
            raise ConfigError(f"game file: expected '{tag} <int>', found {line!r}")
        try:
            return int(parts[1])
        except ValueError:
            raise ConfigError(f"game file: {tag} value {parts[1]!r} is not an integer")

    def matrix(self, rows, cols):
        out = np.empty((rows, cols))
        for k in range(rows):
            parts = self.next().split()
            if len(parts) != cols:
                raise ConfigError(f"game file: row with {len(parts)} values, "
                                  f"expected {cols}")
            try:
                out[k] = [float(p) for p in parts]
            except ValueError:
                raise ConfigError("game file: non-numeric matrix entry")
        return out


def load_quadratic_game(path):
    """Rebuild a game from :func:`save_quadratic_game` output."""
    try:
        with open(path) as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read game file {path}: {exc}")
    reader = _LineReader(lines)
    reader.expect(_GAME_HEADER)
    n_agents = reader.tagged_int("agents")
    if n_agents < 1:
        raise ConfigError("game file: agent count must be positive")
    d = reader.tagged_int("aggregate_dim")
    if d < 1:
        raise ConfigError(f"game file: aggregate_dim {d} must be positive")
    line = reader.next()
    parts = line.split()
    if len(parts) != 2 or parts[0] != "coupling":
        raise ConfigError(f"game file: expected 'coupling <float>', found {line!r}")
    try:
        coupling = float(parts[1])
    except ValueError:
        raise ConfigError("game file: coupling value is not a number")
    qs, rs, cs, gs, boxes = [], [], [], [], []
    for i in range(n_agents):
        if reader.tagged_int("agent") != i:
            raise ConfigError("game file: agents must appear in order")
        n_i = reader.tagged_int("dim")
        if n_i < 1:
            raise ConfigError(f"game file: agent {i} has dim {n_i}; "
                              "it must be positive")
        if qs and n_i != qs[0].shape[0]:
            raise ConfigError(f"game file: agent {i} has dim {n_i}, agent 0 "
                              f"has {qs[0].shape[0]}; all agents must share "
                              "one strategy dimension")
        reader.expect("Q")
        qs.append(reader.matrix(n_i, n_i))
        reader.expect("r")
        rs.append(reader.matrix(1, n_i).ravel())
        reader.expect("C")
        cs.append(reader.matrix(n_i, d))
        reader.expect("G")
        gs.append(reader.matrix(d, n_i))
        reader.expect("lower")
        lower = reader.matrix(1, n_i).ravel()
        reader.expect("upper")
        upper = reader.matrix(1, n_i).ravel()
        boxes.append((lower, upper))
    if reader.pos != len(lines):
        raise ConfigError("game file: trailing content after the last agent")
    try:
        return quadratic_aggregative_game(qs, rs, coupling, cs, gs, boxes)
    except ValueError as exc:
        raise ConfigError(f"game file: {exc}")
