"""Voltage-support case study on a radial distribution feeder.

A synthetic low-voltage feeder stands in for real network data: a
seeded random tree with per-line impedances, a daily baseline load
shape, and a population of electric-vehicle charging agents attached to
its buses.  The linearized branch-flow model turns power injections
into bus-voltage deviations through the classic common-path resistance
sums; those sensitivities define each agent's contribution map in an
aggregative game whose aggregate is the (scaled) voltage deviation
profile across all buses and hours.

Unit conventions, since the literature leaves them implicit:

- voltages are per-unit, 1.0 at the substation with no load;
- injections are kW / kvar, positive meaning generation; charging draws
  therefore carry negative active power;
- sensitivity matrices are divided by ``power_base_kw`` so a kW-scale
  injection moves voltages on the per-unit scale;
- the game measures the aggregate in units of ``voltage_scale`` per
  unit (so voltage_scale = 100 would mean percent).  The scale is a
  recorded config field; evaluate_voltages undoes it.

File formats (documented here because they are the public interface):
network CSV with header ``bus,parent,r,x,baseline_p`` (root row has
parent -1 and zero impedance), price CSV with header ``hour,price``,
agent CSV with header ``bus,b_ch,s_max,a_ch`` where a_ch is a 0/1
string of length T.  Every float field must be finite.
"""

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSpec
from .games import GameDefinition
from .projections import _charger_specs, build_ev_projector

DEFAULT_POWER_BASE_KW = 1000.0
DEFAULT_VOLTAGE_SCALE = 2400.0
DEFAULT_INVERTER_KVA = 7.0
RECHARGE_TARGET_MAX_KWH = 40.0


# ------------------------------------------------------------ the network


@dataclass
class RadialNetwork:
    """Tree-shaped feeder; bus 0 is the substation root.

    parent[k] is the upstream bus of k (parent[0] = -1); line k connects
    bus k to parent[k] with resistance line_r[k] and reactance line_x[k]
    in per unit (entries at index 0 are unused and zero).  baseline_p
    holds each bus's nominal demand in kW, zero at the root.
    """

    parent: np.ndarray
    line_r: np.ndarray
    line_x: np.ndarray
    baseline_p: np.ndarray = None

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=int)
        n = self.parent.size
        self.line_r = np.asarray(self.line_r, dtype=float).reshape(-1)
        self.line_x = np.asarray(self.line_x, dtype=float).reshape(-1)
        if self.baseline_p is None:
            self.baseline_p = np.zeros(n)
        self.baseline_p = np.asarray(self.baseline_p, dtype=float).reshape(-1)
        if not (self.line_r.size == self.line_x.size
                == self.baseline_p.size == n):
            raise ValueError("per-bus arrays disagree on the bus count")
        if n < 2:
            raise ValueError("need at least two buses")
        if self.parent[0] != -1:
            raise ValueError("bus 0 must be the root (parent -1)")
        for k in range(1, n):
            if not 0 <= self.parent[k] < k:
                # topological order doubles as the acyclicity proof
                raise ValueError(
                    f"parent of bus {k} must be an earlier bus, "
                    f"got {self.parent[k]}")
        if np.any(self.line_r[1:] <= 0) or np.any(self.line_x[1:] <= 0):
            raise ValueError("line impedances must be positive")

    @property
    def n_buses(self):
        return self.parent.size

    def path_matrix(self):
        """Boolean (bus, line) incidence: row b marks lines on root->b."""
        n = self.n_buses
        m = np.zeros((n, n), dtype=bool)
        for b in range(1, n):
            k = b
            while k != 0:
                m[b, k] = True
                k = self.parent[k]
        return m


def build_radial_network(n_buses, seed):
    """Seeded random feeder: uniform attachment tree, log-uniform lines.

    Impedances are drawn from [0.001, 0.05] p.u.; baseline demands from
    [10, 50] kW per non-root bus.  All draws happen in a fixed order so
    a seed pins the network bitwise.
    """
    n = int(n_buses)
    if n < 2:
        raise ValueError("need at least two buses")
    rng = np.random.default_rng(seed)
    parent = np.full(n, -1, dtype=int)
    for k in range(1, n):
        parent[k] = int(rng.integers(0, k))
    lo, hi = math.log10(0.001), math.log10(0.05)
    line_r = np.concatenate([[0.0], 10.0 ** rng.uniform(lo, hi, size=n - 1)])
    line_x = np.concatenate([[0.0], 10.0 ** rng.uniform(lo, hi, size=n - 1)])
    baseline = np.concatenate([[0.0], rng.uniform(10.0, 50.0, size=n - 1)])
    return RadialNetwork(parent=parent, line_r=line_r, line_x=line_x,
                         baseline_p=baseline)


def _write_atomic(path, text):
    """Write text to a sibling temporary file, then rename it onto path.

    If the write or the rename fails, the temporary is removed and path
    keeps its old bytes.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _integer(field, name, where):
    """One integer field of a data file row."""
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"{where}: {name} = {field!r} is not an integer") from None


def _finite(field, name, where):
    """One float field of a data file row; nan and inf are rejected."""
    try:
        value = float(field)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{where}: {name} = {field!r} is not finite")
    return value


def _rows(path, header, what):
    """(where, fields) of each row of a data file whose first line is header;
    every row has the header's field count, and where names file and row."""
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows or rows[0] != header:
        raise ValueError(f"{what} file must start with the documented header")
    width = header.count(",") + 1
    for k, row in enumerate(rows[1:], 1):
        fields, where = row.split(","), f"{what} file row {k}"
        if len(fields) != width:
            raise ValueError(f"{where}: expected {width} fields, got {len(fields)}")
        yield where, fields


def save_network(net, path):
    lines = ["bus,parent,r,x,baseline_p"]
    for b in range(net.n_buses):
        lines.append(f"{b},{int(net.parent[b])},{float(net.line_r[b])!r},"
                     f"{float(net.line_x[b])!r},{float(net.baseline_p[b])!r}")
    _write_atomic(path, "\n".join(lines) + "\n")


def load_network(path):
    parent, r, x, base = [], [], [], []
    for k, (where, fields) in enumerate(
            _rows(path, "bus,parent,r,x,baseline_p", "network")):
        if _integer(fields[0], "bus", where) != k:
            raise ValueError(f"{where}: buses must be listed in order")
        parent.append(_integer(fields[1], "parent", where))
        r.append(_finite(fields[2], "r", where))
        x.append(_finite(fields[3], "x", where))
        base.append(_finite(fields[4], "baseline_p", where))
    return RadialNetwork(parent=parent, line_r=r, line_x=x, baseline_p=base)


# ------------------------------------------------- sensitivities and loads


@dataclass
class DistFlowModel:
    """Linearized branch-flow voltage model.

    Rmat and Xmat map kW / kvar injection vectors to per-unit voltage
    changes (the common-path impedance sums divided by power_base_kw);
    v0 is the baseline voltage trajectory, bus-major of length
    n_buses * horizon, computed from the baseline demand at unit power
    factor.
    """

    Rmat: np.ndarray
    Xmat: np.ndarray
    v0: np.ndarray
    power_base_kw: float
    horizon: int

    @property
    def n_buses(self):
        return self.Rmat.shape[0]

    @property
    def dim(self):
        return self.n_buses * self.horizon


def gen_baseline_profile(net, horizon, seed):
    """Hourly demand matrix (n_buses, horizon) in kW.

    Scales each bus's nominal demand by a smooth daily shape with an
    evening peak and a small morning shoulder, plus a seeded per-bus
    amplitude jitter.  Row 0 (the substation) stays zero.
    """
    t = np.arange(int(horizon)) + 0.5
    shape = (0.65 + 0.25 * np.sin(2 * np.pi * (t - 13.0) / 24.0)
             + 0.10 * np.sin(4 * np.pi * (t - 7.0) / 24.0))
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(0.9, 1.1, size=net.n_buses)
    load = np.outer(net.baseline_p * jitter, shape)
    load[0, :] = 0.0
    return load


def distflow_sensitivities(net, baseline_load,
                           power_base_kw=DEFAULT_POWER_BASE_KW):
    """Common-path sensitivity matrices plus the baseline voltage.

    baseline_load is a (n_buses, horizon) kW demand matrix; demand is a
    negative injection, so v0 = 1 - Rmat @ load columnwise.
    """
    baseline_load = np.asarray(baseline_load, dtype=float)
    if baseline_load.ndim != 2 or baseline_load.shape[0] != net.n_buses:
        raise ValueError("baseline load must be (n_buses, horizon)")
    if not power_base_kw > 0:
        raise ValueError("power base must be positive")
    m = net.path_matrix().astype(float)
    rmat = 2.0 * (m * net.line_r[None, :]) @ m.T / power_base_kw
    xmat = 2.0 * (m * net.line_x[None, :]) @ m.T / power_base_kw
    v0 = 1.0 - rmat @ baseline_load
    return DistFlowModel(Rmat=rmat, Xmat=xmat, v0=v0.ravel(),
                         power_base_kw=float(power_base_kw),
                         horizon=baseline_load.shape[1])


def gen_prices(horizon, seed):
    """Smooth positive daily price curve with two peaks, per kWh."""
    t = np.arange(int(horizon)) + 0.5
    rng = np.random.default_rng(seed)
    pi = (0.10 + 0.03 * np.sin(2 * np.pi * (t - 5.0) / 24.0)
          + 0.02 * np.sin(4 * np.pi * (t - 13.0) / 24.0)
          + 0.005 * rng.uniform(-1.0, 1.0, size=t.size))
    return np.maximum(pi, 0.01)


def save_prices(prices, path):
    lines = ["hour,price"]
    lines += [f"{h},{float(p)!r}" for h, p in enumerate(prices)]
    _write_atomic(path, "\n".join(lines) + "\n")


def load_prices(path):
    prices = []
    for h, (where, fields) in enumerate(_rows(path, "hour,price", "price")):
        if _integer(fields[0], "hour", where) != h:
            raise ValueError(f"{where}: expected hour {h} and a price, "
                             f"got {','.join(fields)!r}")
        prices.append(_finite(fields[1], "price", where))
    return np.asarray(prices)


# ------------------------------------------------------------- the agents


@dataclass
class EvAgentSpec:
    """One charging agent: bus, plug-in window, energy need, capacity."""

    bus: int
    plugged: np.ndarray
    target_energy: float
    s_max: float = DEFAULT_INVERTER_KVA

    def __post_init__(self):
        self.plugged = np.asarray(self.plugged)
        if not np.all((self.plugged == 0) | (self.plugged == 1)):
            raise ValueError("plug-in profile must be binary")
        self.plugged = self.plugged.astype(bool)
        # the feasible set's own checks: target >= 0, within the cap
        _charger_specs(self.plugged, self.target_energy, self.s_max)

    @property
    def horizon(self):
        return self.plugged.size


def gen_agents(n_agents, net, horizon, seed):
    """Seeded agent population.

    Buses are sampled proportionally to the network's baseline demand
    (the substation, with zero demand, is never drawn).  Plug-in windows
    are overnight biased: arrival between 17h and 22h, departure between
    6h and 9h the next morning.  Recharge targets are uniform on
    (0, 40] kWh, clipped to what the window delivers at DEFAULT_INVERTER_KVA.
    """
    if int(horizon) < 10:
        raise ValueError("overnight windows need a horizon of at least 10 hours")
    weights = np.asarray(net.baseline_p, dtype=float)
    total = weights.sum()
    if not total > 0:
        raise ValueError("baseline demand must be positive somewhere")
    rng = np.random.default_rng(seed)
    agents = []
    for _ in range(int(n_agents)):
        bus = int(rng.choice(net.n_buses, p=weights / total))
        arrival = int(rng.integers(17, 23))
        departure = int(rng.integers(6, 10))
        plugged = np.zeros(int(horizon), dtype=bool)
        plugged[arrival:] = True
        plugged[:departure] = True
        target = float(rng.uniform(0.0, RECHARGE_TARGET_MAX_KWH))
        target = min(target, DEFAULT_INVERTER_KVA * int(plugged.sum()))
        agents.append(EvAgentSpec(bus=bus, plugged=plugged,
                                  target_energy=target))
    return agents


def save_agents(agents, path):
    lines = ["bus,b_ch,s_max,a_ch"]
    for a in agents:
        bits = "".join("1" if v else "0" for v in a.plugged)
        lines.append(f"{int(a.bus)},{float(a.target_energy)!r},"
                     f"{float(a.s_max)!r},{bits}")
    _write_atomic(path, "\n".join(lines) + "\n")


def load_agents(path):
    agents = []
    for where, fields in _rows(path, "bus,b_ch,s_max,a_ch", "agent"):
        bits = fields[3]
        if set(bits) - {"0", "1"}:
            raise ValueError(f"{where}: plug-in profile must be 0/1")
        bus = _integer(fields[0], "bus", where)
        target = _finite(fields[1], "b_ch", where)
        s_max = _finite(fields[2], "s_max", where)
        try:
            agents.append(EvAgentSpec(bus=bus, plugged=[c == "1" for c in bits],
                                      target_energy=target, s_max=s_max))
        except (ValueError, InfeasibleSpec) as err:
            raise type(err)(f"{where}: {err}") from None
    return agents


# ------------------------------------------------------------- the game


@dataclass
class VoltageGameConfig:
    """Cost weights and references for the voltage-support game.

    penalty_weight weighs the squared aggregate voltage deviation
    (dimension n_buses * horizon); active_weight and reactive_weight
    weigh each agent's squared active and reactive injections.
    reference is the deviation target in scaled units; voltage_scale
    records the unit change between per-unit volts and the aggregate.
    """

    prices: np.ndarray
    reference: np.ndarray
    penalty_weight: float
    active_weight: float
    reactive_weight: float
    voltage_scale: float = DEFAULT_VOLTAGE_SCALE

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=float).reshape(-1)
        self.reference = np.asarray(self.reference, dtype=float).reshape(-1)
        for name in ("penalty_weight", "active_weight", "reactive_weight",
                     "voltage_scale"):
            value = float(getattr(self, name))
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
            setattr(self, name, value)

    @property
    def horizon(self):
        return self.prices.size


def default_voltage_config(model, prices,
                           voltage_scale=DEFAULT_VOLTAGE_SCALE,
                           penalty_weight=1.0, active_weight=1.0,
                           reactive_weight=10.0):
    """Reference configuration: the given weights, support target.

    The deviation target asks every bus to sit at 1 p.u., expressed in
    scaled units as voltage_scale * (1 - v0).
    """
    prices = np.asarray(prices, dtype=float).reshape(-1)
    if prices.size != model.horizon:
        raise ValueError("price horizon does not match the model")
    return VoltageGameConfig(
        prices=prices,
        reference=float(voltage_scale) * (1.0 - model.v0),
        penalty_weight=penalty_weight, active_weight=active_weight,
        reactive_weight=reactive_weight, voltage_scale=voltage_scale)


def _contribution_matrix(model, buses, n_agents, voltage_scale):
    """Contribution factors N * vscale * [rho xi] of the agents at `buses`,
    (len(buses), n_buses, 2); the contribution map is the factor (x) I_T."""
    cols = np.stack([model.Rmat[:, buses], model.Xmat[:, buses]], axis=2)
    return n_agents * voltage_scale * cols.transpose(1, 0, 2)


def build_voltage_game(model, agents, cfg):
    """Assemble the voltage-support aggregative game.

    Agent i pays -pi'p_i + h ||sigma - reference||^2
    + a ||p_i||^2 + r ||q_i||^2 with h, a, r the config's penalty,
    active and reactive weights.  Its contribution factor G_i carries
    the population factor N, so the average aggregate equals the scaled
    total voltage deviation.  The search direction has the factors

        B_i = 2 diag(a, r),   E_i = 2 h G_i' / N,
        c_i = -(pi, 0) - (E_i (x) I_T) reference.
    """
    agents = list(agents)
    n_agents = len(agents)
    if n_agents == 0:
        raise ValueError("need at least one agent")
    t = model.horizon
    if cfg.horizon != t:
        raise ValueError(f"config horizon {cfg.horizon} != model horizon {t}")
    if cfg.reference.size != model.dim:
        raise ValueError("config reference does not match the model dimension")
    for spec in agents:
        if not 0 <= spec.bus < model.n_buses:
            raise ValueError(f"agent bus {spec.bus} outside the network")
        if spec.horizon != t:
            raise ValueError("agent plug-in horizon does not match the model")
    projector = build_ev_projector(
        np.stack([spec.plugged for spec in agents]),
        [spec.target_energy for spec in agents],
        [spec.s_max for spec in agents])
    g = _contribution_matrix(model, [spec.bus for spec in agents], n_agents,
                             cfg.voltage_scale)
    e = (2.0 / n_agents) * (g.transpose(0, 2, 1) * cfg.penalty_weight)
    weights = np.diag([cfg.active_weight, cfg.reactive_weight])
    b = np.repeat(2.0 * weights[None], n_agents, axis=0)
    price = np.stack([cfg.prices, np.zeros(t)])
    c = -price - e @ cfg.reference.reshape(model.n_buses, t)
    return GameDefinition(b, e, c, g, projector)


# ------------------------------------------------------------- evaluation


@dataclass
class VoltageSummary:
    """Bus voltages (p.u., bus-major over the horizon) and scores."""

    voltages: np.ndarray
    deviation_score: float = None
    base_score: float = None


def evaluate_voltages(model, agents, x, cfg=None):
    """Apply every agent's injections to the linear voltage model.

    x is the (N, 2 horizon) strategy array of the agents in the order of
    ``agents``, or its stacked vector; the voltage at bus b and hour tau
    lands at index b * horizon + tau.  With a config the deviation score
    penalty_weight * ||sigma - reference||^2 is attached, together with
    the do-nothing score for comparison.
    """
    agents = list(agents)
    t = model.horizon
    n, m = len(agents), 2 * t
    x = np.asarray(x, dtype=float)
    if x.shape not in ((n * m,), (n, m)):
        raise ValueError(f"strategies have shape {x.shape}, expected "
                         f"({n * m},) or ({n}, {m})")
    x = x.reshape(n, m)
    buses = [spec.bus for spec in agents]
    v = (model.v0.reshape(model.n_buses, t) + model.Rmat[:, buses] @ x[:, :t]
         + model.Xmat[:, buses] @ x[:, t:])
    voltages = v.ravel()
    if cfg is None:
        return VoltageSummary(voltages=voltages)
    sigma = cfg.voltage_scale * (voltages - model.v0)
    dev = sigma - cfg.reference
    score = float((cfg.penalty_weight * dev) @ dev)
    base = float((cfg.penalty_weight * cfg.reference) @ cfg.reference)
    return VoltageSummary(voltages=voltages, deviation_score=score,
                          base_score=base)
