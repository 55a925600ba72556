"""Electrical simulation of an unpowered UUT behind probe contacts.

The model is a star topology: every pad connects through its own circuit
(ESD diode pair, series diode, LED, resistor, or nothing) to the VCC and/or
GND rails.  Rails terminate to tester ground through configurable path
resistances; a path resistance of zero pins the rail at 0 V.  Stimuli are
applied per pad, through that pad's needle contact resistance.

All solves are damped Newton-Raphson with analytic derivatives and are
fully deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Union

import numpy as np

from .errors import NoPathToRail, NonConvergence, NotPoweredModel, UnknownPad

# Open contacts are carried as a finite huge resistance so the Newton system
# never goes singular; the open/closed decision itself uses open_threshold.
OPEN_CONTACT_OHMS = 1e12

KCL_TOLERANCE_AMPS = 1e-9
MAX_NEWTON_ITERATIONS = 200

# Per-junction leak keeping reverse-biased / floating nodes well conditioned.
# Contributes < 1e-11 A at every node, far below the KCL tolerance.
_GMIN = 1e-12

# Exponent cap for the diode law; beyond it the law continues linearly in the
# exponent so evaluations stay finite while the solver walks back.
_EXP_CAP = 80.0


@dataclass(frozen=True, slots=True)
class DiodeModel:
    """Shockley diode with ideality factor and optional series resistance."""

    saturation_current: float
    ideality: float = 1.0
    thermal_voltage: float = 0.02585
    series_resistance: float = 0.0

    leak = _GMIN  # conductance in parallel with the junction

    def __post_init__(self):
        if not 0.0 < self.saturation_current < math.inf:
            raise ValueError("saturation_current must be finite and > 0")
        if not 1.0 <= self.ideality < math.inf:
            raise ValueError("ideality must be finite and >= 1")
        if not 0.0 < self.thermal_voltage < math.inf:
            raise ValueError("thermal_voltage must be finite and > 0")
        if not 0.0 <= self.series_resistance < math.inf:
            raise ValueError("series_resistance must be finite and >= 0")

    @property
    def nvt(self) -> float:
        return self.ideality * self.thermal_voltage

    def _junction_current(self, vd: float) -> float:
        x = vd / self.nvt
        if x > _EXP_CAP:
            return self.saturation_current * (math.exp(_EXP_CAP) * (1.0 + x - _EXP_CAP) - 1.0)
        return self.saturation_current * math.expm1(x)

    def _junction_conductance(self, vd: float) -> float:
        x = vd / self.nvt
        if x > _EXP_CAP:
            return self.saturation_current * math.exp(_EXP_CAP) / self.nvt
        return self.saturation_current * math.exp(x) / self.nvt

    def _solve_junction(self, v: float) -> float:
        """Junction voltage for a given port voltage when series_resistance > 0."""
        rs = self.series_resistance
        vd = v
        f = 0.0
        for _ in range(200):
            i = self._junction_current(vd)
            f = i - (v - vd) / rs
            if abs(f) <= 1e-12 * max(1.0, abs(i)):
                return vd
            fp = self._junction_conductance(vd) + 1.0 / rs
            vd -= f / fp
        return vd

    def current(self, v: float) -> float:
        """Port current for port voltage v.  current(0) == 0 exactly."""
        if v == 0.0:
            return 0.0
        if self.series_resistance == 0.0:
            return self._junction_current(v)
        return self._junction_current(self._solve_junction(v))

    def conductance(self, v: float) -> float:
        """d(current)/d(v) at port voltage v; always > 0."""
        if self.series_resistance == 0.0:
            return self._junction_conductance(v)
        gd = self._junction_conductance(self._solve_junction(v))
        return gd / (1.0 + gd * self.series_resistance)


# Each pad kind describes its wiring as a branch table: one
# (law, rail, polarity) entry per element between the pad and a rail.  The
# law gives current(v), conductance(v), its parallel leak and the nvt that
# bounds a Newton step; polarity +1 conducts pad -> rail, -1 rail -> pad.


@dataclass(frozen=True, slots=True)
class EsdPair:
    """ESD clamp structure: pad->VCC diode and GND->pad diode."""

    to_vcc: DiodeModel
    to_gnd: DiodeModel

    @property
    def branches(self) -> tuple:
        return ((self.to_vcc, "VCC", 1), (self.to_gnd, "GND", -1))


@dataclass(frozen=True, slots=True)
class SeriesDiode:
    """Single diode between pad and GND.  polarity +1 conducts pad->GND."""

    diode: DiodeModel
    polarity: int = 1

    def __post_init__(self):
        if self.polarity not in (1, -1):
            raise ValueError("polarity must be +1 or -1")

    @property
    def branches(self) -> tuple:
        return ((self.diode, "GND", self.polarity),)


@dataclass(frozen=True, slots=True)
class Led:
    """Indicator LED between pad and GND, forward pad->GND, with a color tag."""

    diode: DiodeModel
    color_tag: str = ""

    @property
    def branches(self) -> tuple:
        return ((self.diode, "GND", 1),)


@dataclass(frozen=True, slots=True)
class Resistive:
    """Resistor between pad and GND; its own linear law, with no leak."""

    ohms: float

    leak = 0.0
    nvt = math.inf  # a linear law needs no Newton step clamp

    def __post_init__(self):
        if not 0.0 < self.ohms < math.inf:
            raise ValueError("ohms must be finite and > 0")

    @property
    def branches(self) -> tuple:
        return ((self, "GND", 1),)

    def current(self, v: float) -> float:
        return v * (1.0 / self.ohms)

    def conductance(self, v: float) -> float:
        return 1.0 / self.ohms


@dataclass(frozen=True, slots=True)
class OpenPad:
    branches = ()


PadKind = Union[EsdPair, SeriesDiode, Led, Resistive, OpenPad]


@dataclass(frozen=True, slots=True)
class PadCircuit:
    kind: PadKind
    shunt_capacitance: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.shunt_capacitance < math.inf:
            raise ValueError("shunt_capacitance must be finite and >= 0")

    def rails(self) -> frozenset:
        """Which rails this pad has a conductive element to."""
        return frozenset(rail for _, rail, _ in self.kind.branches)


@dataclass(frozen=True, slots=True)
class UutModel:
    """Star-topology UUT: pads to rails, rails to tester ground.

    A rail path resistance of 0 pins that rail at ground; a positive value
    emulates the supply absorption / sense path the rail voltage develops
    across.  consumption_map is required when powered (volts -> amperes,
    nondecreasing, piecewise linear, clamped at the end knots).
    """

    pads: tuple  # of (pad_id, PadCircuit)
    vcc_path_ohms: float = 25.0
    gnd_path_ohms: float = 0.0
    powered: bool = False
    consumption_map: Optional[tuple] = None  # of (volts, amperes)

    def __post_init__(self):
        ids = [pid for pid, _ in self.pads]
        if len(set(ids)) != len(ids):
            raise ValueError("pad ids must be unique")
        if not (0.0 <= self.vcc_path_ohms < math.inf and 0.0 <= self.gnd_path_ohms < math.inf):
            raise ValueError("rail path resistances must be finite and >= 0")
        if self.powered and self.consumption_map is None:
            raise ValueError("powered model requires a consumption_map")
        if self.consumption_map is not None:
            if len(self.consumption_map) < 1:
                raise ValueError("consumption_map must have at least one knot")
            vs = [v for v, _ in self.consumption_map]
            cs = [c for _, c in self.consumption_map]
            if not all(map(math.isfinite, vs + cs)):
                raise ValueError("consumption_map knots must be finite")
            if any(b <= a for a, b in zip(vs, vs[1:])):
                raise ValueError("consumption_map knots must be strictly increasing in volts")
            if any(b < a for a, b in zip(cs, cs[1:])):
                raise ValueError("consumption_map must be nondecreasing")

    def pad_map(self) -> dict:
        return dict(self.pads)

    def pad(self, pad_id: str) -> PadCircuit:
        try:
            return self.pad_map()[pad_id]
        except KeyError:
            raise UnknownPad(f"no such pad: {pad_id!r}") from None


@dataclass(frozen=True, slots=True)
class ContactState:
    """One needle's contact condition.  Open means resistance >= open_threshold."""

    resistance: float
    cycles: int = 0
    wear_rate: float = 0.0
    open_threshold: float = 1e6

    def __post_init__(self):
        if not 0.0 <= self.resistance < math.inf:
            raise ValueError("resistance must be finite and >= 0")
        if not 0.0 <= self.wear_rate < math.inf:
            raise ValueError("wear_rate must be finite and >= 0")
        if not 0.0 < self.open_threshold < math.inf:
            raise ValueError("open_threshold must be finite and > 0")

    @property
    def is_open(self) -> bool:
        return self.resistance >= self.open_threshold

    @property
    def effective_ohms(self) -> float:
        return OPEN_CONTACT_OHMS if self.is_open else self.resistance


GOOD_CONTACT = ContactState(resistance=0.0)


def wear_step(contact: ContactState, cycles: int) -> ContactState:
    """Accumulate probing cycles: resistance grows by wear_rate per cycle."""
    if cycles < 0:
        raise ValueError("cycles must be >= 0")
    return replace(
        contact,
        resistance=contact.resistance + contact.wear_rate * cycles,
        cycles=contact.cycles + cycles,
    )


@dataclass(frozen=True, slots=True)
class Stimulus:
    """One pad's applied stimulus.  source_ohms is the driver's internal
    output resistance and only applies in voltage mode."""

    mode: str  # "current" | "voltage"
    level: float
    source_ohms: float = 0.0

    def __post_init__(self):
        if self.mode not in ("current", "voltage"):
            raise ValueError("mode must be 'current' or 'voltage'")
        if not math.isfinite(self.level):
            raise ValueError("stimulus level must be finite")
        if not 0.0 <= self.source_ohms < math.inf:
            raise ValueError("source_ohms must be finite and >= 0")


@dataclass(frozen=True, slots=True)
class PadReading:
    """Per-pad operating point.

    volts is the needle-side (meter) voltage, amperes the current actually
    delivered through the contact, pad_volts the UUT-side node voltage.
    """

    volts: float
    amperes: float
    pad_volts: float


@dataclass(frozen=True, slots=True)
class SolveResult:
    pads: Mapping[str, PadReading]
    vcc_volts: float
    gnd_volts: float
    iterations: int
    residual: float

    def __getitem__(self, pad_id: str) -> PadReading:
        return self.pads[pad_id]


@dataclass(frozen=True, slots=True)
class Bench:
    """A UUT mounted in the fixture: the model plus per-needle contacts."""

    uut: UutModel
    contacts: Mapping[str, ContactState] = field(default_factory=dict)

    def contact(self, pad_id: str) -> ContactState:
        return self.contacts.get(pad_id, GOOD_CONTACT)


def _drive_ohms(stim: Stimulus, contact: ContactState) -> float:
    """Series resistance of a voltage drive: source plus contact, with an
    ideal source through an ideal contact carried as 1 nOhm."""
    r = stim.source_ohms + contact.effective_ohms
    return r if r != 0.0 else 1e-9


def _meter(vp: float, stim: Optional[Stimulus], contact: ContactState) -> PadReading:
    """What the needle-side meter reads for a pad node at vp."""
    if stim is None:
        # Floating needle: the meter reads the pad through the contact
        # (no current, no drop); an open contact reads nothing.
        volts = 0.0 if contact.is_open else vp
        return PadReading(volts=volts, amperes=0.0, pad_volts=vp)
    if stim.mode == "current":
        if contact.is_open:
            return PadReading(volts=vp, amperes=0.0, pad_volts=vp)
        return PadReading(
            volts=vp + stim.level * contact.resistance,
            amperes=stim.level,
            pad_volts=vp,
        )
    i = (stim.level - vp) / _drive_ohms(stim, contact)
    return PadReading(
        volts=stim.level - i * stim.source_ohms,
        amperes=i,
        pad_volts=vp,
    )


def _solve_network(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    stimuli: Mapping[str, Stimulus],
    companions: Mapping[str, tuple],
) -> SolveResult:
    """Newton solve of the star network.  companions maps a pad id to the
    implicit Euler model (conductance, history current) of its capacitance.

    Nodes 0..n-1 are the pads, then each rail with a path resistance.  A
    rail without one is tied to the datum node, which comes last and whose
    equation is dropped, so it stays at 0 V.
    """
    ids = [pid for pid, _ in uut.pads]
    known = set(ids)
    for pid in stimuli:
        if pid not in known:
            raise UnknownPad(f"no such pad: {pid!r}")

    n = len(ids)
    rail_node = {}
    terminations = []  # (rail node, path conductance)
    for rail, ohms in (("VCC", uut.vcc_path_ohms), ("GND", uut.gnd_path_ohms)):
        if ohms > 0.0:
            rail_node[rail] = n + len(terminations)
            terminations.append((rail_node[rail], 1.0 / ohms))
    size = n + len(terminations)
    datum = size
    branches = [
        (i, law, rail_node.get(rail, datum), s)
        for i, (_, pc) in enumerate(uut.pads)
        for law, rail, s in pc.kind.branches
    ]
    caps = [(i, *companions[pid]) for i, pid in enumerate(ids) if pid in companions]
    drives = [
        (i, stimuli[pid], contacts.get(pid, GOOD_CONTACT))
        for i, pid in enumerate(ids)
        if pid in stimuli
    ]
    # Per-iteration voltage step clamp tames the diode exponential.
    dv_clamp = 0.5 * min((law.nvt for _, law, _, _ in branches), default=math.inf)

    x = np.zeros(size)
    residual = math.inf
    for iteration in range(MAX_NEWTON_ITERATIONS + 1):
        xs = x.tolist() + [0.0]  # node voltages, the datum last
        F = [0.0] * (size + 1)
        diag = [0.0] * (size + 1)  # of the Jacobian J
        J = np.zeros((size, size))
        for r, g in terminations:
            F[r] += xs[r] * g
            diag[r] += g
        # Each branch carries i = s*(law(v) + leak*v) at v = s*(vp - vr) from
        # the pad into its rail.
        for i, law, r, s in branches:
            v = s * (xs[i] - xs[r])
            current = s * (law.current(v) + law.leak * v)
            g = law.conductance(v) + law.leak
            F[i] += current
            F[r] -= current
            diag[i] += g
            diag[r] += g
            if r != datum:
                J[i, r] -= g
                J[r, i] -= g
        for i in range(n):
            F[i] += _GMIN * xs[i]
            diag[i] += _GMIN
        for i, g, history in caps:
            F[i] += g * xs[i] - history
            diag[i] += g
        for i, stim, contact in drives:
            if stim.mode == "current":
                # Ideal current source in series with the contact delivers
                # the full level; an open contact delivers nothing.
                if not contact.is_open:
                    F[i] -= stim.level
            else:
                g = 1.0 / _drive_ohms(stim, contact)
                F[i] -= (stim.level - xs[i]) * g
                diag[i] += g
        # The datum equation is dropped.
        J.flat[:: size + 1] = diag[:size]
        F = np.array(F[:size])

        residual = float(np.max(np.abs(F))) if size else 0.0
        if residual < KCL_TOLERANCE_AMPS:
            return SolveResult(
                pads={
                    pid: _meter(xs[i], stimuli.get(pid), contacts.get(pid, GOOD_CONTACT))
                    for i, pid in enumerate(ids)
                },
                vcc_volts=xs[rail_node.get("VCC", datum)],
                gnd_volts=xs[rail_node.get("GND", datum)],
                iterations=iteration,
                residual=residual,
            )
        if iteration == MAX_NEWTON_ITERATIONS:
            break
        dx = np.linalg.solve(J, -F)
        if math.isfinite(dv_clamp):
            dx = np.clip(dx, -dv_clamp, dv_clamp)
        x = x + dx

    raise NonConvergence("DC solve did not converge", residual, MAX_NEWTON_ITERATIONS)


def solve_dc(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    stimuli: Mapping[str, Stimulus],
) -> SolveResult:
    """DC operating point of the probed UUT under the given stimuli.

    KCL holds at every node with residual < 1e-9 A.  Raises NonConvergence
    (with the final residual) or UnknownPad.
    """
    return _solve_network(uut, contacts, stimuli, {})


def solve_rail_sense(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    inject: Mapping[str, float],
    sense_rail: str = "VCC",
) -> float:
    """Voltage developed across the emulated supply sense path while current
    is injected at the given pads.

    The injection loop runs through a fixture interlock chain: if any
    injected pad's needle is open the whole loop is broken and the reading
    collapses to zero, which is exactly the open-probing signature this
    measurement exists to expose.
    """
    if sense_rail not in ("VCC", "GND"):
        raise ValueError("sense_rail must be 'VCC' or 'GND'")
    pad_map = uut.pad_map()
    active = {}
    for pid, amps in inject.items():
        if pid not in pad_map:
            raise UnknownPad(f"no such pad: {pid!r}")
        if not math.isfinite(amps):
            raise ValueError("injection levels must be finite")
        if amps != 0.0:
            active[pid] = amps
    for pid in active:
        if sense_rail not in pad_map[pid].rails():
            raise NoPathToRail(f"pad {pid!r} has no element to rail {sense_rail}")
    if any(contacts.get(pid, GOOD_CONTACT).is_open for pid in active):
        return 0.0
    stimuli = {pid: Stimulus("current", amps) for pid, amps in active.items()}
    result = solve_dc(uut, contacts, stimuli)
    return result.vcc_volts if sense_rail == "VCC" else result.gnd_volts


def step_transient(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    stimuli: Mapping[str, Stimulus],
    state: Optional[Mapping[str, float]],
    dt: float,
) -> tuple:
    """One implicit-Euler step of the pad shunt capacitances from state, the
    pad voltages of the previous step (None: the UUT at rest).

    Returns (next_state, SolveResult).  Under constant stimulus the state
    converges to the solve_dc operating point.
    """
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    state = state or {}
    companions = {}
    for pid, pc in uut.pads:
        if pc.shunt_capacitance > 0.0:
            g = pc.shunt_capacitance / dt
            companions[pid] = (g, g * state.get(pid, 0.0))
    result = _solve_network(uut, contacts, stimuli, companions)
    return {pid: r.pad_volts for pid, r in result.pads.items()}, result


def powered_consumption(uut: UutModel, v_input: float) -> float:
    """Supply current drawn at the given input-pad voltage (powered mode).

    Piecewise-linear interpolation of the consumption map, clamped to the
    end knots.
    """
    if not uut.powered or uut.consumption_map is None:
        raise NotPoweredModel("model is not powered or has no consumption_map")
    knots_v = np.array([v for v, _ in uut.consumption_map])
    knots_i = np.array([c for _, c in uut.consumption_map])
    return float(np.interp(v_input, knots_v, knots_i))
