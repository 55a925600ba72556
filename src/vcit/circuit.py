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

    def __post_init__(self):
        if not self.saturation_current > 0.0:
            raise ValueError("saturation_current must be > 0")
        if not self.ideality >= 1.0:
            raise ValueError("ideality must be >= 1")
        if not self.thermal_voltage > 0.0:
            raise ValueError("thermal_voltage must be > 0")
        if self.series_resistance < 0.0:
            raise ValueError("series_resistance must be >= 0")

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


@dataclass(frozen=True, slots=True)
class EsdPair:
    """ESD clamp structure: pad->VCC diode and GND->pad diode."""

    to_vcc: DiodeModel
    to_gnd: DiodeModel


@dataclass(frozen=True, slots=True)
class SeriesDiode:
    """Single diode between pad and GND.  polarity +1 conducts pad->GND."""

    diode: DiodeModel
    polarity: int = 1

    def __post_init__(self):
        if self.polarity not in (1, -1):
            raise ValueError("polarity must be +1 or -1")


@dataclass(frozen=True, slots=True)
class Led:
    """Indicator LED between pad and GND, forward pad->GND, with a color tag."""

    diode: DiodeModel
    color_tag: str = ""


@dataclass(frozen=True, slots=True)
class Resistive:
    ohms: float

    def __post_init__(self):
        if not self.ohms > 0.0:
            raise ValueError("ohms must be > 0")


@dataclass(frozen=True, slots=True)
class OpenPad:
    pass


PadKind = Union[EsdPair, SeriesDiode, Led, Resistive, OpenPad]


@dataclass(frozen=True, slots=True)
class PadCircuit:
    kind: PadKind
    shunt_capacitance: float = 0.0

    def __post_init__(self):
        if self.shunt_capacitance < 0.0:
            raise ValueError("shunt_capacitance must be >= 0")

    def rails(self) -> frozenset:
        """Which rails this pad has a conductive element to."""
        k = self.kind
        if isinstance(k, EsdPair):
            return frozenset({"VCC", "GND"})
        if isinstance(k, (SeriesDiode, Led, Resistive)):
            return frozenset({"GND"})
        return frozenset()


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
        if self.vcc_path_ohms < 0.0 or self.gnd_path_ohms < 0.0:
            raise ValueError("rail path resistances must be >= 0")
        if self.powered and self.consumption_map is None:
            raise ValueError("powered model requires a consumption_map")
        if self.consumption_map is not None:
            if len(self.consumption_map) < 1:
                raise ValueError("consumption_map must have at least one knot")
            vs = [v for v, _ in self.consumption_map]
            cs = [c for _, c in self.consumption_map]
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
        if self.resistance < 0.0:
            raise ValueError("resistance must be >= 0")
        if self.wear_rate < 0.0:
            raise ValueError("wear_rate must be >= 0")
        if not self.open_threshold > 0.0:
            raise ValueError("open_threshold must be > 0")

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


def _branch_stamp(kind: PadKind, vp: float, vv: float, vg: float):
    """Currents flowing from the pad node into each rail, with partials.

    Returns (i_vcc, di_vcc/dvp, di_vcc/dvv, i_gnd, di_gnd/dvp, di_gnd/dvg).
    """
    if isinstance(kind, EsdPair):
        dv = kind.to_vcc
        dg = kind.to_gnd
        iv = dv.current(vp - vv) + _GMIN * (vp - vv)
        gv = dv.conductance(vp - vv) + _GMIN
        # to_gnd conducts GND -> pad; from the pad's view that is -current.
        ig = -(dg.current(vg - vp) + _GMIN * (vg - vp))
        gg = dg.conductance(vg - vp) + _GMIN
        return iv, gv, -gv, ig, gg, -gg
    if isinstance(kind, SeriesDiode):
        d = kind.diode
        if kind.polarity == 1:
            ig = d.current(vp - vg) + _GMIN * (vp - vg)
            gg = d.conductance(vp - vg) + _GMIN
        else:
            ig = -(d.current(vg - vp) + _GMIN * (vg - vp))
            gg = d.conductance(vg - vp) + _GMIN
        return 0.0, 0.0, 0.0, ig, gg, -gg
    if isinstance(kind, Led):
        d = kind.diode
        ig = d.current(vp - vg) + _GMIN * (vp - vg)
        gg = d.conductance(vp - vg) + _GMIN
        return 0.0, 0.0, 0.0, ig, gg, -gg
    if isinstance(kind, Resistive):
        g = 1.0 / kind.ohms
        return 0.0, 0.0, 0.0, (vp - vg) * g, g, -g
    return 0.0, 0.0, 0.0, 0.0, 0.0, 0.0


def _solve_network(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    stimuli: Mapping[str, Stimulus],
    cap_g: Optional[Mapping[str, float]] = None,
    cap_i: Optional[Mapping[str, float]] = None,
) -> tuple:
    """Newton solve of the star network.  cap_g / cap_i carry the implicit
    Euler companion model (conductance, history current) for transients.

    Returns (pad_volts dict, vcc, gnd, iterations, residual).
    """
    pad_items = list(uut.pads)
    ids = [pid for pid, _ in pad_items]
    for pid in stimuli:
        if pid not in set(ids):
            raise UnknownPad(f"no such pad: {pid!r}")

    n = len(pad_items)
    idx = {pid: i for i, (pid, _) in enumerate(pad_items)}
    vcc_idx = n if uut.vcc_path_ohms > 0.0 else None
    gnd_idx = (n + (1 if vcc_idx is not None else 0)) if uut.gnd_path_ohms > 0.0 else None
    size = n + (vcc_idx is not None) + (gnd_idx is not None)

    # Per-iteration voltage step clamp tames the diode exponential.
    nvts = []
    for _, pc in pad_items:
        k = pc.kind
        if isinstance(k, EsdPair):
            nvts += [k.to_vcc.nvt, k.to_gnd.nvt]
        elif isinstance(k, (SeriesDiode, Led)):
            nvts.append(k.diode.nvt)
    dv_clamp = 0.5 * min(nvts) if nvts else math.inf

    # Effective series resistance per stimulated pad (voltage mode).
    def contact_of(pid):
        return contacts.get(pid, GOOD_CONTACT)

    x = np.zeros(size)
    residual = math.inf
    for iteration in range(MAX_NEWTON_ITERATIONS + 1):
        F = np.zeros(size)
        J = np.zeros((size, size))
        vv = x[vcc_idx] if vcc_idx is not None else 0.0
        vg = x[gnd_idx] if gnd_idx is not None else 0.0

        if vcc_idx is not None:
            g = 1.0 / uut.vcc_path_ohms
            F[vcc_idx] += vv * g
            J[vcc_idx, vcc_idx] += g
        if gnd_idx is not None:
            g = 1.0 / uut.gnd_path_ohms
            F[gnd_idx] += vg * g
            J[gnd_idx, gnd_idx] += g

        for i, (pid, pc) in enumerate(pad_items):
            vp = x[i]
            iv, dv_p, dv_v, ig, dg_p, dg_g = _branch_stamp(pc.kind, vp, vv, vg)
            F[i] += iv + ig + _GMIN * vp
            J[i, i] += dv_p + dg_p + _GMIN
            if vcc_idx is not None:
                F[vcc_idx] -= iv
                J[i, vcc_idx] += dv_v
                J[vcc_idx, i] -= dv_p
                J[vcc_idx, vcc_idx] -= dv_v
            if gnd_idx is not None:
                F[gnd_idx] -= ig
                J[i, gnd_idx] += dg_g
                J[gnd_idx, i] -= dg_p
                J[gnd_idx, gnd_idx] -= dg_g

            if cap_g is not None and pid in cap_g:
                F[i] += cap_g[pid] * vp - cap_i[pid]
                J[i, i] += cap_g[pid]

            stim = stimuli.get(pid)
            if stim is not None:
                c = contact_of(pid)
                if stim.mode == "current":
                    # Ideal current source in series with the contact delivers
                    # the full level; an open contact delivers nothing.
                    if not c.is_open:
                        F[i] -= stim.level
                else:
                    r = stim.source_ohms + c.effective_ohms
                    if r == 0.0:
                        r = 1e-9  # ideal source through ideal contact
                    g = 1.0 / r
                    F[i] -= (stim.level - vp) * g
                    J[i, i] += g

        residual = float(np.max(np.abs(F))) if size else 0.0
        if residual < KCL_TOLERANCE_AMPS:
            pad_volts = {pid: float(x[idx[pid]]) for pid in ids}
            return pad_volts, float(vv), float(vg), iteration, residual
        if iteration == MAX_NEWTON_ITERATIONS:
            break
        dx = np.linalg.solve(J, -F)
        if math.isfinite(dv_clamp):
            dx = np.clip(dx, -dv_clamp, dv_clamp)
        x = x + dx

    raise NonConvergence("DC solve did not converge", residual, MAX_NEWTON_ITERATIONS)


def _readings(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    stimuli: Mapping[str, Stimulus],
    pad_volts: Mapping[str, float],
) -> dict:
    out = {}
    for pid, _ in uut.pads:
        vp = pad_volts[pid]
        c = contacts.get(pid, GOOD_CONTACT)
        stim = stimuli.get(pid)
        if stim is None:
            # Floating needle: the meter reads the pad through the contact
            # (no current, no drop); an open contact reads nothing.
            volts = 0.0 if c.is_open else vp
            out[pid] = PadReading(volts=volts, amperes=0.0, pad_volts=vp)
        elif stim.mode == "current":
            if c.is_open:
                out[pid] = PadReading(volts=vp, amperes=0.0, pad_volts=vp)
            else:
                out[pid] = PadReading(
                    volts=vp + stim.level * c.resistance,
                    amperes=stim.level,
                    pad_volts=vp,
                )
        else:
            r = stim.source_ohms + c.effective_ohms
            if r == 0.0:
                r = 1e-9
            i = (stim.level - vp) / r
            out[pid] = PadReading(
                volts=stim.level - i * stim.source_ohms,
                amperes=i,
                pad_volts=vp,
            )
    return out


def solve_dc(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    stimuli: Mapping[str, Stimulus],
) -> SolveResult:
    """DC operating point of the probed UUT under the given stimuli.

    KCL holds at every node with residual < 1e-9 A.  Raises NonConvergence
    (with the final residual) or UnknownPad.
    """
    pad_volts, vv, vg, iters, res = _solve_network(uut, contacts, stimuli)
    return SolveResult(
        pads=_readings(uut, contacts, stimuli, pad_volts),
        vcc_volts=vv,
        gnd_volts=vg,
        iterations=iters,
        residual=res,
    )


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


TransientState = Mapping[str, float]


def initial_state(uut: UutModel) -> dict:
    """All-zero capacitor state (UUT at rest)."""
    return {pid: 0.0 for pid, _ in uut.pads}


def step_transient(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    stimuli: Mapping[str, Stimulus],
    state: Optional[TransientState],
    dt: float,
) -> tuple:
    """One implicit-Euler step of the pad shunt capacitances.

    Returns (next_state, SolveResult).  Under constant stimulus the state
    converges to the solve_dc operating point.
    """
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    if state is None:
        state = initial_state(uut)
    cap_g = {}
    cap_i = {}
    for pid, pc in uut.pads:
        if pc.shunt_capacitance > 0.0:
            g = pc.shunt_capacitance / dt
            cap_g[pid] = g
            cap_i[pid] = g * state.get(pid, 0.0)
    pad_volts, vv, vg, iters, res = _solve_network(uut, contacts, stimuli, cap_g, cap_i)
    result = SolveResult(
        pads=_readings(uut, contacts, stimuli, pad_volts),
        vcc_volts=vv,
        gnd_volts=vg,
        iterations=iters,
        residual=res,
    )
    return dict(pad_volts), result


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
