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
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from operator import add, mul, truediv
from typing import Mapping, Optional, Union

from .errors import NoPathToRail, NonConvergence, NotPoweredModel, UnknownPad

# Open contacts are carried as a finite huge resistance so the Newton system
# never goes singular; the open/closed decision itself uses open_threshold.
OPEN_CONTACT_OHMS = 1e12

KCL_TOLERANCE_AMPS = 1e-9
MAX_NEWTON_ITERATIONS = 200
# Trials per Newton step: the full step, then halved until max|F| falls.
MAX_STEP_TRIALS = 64
# Largest rest conductance Is / nVt of a diode law, in S, many orders above
# any pad junction.  Near 1e60 S a reverse-biased junction scales the Newton
# step past what rounding can resolve, and the solve stalls.
MAX_REST_CONDUCTANCE = 1.0

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
    # ideality * thermal_voltage, computed once; not compared, hashed or shown
    nvt: float = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "nvt", self.ideality * self.thermal_voltage)
        if not self.saturation_current / self.nvt <= MAX_REST_CONDUCTANCE:
            raise ValueError("saturation_current / (ideality * thermal_voltage) must be finite "
                             f"and at most {MAX_REST_CONDUCTANCE:g} S")

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
        if self.series_resistance == 0.0:  # the law inline: the solver's innermost call
            x = v / self.nvt
            if x > _EXP_CAP:
                return self.saturation_current * (math.exp(_EXP_CAP) * (1.0 + x - _EXP_CAP) - 1.0)
            return self.saturation_current * math.expm1(x)
        return self._junction_current(self._solve_junction(v))

    def conductance(self, v: float) -> float:
        """d(current)/d(v) at port voltage v; always > 0."""
        if self.series_resistance == 0.0:
            x = v / self.nvt
            if x > _EXP_CAP:
                return self.saturation_current * math.exp(_EXP_CAP) / self.nvt
            return self.saturation_current * math.exp(x) / self.nvt
        gd = self._junction_conductance(self._solve_junction(v))
        return gd / (1.0 + gd * self.series_resistance)


# Each pad kind describes its wiring as a branch table: one
# (law, rail, polarity) entry per element between the pad and a rail.  The
# law gives current(v), conductance(v) and its parallel leak, and carries
# exactly 0 A at v = 0; polarity +1 conducts pad -> rail, -1 rail -> pad.


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

    def __post_init__(self):
        if not (0.0 < self.ohms < math.inf and math.isfinite(1.0 / self.ohms)):
            raise ValueError("ohms must be finite and > 0, with a finite 1 / ohms")

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
    # pad id -> PadCircuit and the Newton system (see _system), built once
    # from the fields; not compared, hashed or shown
    _pads_by_id: dict = field(init=False, repr=False, compare=False)
    _system: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id = dict(self.pads)
        if len(by_id) != len(self.pads):
            raise ValueError("pad ids must be unique")
        object.__setattr__(self, "_pads_by_id", by_id)
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
        object.__setattr__(self, "_system", _system(self))

    def pad(self, pad_id: str) -> PadCircuit:
        try:
            return self._pads_by_id[pad_id]
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


def _plus_zero(v: float) -> bool:
    return v == 0.0 and math.copysign(1.0, v) > 0.0


def _system(uut: UutModel) -> tuple:
    """What no solve of the model changes: (pad ids, the rails with a path
    resistance, their path conductances, each pad's (law, rail index,
    polarity) per element, where the datum's rail index is len(rails), and
    the pads whose every element goes to the datum)."""
    paths = [(rail, ohms) for rail, ohms in (("VCC", uut.vcc_path_ohms), ("GND", uut.gnd_path_ohms))
             if ohms > 0.0]
    rails = tuple(rail for rail, _ in paths)
    elements = tuple(
        tuple((law, rails.index(rail) if rail in rails else len(rails), s)
              for law, rail, s in pc.kind.branches)
        for _, pc in uut.pads
    )
    grounded = frozenset(i for i, pad in enumerate(elements) if all(a == len(rails) for _, a, _ in pad))
    return (tuple(pid for pid, _ in uut.pads), rails, tuple(1.0 / ohms for _, ohms in paths), elements,
            grounded)


def _max_abs(F: list) -> float:
    """max|F|, or a non-finite value when an entry is one: max() can pass
    over a NaN, the sum cannot."""
    total = sum(F)
    return max(map(abs, F), default=0.0) if math.isfinite(total) else abs(total)


def _solve_network(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    stimuli: Mapping[str, Stimulus],
    companions: Mapping[str, tuple],
    start: Optional[Mapping[str, float]] = None,
) -> SolveResult:
    """Damped Newton solve of the star network.  companions maps a pad id
    to the implicit Euler model (conductance, history current) of its
    capacitance.

    Nodes 0..n-1 are the pads, then each rail with a path resistance.  A
    rail without one is tied to the datum node, which comes last and whose
    equation is dropped, so it stays at 0 V.  A pad with every element to
    the datum, no stimulus, and a capacitor history and start of exactly
    +0.0 sits at exactly 0 V; it is left out, which changes no iterate.

    Newton starts at rest (every node at 0 V), or at a start mapping of pad
    volts (a TransientState also gives the rail volts; a plain mapping
    leaves the rails at 0 V) when its residual max|F| is smaller than at
    rest; on a tie the solve is the one from rest, bit for bit.  Each step
    stamps the conductances G once, at the accepted point, and tries
    x + t*dx for t = 1, 1/2, 1/4, ...; it takes the first trial whose max|F|
    is strictly below the current one (a non-finite one never is).  A trial
    fills F pad by pad and is given up at the first pad whose |F_i| is not
    below the current max|F|, before any later pad's law is evaluated.  If
    none of MAX_STEP_TRIALS trials is lower, the solve has stalled and fails
    as one that runs out of iterations does.  iterations counts the
    accepted steps.
    """
    for pid in stimuli:
        uut.pad(pid)  # raises UnknownPad
    ids, rails, rail_g, elements, grounded = uut._system
    start_volts = start or {}
    idle = {
        i for i in grounded
        if ids[i] not in stimuli
        and _plus_zero(companions.get(ids[i], (0.0, 0.0))[1])
        and _plus_zero(start_volts.get(ids[i], 0.0))
    }
    pads = [i for i in range(len(ids)) if i not in idle]  # the pad index of each pad node
    node = dict(zip(pads, range(len(pads))))
    names = [ids[i] for i in pads]

    n = len(names)
    rail_node = {rail: n + a for a, rail in enumerate(rails)}
    size = n + len(rail_g)
    datum = size

    def drive(pid: str) -> tuple:
        """(level, conductance) of a pad's drive: a voltage drive's level
        behind 1 / _drive_ohms, or the current a current drive delivers (0
        through an open needle, or with no drive) behind 0."""
        stim = stimuli.get(pid)
        if stim is None:
            return 0.0, 0.0
        contact = contacts.get(pid, GOOD_CONTACT)
        if stim.mode == "current":
            # Ideal current source in series with the contact delivers the
            # full level; an open contact delivers nothing.
            return (0.0 if contact.is_open else stim.level), 0.0
        return stim.level, 1.0 / _drive_ohms(stim, contact)

    # One entry per pad node: its branches, each carrying s*(law(v) + leak*v)
    # at v = s*(vp - vr) from the pad into rail node r, its capacitor's
    # (conductance, history) or None, and its drive.  Each law's methods are
    # looked up per solve, never cached: they may be patched to count calls.
    terms = [
        (tuple((law.current, law.leak, n + a, s) for law, a, s in elements[i]),
         companions.get(pid), *drive(pid))
        for i, pid in zip(pads, names)
    ]
    branches = [(k, law.conductance, law.leak, a, s)
                for k, i in enumerate(pads) for law, a, s in elements[i]]

    def residual(x: list, bound: float) -> Optional[tuple]:
        """(F, max|F|) at node voltages x, the datum last, if max|F| is below
        bound; else None, returned as soon as one pad's |F_i| is not."""
        F = [0.0] * n + [0.0 + x[n + a] * g for a, g in enumerate(rail_g)] + [0.0]
        for i, (pad_branches, cap, level, drive_g) in enumerate(terms):
            xi = x[i]
            f = 0.0
            for current, leak, r, s in pad_branches:
                v = s * (xi - x[r])
                amps = s * (current(v) + leak * v)
                f += amps
                F[r] -= amps
            f += _GMIN * xi
            if cap is not None:
                f += cap[0] * xi - cap[1]
            f -= (level - xi) * drive_g if drive_g else level
            if not abs(f) < bound:  # a NaN never is
                return None
            F[i] = f
        del F[datum]  # the datum equation is dropped
        worst = _max_abs(F)
        return (F, worst) if worst < bound else None

    def conductances(x: list) -> list:
        """G at node voltages x: G[a][i] is the conductance from pad i to
        rail node n + a; the last row, to the datum, also takes every other
        conductance to ground."""
        G = [[0.0] * n for _ in range(len(rail_g) + 1)]
        for i, conductance, leak, a, s in branches:
            G[a][i] += conductance(s * (x[i] - x[n + a])) + leak
        ground = G[-1]
        for i, (_, cap, _, drive_g) in enumerate(terms):
            ground[i] += _GMIN
            if cap is not None:
                ground[i] += cap[0]
            if drive_g:
                ground[i] += drive_g
        return G

    # At rest every law carries exactly 0 A, so F there holds only the rail,
    # capacitor-history and drive terms: no law is evaluated for it.
    x = [0.0] * (size + 1)  # node voltages, the datum last
    F = []
    for _, cap, level, drive_g in terms:
        f = 0.0
        if cap is not None:
            f += cap[0] * 0.0 - cap[1]
        f -= level * drive_g if drive_g else level
        F.append(f)
    F += [0.0 + 0.0 * g for g in rail_g]
    worst = _max_abs(F)
    if start is not None:
        rail_volts = {"VCC": getattr(start, "vcc_volts", 0.0), "GND": getattr(start, "gnd_volts", 0.0)}
        warm = [start.get(pid, 0.0) for pid in names] + [rail_volts[r] for r in rails] + [0.0]
        warm_residual = residual(warm, worst)
        if warm_residual is not None:
            x, (F, worst) = warm, warm_residual
    for iteration in range(MAX_NEWTON_ITERATIONS + 1):
        if worst < KCL_TOLERANCE_AMPS:
            return SolveResult(
                pads={pid: _meter(x[node[i]] if i in node else 0.0, stimuli.get(pid),
                                  contacts.get(pid, GOOD_CONTACT)) for i, pid in enumerate(ids)},
                vcc_volts=x[rail_node.get("VCC", datum)],
                gnd_volts=x[rail_node.get("GND", datum)],
                iterations=iteration,
                residual=worst,
            )
        if not math.isfinite(worst):
            raise NonConvergence("DC solve met a non-finite residual", worst, iteration)
        if iteration == MAX_NEWTON_ITERATIONS:
            break
        dx = _newton_step(F, conductances(x), rail_g)
        for _ in range(MAX_STEP_TRIALS):
            trial = list(map(add, x, dx)) + [0.0]
            accepted = residual(trial, worst)
            if accepted is not None:
                break
            dx = [0.5 * d for d in dx]  # exact: t*dx for the next power of two
        else:
            break  # stalled: no trial lowers max|F|
        x = trial
        F, worst = accepted
    raise NonConvergence("DC solve did not converge", worst, iteration)


def _newton_step(F: list, G: list, rail_g: list) -> list:
    """The dx solving J dx = -F, in O(n) and without forming J.

    Pads couple only through the <= 2 rails, so J is an arrowhead: a
    diagonal pad block D, a diagonal rail block R (no branch joins two
    rails) and the pad-rail couplings J[i, n+a] = -c_ai = -G[a][i].  Pad i's
    diagonal is d_i = e_i + sum_a c_ai, with e_i = G[-1][i] its conductance
    to ground; rail a's is g_a + sum_i c_ai, with g_a = rail_g[a] its
    termination.  Eliminating the pads leaves the rail system S y = b with
    the Schur complement S = R - C^T D^-1 C and b = -F_r - C^T D^-1 F_p,
    which is solved in closed form; then dp_i = (-F_i + sum_a c_ai y_a) / d_i.

    Written out, S_aa = A_a + q and S_ab = -q, with A_a = g_a + sum_i c_ai
    e_i / d_i and q = sum_i c_0i c_1i / d_i (0 with one rail).  So S is
    formed from sums of positive terms, without the cancellation of
    R - C^T D^-1 C, and is strictly diagonally dominant, S_aa - |S_ab| =
    A_a >= g_a > 0.  No pivoting is needed: every divisor below, d_i >= GMIN,
    S_00 and the pivot A_1 + q A_0 / S_00 of the second rail, is positive.
    """
    *coupling, ground = G
    n = len(ground)
    d = ground
    for c in coupling:
        d = list(map(add, d, c))
    scaled = [list(map(truediv, c, d)) for c in coupling]  # rows of C^T D^-1
    b = [-F[n + a] - sum(map(mul, w, F)) for a, w in enumerate(scaled)]
    A = [g + sum(map(mul, w, ground)) for g, w in zip(rail_g, scaled)]
    if len(A) == 2:
        q = sum(map(mul, scaled[0], coupling[1]))
        s00 = A[0] + q
        y1 = (b[1] + q * b[0] / s00) / (A[1] + q * A[0] / s00)
        y = [(b[0] + q * y1) / s00, y1]
    else:
        y = [b[0] / A[0]] if A else []
    rhs = [-f for f in F[:n]]
    for c, ya in zip(coupling, y):
        rhs = [r + ci * ya for r, ci in zip(rhs, c)]
    return list(map(truediv, rhs, d)) + y


def solve_dc(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    stimuli: Mapping[str, Stimulus],
) -> SolveResult:
    """DC operating point of the probed UUT under the given stimuli.

    KCL holds at every node with residual < 1e-9 A.  Raises NonConvergence
    (with the final residual, or at once with the first non-finite one) or
    UnknownPad.
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
    active = {}
    for pid, amps in inject.items():
        uut.pad(pid)  # raises UnknownPad
        if not math.isfinite(amps):
            raise ValueError("injection levels must be finite")
        if amps != 0.0:
            active[pid] = amps
    for pid in active:
        if sense_rail not in uut.pad(pid).rails():
            raise NoPathToRail(f"pad {pid!r} has no element to rail {sense_rail}")
    if any(contacts.get(pid, GOOD_CONTACT).is_open for pid in active):
        return 0.0
    stimuli = {pid: Stimulus("current", amps) for pid, amps in active.items()}
    result = solve_dc(uut, contacts, stimuli)
    return result.vcc_volts if sense_rail == "VCC" else result.gnd_volts


class TransientState(dict):
    """The node voltages a transient step ends at: pad id -> pad volts, with
    the two rail voltages beside the mapping, never under a pad key (a pad
    id may be any string).  A rail pinned at ground reads 0.0."""

    __slots__ = ("vcc_volts", "gnd_volts")

    def __init__(self, pad_volts: Mapping[str, float], vcc_volts: float, gnd_volts: float):
        super().__init__(pad_volts)
        self.vcc_volts = vcc_volts
        self.gnd_volts = gnd_volts


def step_transient(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    stimuli: Mapping[str, Stimulus],
    state: Optional[Mapping[str, float]],
    dt: float,
) -> tuple:
    """One implicit-Euler step of the pad shunt capacitances from state, the
    pad voltages of the previous step (None: the UUT at rest).

    Returns (next_state, SolveResult); next_state is a TransientState.
    Newton starts from state, rails included, when its residual is smaller
    than at rest (see _solve_network), so a step under a level that moves
    the nodes little takes few iterations.  Under constant stimulus the
    state converges to the solve_dc operating point.
    """
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    history = state or {}
    companions = {}
    for pid, pc in uut.pads:
        if pc.shunt_capacitance > 0.0:
            g = pc.shunt_capacitance / dt
            companions[pid] = (g, g * history.get(pid, 0.0))
    result = _solve_network(uut, contacts, stimuli, companions, state)
    next_state = TransientState(
        {pid: r.pad_volts for pid, r in result.pads.items()}, result.vcc_volts, result.gnd_volts
    )
    return next_state, result


def powered_consumption(uut: UutModel, v_input: float) -> float:
    """Supply current drawn at the given input-pad voltage (powered mode).

    Piecewise-linear interpolation of the consumption map, clamped to the
    end knots.  Every step is numpy.interp's, so the result is bit for bit
    the one it gives.
    """
    if not uut.powered or uut.consumption_map is None:
        raise NotPoweredModel("model is not powered or has no consumption_map")
    vs = [float(v) for v, _ in uut.consumption_map]
    cs = [float(c) for _, c in uut.consumption_map]
    x = float(v_input)
    if len(vs) == 1:
        return cs[0]
    if x != x:
        return x
    k = bisect_right(vs, x) - 1  # vs[k] <= x < vs[k + 1]
    if k < 0:
        return cs[0]
    if k >= len(vs) - 1:
        return cs[-1]
    if x == vs[k]:
        return cs[k]
    slope = (cs[k + 1] - cs[k]) / (vs[k + 1] - vs[k])
    y = slope * (x - vs[k]) + cs[k]
    if y != y:  # x - vs[k] overflowed (0 * inf): measure from the other end
        y = slope * (x - vs[k + 1]) + cs[k + 1]
    return y
