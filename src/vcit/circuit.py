"""Electrical simulation of an unpowered UUT behind probe contacts.

The model is a star topology: every pad connects through its own circuit
(ESD diode pair, series diode, LED, resistor, or nothing) to the VCC and/or
GND rails.  Rails terminate to tester ground through configurable path
resistances; a path resistance of zero pins the rail at 0 V.  Stimuli are
applied per pad, through that pad's needle contact resistance.

All solves are two-level Newton-Raphson with analytic derivatives: each class
of identical pads is settled once under the rail voltages, and Newton runs on
the <= 2 rails.
They are fully deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from numbers import Real
from operator import add, mul, truediv
from typing import Optional, Union

from .errors import NoPathToRail, NonConvergence, NotPoweredModel, UnknownPad

# Open contacts are carried as a finite huge resistance so the Newton system
# never goes singular; the open/closed decision itself uses open_threshold.
OPEN_CONTACT_OHMS = 1e12

KCL_TOLERANCE_AMPS = 1e-9
# The Newton budget of the rail loop and of each pad's settle.
MAX_NEWTON_ITERATIONS = 200
# A node is settled when its Newton step is within VOLTS_TOLERANCE +
# RELATIVE_TOLERANCE * |x| as well as its |F| under KCL_TOLERANCE_AMPS.
VOLTS_TOLERANCE = 1e-9
RELATIVE_TOLERANCE = 1e-9
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

# The most DC solves from rest a model keeps (see _solve_network); a full
# memo is cleared.
DC_MEMO_SIZE = 16


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
        if self.cycles < 0:
            raise ValueError("cycles must be >= 0")
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
        # Stored as floats, so that a level of 1 reads and solves as 1.0 does.
        object.__setattr__(self, "level", float(self.level))
        object.__setattr__(self, "source_ohms", float(self.source_ohms))


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
    """A solve's readings and rail volts; iterations counts the rail (outer)
    Newton steps, so a board with no rail path takes 0, and residual is the
    largest |F| over the nodes.  A solve gives pads as a mapping over every
    pad in the model's pad order that reads each pad without a stimulus
    only when one is first read (see _Readings)."""

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
    """Series resistance of a voltage drive: source plus contact.  At 0 the
    drive pins its pad at the level."""
    return stim.source_ohms + contact.effective_ohms


def _meter(vp: float, stim: Optional[Stimulus], contact: ContactState) -> PadReading:
    """What the needle-side meter reads for a pad node at vp (a pad pinned
    by its drive is read by the solve itself)."""
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


def _idle(group: tuple, v: float) -> bool:
    """Whether a pad of group (see _system) that starts at v is idle: the
    group is grounded and v is exactly +0.0, whatever its number type."""
    return group[2] and v == 0.0 and math.copysign(1.0, v) > 0.0


def _junction(law) -> tuple:
    """(nVt, vcrit, series resistance) of a law for junction limiting; a
    resistor is never limited."""
    if isinstance(law, DiodeModel):
        nvt = law.nvt
        return nvt, nvt * math.log(nvt / (math.sqrt(2.0) * law.saturation_current)), law.series_resistance
    return math.inf, math.inf, 0.0


def _system(uut: UutModel) -> tuple:
    """What no solve of the model changes: (pad ids; pad id -> (pad index,
    group); the path conductances of the rails with a path resistance and
    the names of their TransientState attributes; the rail indices of VCC
    and GND; each pad's (law, (rail index, polarity, nVt, vcrit, series
    resistance)) per element; each group's (branch class, capacitance,
    grounded); the largest capacitance; the partition at rest, the start of
    a solve without a TransientState; the memo of DC solves from rest, the
    one part that solves fill).

    The rails with a path resistance come first, and the datum's rail
    index is their number.  A group holds the pads of one branch class,
    equal for pads whose elements are equal by value, and one capacitance;
    grounded means that its every element goes to the datum.  A pad of a
    grounded group that starts at exactly +0.0 is idle: it is in no part.
    A partition splits the other pads of each group into parts of pads that
    start at the same volts, the sign of a zero included: a part is (first
    pad index, group, member ids, start volts, None), and a partition is
    the tuple of its parts in order of their first pad."""
    paths = [(rail, ohms) for rail, ohms in (("VCC", uut.vcc_path_ohms), ("GND", uut.gnd_path_ohms))
             if ohms > 0.0]
    rails = tuple(rail for rail, _ in paths)
    elements = tuple(
        tuple((law, (rails.index(rail) if rail in rails else len(rails), s, *_junction(law)))
              for law, rail, s in pc.kind.branches)
        for _, pc in uut.pads
    )
    classes, numbers, groups, where = {}, {}, [], {}
    for i, ((pid, pc), pad) in enumerate(zip(uut.pads, elements)):
        s = numbers.setdefault((pad, pc.shunt_capacitance), len(numbers))
        if s == len(groups):
            groups.append((classes.setdefault(pad, len(classes)), pc.shunt_capacitance,
                           all(e[0] == len(rails) for _, e in pad)))
        where[pid] = (i, s)
    groups = tuple(groups)
    return (tuple(pid for pid, _ in uut.pads), where, tuple(1.0 / ohms for _, ohms in paths),
            tuple(f"{rail.lower()}_volts" for rail in rails),
            tuple(rails.index(rail) if rail in rails else len(rails) for rail in ("VCC", "GND")),
            elements, groups, max((c for _, c, _ in groups), default=0.0), _partition(where, groups, {}),
            {})


def _partition(where: dict, groups: tuple, volts: Mapping[str, float]) -> tuple:
    """The partition (see _system) of the pads by group and by their volts,
    0.0 when not given; the idle pads are left out."""
    found = {}  # (group, volts, sign) -> (first pad index, member ids)
    for pid, (i, s) in where.items():
        v = volts.get(pid, 0.0)
        if not _idle(groups[s], v):
            found.setdefault((s, v, math.copysign(1.0, v)), (i, []))[1].append(pid)
    return tuple((i, s, frozenset(ids), v, None) for (s, v, _), (i, ids) in found.items())


def _pieces(parts: tuple, stimuli: Mapping[str, Stimulus], where: dict, ids: tuple,
            volts: Mapping[str, float]) -> Union[tuple, list]:
    """The parts that a solve under stimuli runs on, in order of their first
    pad: each stimulated pad, idle or not, as a part of its own at its start
    in volts (0.0 when not given) that names its pad last, its members a
    1-tuple, and every other part of parts without its stimulated pads.  A
    part whose first pad is stimulated starts at the first pad it keeps.
    Raises UnknownPad for a stimulated pad the model does not have."""
    try:
        pieces = [(*where[pid], (pid,), volts.get(pid, 0.0), pid) for pid in stimuli]
    except KeyError as e:
        raise UnknownPad(f"no such pad: {e.args[0]!r}") from None
    if not pieces:
        return parts
    for part in parts:
        first, s, members, v, _ = part
        if not members.isdisjoint(stimuli):
            left = members.difference(stimuli)
            if not left:
                continue
            if ids[first] in stimuli:
                first = min(where[pid][0] for pid in left)
            part = (first, s, left, v, None)
        pieces.append(part)
    pieces.sort()
    return pieces


def _settled(x: float, f: float, g: float) -> bool:
    """|F| under the KCL tolerance and the Newton step |F / G| within
    VOLTS_TOLERANCE + RELATIVE_TOLERANCE * |x|."""
    return abs(f) < KCL_TOLERANCE_AMPS and abs(f) <= (VOLTS_TOLERANCE + RELATIVE_TOLERANCE * abs(x)) * g


def _bracketed(x: float, step: float, lo: float, hi: float, last: float) -> tuple:
    """(new x, lo, hi): the root lies on the side of x that the Newton step
    goes to, so x becomes that end of the sign bracket (lo, hi); then x +
    step, or the bracket's midpoint when that leaves the bracket or, once
    both ends are finite, moves more than half the last step.  A step that
    does not move x leaves it, so the midpoint is only ever taken of a
    finite bracket."""
    if step > 0.0:
        lo = x
    else:
        hi = x
    new = x + step
    if new != x and (not lo < new < hi or (abs(step) > 0.5 * last and -math.inf < lo and hi < math.inf)):
        new = 0.5 * lo + 0.5 * hi
    return new, lo, hi


def _limited(x: float, step: float, branches: tuple, y: list) -> float:
    """The Newton step of a pad node, shortened so that no diode branch's
    junction voltage jumps forward further than SPICE pnjlim lets it.
    Behind a series resistance rs the junction moves by the port's change
    times 1 - rs * conductance, at the junction voltage v - rs * current."""
    for current, conductance, _, a, s, nvt, vcrit, rs in branches:
        v = s * (x - y[a])
        forward = s * step
        if forward <= 2.0 * nvt:
            continue
        scale = 1.0 - rs * conductance(v) if rs else 1.0
        vd = v - rs * current(v) if rs else v
        vd_new = vd + forward * scale
        if vd_new - vd > 2.0 * nvt and vd_new > vcrit:
            if vd > 0.0:
                vd_new = vd + nvt * math.log1p((vd_new - vd) / nvt)
            elif vd_new > nvt:
                vd_new = nvt * math.log(vd_new / nvt)
            step = s * (vd_new - vd) / scale
    return step


def _solve_network(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    stimuli: Mapping[str, Stimulus],
    dt: Optional[float] = None,
    state: Optional[TransientState] = None,
    at_rest: bool = False,
) -> SolveResult:
    """Two-level Newton solve of the star network from state, the node volts
    the solve starts at (None: at rest).  With a time step dt, each pad's
    capacitance C is an implicit Euler companion: a conductance C/dt to
    ground and a history current C/dt times the pad's volts in state.
    at_rest starts every node at 0 V whatever the state: the start that a
    warm start must agree with.

    The nodes are the pad classes, then each rail with a path resistance.
    A rail without one is tied to the datum, which stays at 0 V.  An idle
    pad (see _system) without a stimulus sits at exactly 0 V and is left
    out.  Every other pad belongs to a class: pads with the same branch
    class, conductance to ground (GMIN, capacitor, drive), constant term,
    pinned level and start, the sign of a zero start included, have the
    same KCL as a function of the rails, so the class is one node, settled
    once, and each member pad reads it through its own contact.  A class of
    m pads carries m times its current into each rail and m times its
    conductance in each rail sum.  A voltage drive of 0 Ohm in all pins its
    pad at the level: the pad is not solved, and it draws what its
    branches, GMIN leak and capacitor carry.

    The classes are found part by part, not pad by pad (see _system): the
    pads of one part without a stimulus share their class.  So each part
    loses its stimulated pads, each stimulated pad, idle or not, is a part
    of its own at its start (see _pieces), and each part gives one class
    key, in order of its first pad.  The parts are those of the state's
    partition for the model (see TransientState), or of the partition at
    rest when there is no state.

    Inner level: given the rail voltages, each class's KCL F_i(x_i) is
    strictly increasing (every law is, and GMIN > 0), so each class is
    settled alone by Newton, its diode branches junction-limited, inside a
    sign bracket that it bisects when a step leaves it or, once finite, when
    a step is more than half the last one.  A class is settled when _settled
    holds, or when no step moves it.  Outer level: Newton on the <= 2 rail
    voltages, the rail part of the Schur step of _newton_step at the
    settled classes; with one rail that step is bracketed in the same way.
    Every class is settled again after each rail step.  The solve returns
    when every node's |F| is under the KCL tolerance and the rail step is
    within the volts bound.  When the rails are within it but some |F| is
    not, the classes take their part of the Schur step as well; when no step
    moves any node, the solve has stalled.  iterations counts the rail
    iterations.

    A DC solve from rest (no dt, no state) reads of each stimulated pad only
    its id, mode and level, the sign of a zero included, and whether its
    needle is open under a current drive or the drive's series resistance
    under a voltage drive.  So the model's memo (see _system) keeps each
    such solve under those, in the stimuli's order, and a solve that
    repeats one skips both levels: it meters the stimulated pads through
    its own contacts and reports the iterations and residual of the solve
    it repeats.  The memo holds at most DC_MEMO_SIZE solves and is cleared
    when full; a solve that raises is not kept.

    A state also starts the rails at its rail volts, and no state at 0 V.
    A non-finite residual raises NonConvergence at once.  So does a C/dt
    that overflows, before any settle, with the nan residual of its
    companion inf * 0 or inf * v; and so do a stalled solve and a class or
    the rail loop that runs out of MAX_NEWTON_ITERATIONS.
    """
    system = uut._system
    ids, where, rail_g, rail_attrs, (vcc_at, gnd_at), elements, groups, most_c, rest, memo = system
    problem = None
    if state is None and dt is None:
        # All that the class loop reads of a stimulated pad.
        problem = tuple([(pid, stim.mode, stim.level, math.copysign(1.0, stim.level),
                          contacts.get(pid, GOOD_CONTACT).is_open if stim.mode == "current"
                          else _drive_ohms(stim, contacts.get(pid, GOOD_CONTACT)))
                         for pid, stim in stimuli.items()])
        solve = memo.get(problem)
        if solve is not None:
            return _result(system, contacts, stimuli, solve)
    parts, volts = (rest, {}) if state is None else (state._partition_of(system), state._volts)
    parts = _pieces(parts, stimuli, where, ids, volts)
    if dt is not None and not most_c / dt < math.inf:
        raise NonConvergence("DC solve met a non-finite residual", math.nan, 0)
    datum = len(rail_g)
    y = [0.0] * datum if state is None or at_rest else [getattr(state, attr) for attr in rail_attrs]
    y.append(0.0)  # the datum

    # One entry per pad node, a class of pads: its branches, each carrying
    # s*(law(v) + leak*v) at v = s*(x - y[a]) from the pad into rail a; its
    # conductance to ground besides them (GMIN, capacitor, drive) and the
    # constant term of its F; and its pinned level or None.  Each law's
    # methods are looked up per solve, never cached: they may be patched to
    # count calls.  The sign of a zero constant never reaches F, so only the
    # start's is in the key.
    solved = []  # (part, its pad node)
    metered = []  # (stimulated pad, its pad node, whether it is pinned)
    classes = {}  # key -> pad node
    terms = []
    x = []
    m = []  # the pads in each pad node
    free = []  # the pad nodes to solve for
    pinned_nodes = []
    for part in parts:
        first, s, members, v, pid = part
        bc, c, _ = groups[s]
        if dt is not None and c > 0.0:
            g = c / dt
            history = g * v
        else:
            g = history = 0.0
        x0 = 0.0 if at_rest else v
        g += _GMIN
        constant = -history
        pinned = None
        if pid is not None:
            stim = stimuli[pid]
            contact = contacts.get(pid, GOOD_CONTACT)
            if stim.mode == "current":
                # An ideal current source delivers its level through a closed needle.
                constant -= 0.0 if contact.is_open else stim.level
            elif _drive_ohms(stim, contact) == 0.0:
                pinned = x0 = stim.level
            else:
                drive_g = 1.0 / _drive_ohms(stim, contact)
                g += drive_g
                constant -= stim.level * drive_g
        key = (bc, g, constant, pinned, x0, math.copysign(1.0, x0))
        k = classes.setdefault(key, len(terms))
        if k == len(terms):
            branches = tuple([(law.current, law.conductance, law.leak) + element
                              for law, element in elements[first]])
            terms.append((branches, g, constant, pinned))
            x.append(x0)
            m.append(0)
            (free if pinned is None else pinned_nodes).append(k)
        m[k] += len(members)
        solved.append((part, k))
        if pid is not None:
            metered.append((pid, k, pinned is not None))
    n = len(terms)
    into = [None] * n  # per pad node: current into each rail, the datum last
    cond = [None] * n  # per pad node: conductance to each rail; the datum's is all to ground
    F = [0.0] * n

    def settle(k: int, iteration: int) -> None:
        """Settle pad node k given the rails y, from x[k]."""
        branches, g0, constant, pinned = terms[k]
        xk = x[k]
        lo, hi, last = -math.inf, math.inf, math.inf
        for _ in range(MAX_NEWTON_ITERATIONS):
            amps = [0.0] * (datum + 1)
            conductances = [0.0] * datum + [g0]
            for current, conductance, leak, a, s, _, _, _ in branches:
                v = s * (xk - y[a])
                amps[a] += s * (current(v) + leak * v)
                conductances[a] += conductance(v) + leak
            f = sum(amps) + g0 * xk + constant
            g = sum(conductances)
            if not math.isfinite(f):
                raise NonConvergence("DC solve met a non-finite residual", f, iteration)
            if pinned is None and not _settled(xk, f, g):
                new, lo, hi = _bracketed(xk, _limited(xk, -f / g, branches, y), lo, hi, last)
                if new != xk:
                    last = abs(new - xk)
                    xk = new
                    continue
            # Settled, pinned, or as settled as a float can be when no step
            # moves it: the rail loop still holds its |F| to the tolerance.
            x[k], F[k], into[k], cond[k] = xk, f, amps, conductances
            return
        raise NonConvergence("DC solve did not converge", abs(f), iteration)

    free_m = [m[k] for k in free]
    lo, hi, last = -math.inf, math.inf, math.inf  # the one-rail bracket
    for iteration in range(MAX_NEWTON_ITERATIONS + 1):
        for k in range(n):
            settle(k, iteration)
        F_rail = [g * y[a] - sum(m[k] * into[k][a] for k in range(n)) for a, g in enumerate(rail_g)]
        if not math.isfinite(sum(F_rail)):
            raise NonConvergence("DC solve met a non-finite residual", sum(F_rail), iteration)
        worst = max(map(abs, [F[k] for k in free] + F_rail), default=0.0)
        # A pinned pad is a known node: its conductance to a rail only adds
        # to that rail's diagonal.
        diagonal = [g + sum(m[k] * cond[k][a] for k in pinned_nodes) for a, g in enumerate(rail_g)]
        G = [[cond[k][a] for k in free] for a in range(datum + 1)]
        dx = _newton_step([F[k] for k in free] + F_rail, G, diagonal, free_m)
        step = dx[len(free):]
        rails_settled = all(abs(dy) <= VOLTS_TOLERANCE + RELATIVE_TOLERANCE * abs(ya)
                            for dy, ya in zip(step, y))
        if worst < KCL_TOLERANCE_AMPS and rails_settled:
            break
        if iteration == MAX_NEWTON_ITERATIONS:
            raise NonConvergence("DC solve did not converge", worst, iteration)
        old = y[:datum]
        if datum == 1:
            y[0], lo, hi = _bracketed(y[0], step[0], lo, hi, last)
            last = abs(y[0] - old[0])
        else:
            y[:datum] = [ya + dy for ya, dy in zip(y, step)]
        stepped = False
        if rails_settled:
            # Some |F| is over the tolerance though the rails are within the
            # volts bound: each pad stopped within its own bound, and their
            # residual currents add up on a rail.  Take the pads' part of the
            # Newton step as well.
            for k, dp in zip(free, dx):
                if x[k] + dp != x[k]:
                    x[k] += dp
                    stepped = True
        if y[:datum] == old and not stepped:  # no step moves a node: the solve has stalled
            raise NonConvergence("DC solve did not converge", worst, iteration)

    solve = (metered, solved, x, F, y[vcc_at], y[gnd_at], iteration, worst)
    if problem is not None:
        # Threads that store at once may each go one past the bound before
        # the next store clears it; no stored solve is ever wrong.
        if len(memo) >= DC_MEMO_SIZE:
            memo.clear()
        memo[problem] = solve
    return _result(system, contacts, stimuli, solve)


def _result(system: tuple, contacts: Mapping[str, ContactState], stimuli: Mapping[str, Stimulus],
            solve: tuple) -> SolveResult:
    """The SolveResult of a solve of _solve_network, (metered pads, solved
    parts, node volts, node F values, VCC volts, GND volts, iterations,
    residual), read through contacts: the stimulated pads now, every other
    pad when one is read (see _Readings).  A pinned pad reads its node."""
    metered, solved, x, F, vcc_volts, gnd_volts, iterations, residual = solve
    readings = {}
    for pid, k, pinned in metered:
        if pinned:
            readings[pid] = PadReading(volts=x[k], amperes=F[k], pad_volts=x[k])
        else:
            readings[pid] = _meter(x[k], stimuli[pid], contacts.get(pid, GOOD_CONTACT))
    return SolveResult(
        pads=_Readings(system, dict(contacts), solved, x, readings),
        vcc_volts=vcc_volts,
        gnd_volts=gnd_volts,
        iterations=iterations,
        residual=residual,
    )


def _newton_step(F: list, G: list, rail_g: list, m: list) -> list:
    """The dx solving J dx = -F, in O(n) and without forming J.

    Pad node i stands for m[i] identical pads, whose rows and columns of J
    are equal, so they take one step: J is that of the system in which each
    pad node is repeated m[i] times, and dx holds one entry per pad node,
    then one per rail.

    Pads couple only through the <= 2 rails, so J is an arrowhead: a
    diagonal pad block D, a diagonal rail block R (no branch joins two
    rails) and the pad-rail couplings J[i, n+a] = -c_ai = -G[a][i].  Pad i's
    diagonal is d_i = e_i + sum_a c_ai, with e_i = G[-1][i] its conductance
    to ground; rail a's is g_a + sum_i m_i c_ai, with g_a = rail_g[a] its
    termination.  Eliminating the pads leaves the rail system S y = b with
    the Schur complement S = R - C^T D^-1 C and b = -F_r - C^T D^-1 F_p,
    each pad's term counted m_i times, which is solved in closed form; then
    dp_i = (-F_i + sum_a c_ai y_a) / d_i.

    Written out, S_aa = A_a + q and S_ab = -q, with A_a = g_a + sum_i m_i
    c_ai e_i / d_i and q = sum_i m_i c_0i c_1i / d_i (0 with one rail).  So
    S is formed from sums of positive terms, without the cancellation of
    R - C^T D^-1 C, and is strictly diagonally dominant, S_aa - |S_ab| =
    A_a >= g_a > 0.  No pivoting is needed: every divisor below, d_i >= GMIN,
    S_00 and the pivot A_1 + q A_0 / S_00 of the second rail, is positive.
    With every m_i = 1 each term is the unweighted one, bit for bit.
    """
    *coupling, ground = G
    n = len(ground)
    d = ground
    for c in coupling:
        d = list(map(add, d, c))
    scaled = [list(map(truediv, map(mul, m, c), d)) for c in coupling]  # rows of C^T D^-1, weighted
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
    return _solve_network(uut, contacts, stimuli)


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


class TransientState(Mapping):
    """The node voltages a transient step ends at: a read-only mapping of
    pad id -> pad volts, with the two read-only rail voltages beside it,
    never under a pad key (a pad id may be any string).  A rail pinned at
    ground reads 0.0.

    The volts are copied in as floats and never change, so a state holds
    the partition of its pads (see _system) for the last model it was used
    with: one that step_transient returns holds the partition its step
    ended on, and a state used with another model is partitioned anew.  A
    volt that is not a real number raises TypeError naming its pad or rail."""

    __slots__ = ("_volts", "_rails", "_parts")

    def __init__(self, pad_volts: Mapping[str, float], vcc_volts: float, gnd_volts: float):
        self._volts = {pid: _real(v, f"pad {pid!r}") for pid, v in pad_volts.items()}
        self._rails = (_real(vcc_volts, "vcc_volts"), _real(gnd_volts, "gnd_volts"))
        self._parts = None  # (a model's _system, the partition for it)

    vcc_volts = property(lambda self: self._rails[0])
    gnd_volts = property(lambda self: self._rails[1])

    def __getitem__(self, pad_id: str) -> float:
        return self._volts[pad_id]

    def __iter__(self):
        return iter(self._volts)

    def __len__(self) -> int:
        return len(self._volts)

    def __repr__(self) -> str:
        return f"TransientState({self._volts!r}, {self.vcc_volts!r}, {self.gnd_volts!r})"

    def _partition_of(self, system: tuple) -> tuple:
        """The partition of the pads for the model whose _system this is."""
        made = self._parts
        if made is None or made[0] is not system:
            where, groups = system[1], system[6]  # see _system
            made = self._parts = (system, _partition(where, groups, self._volts))
        return made[1]


def _real(v, name: str) -> float:
    """v as a float, or TypeError naming it when v is not a real number."""
    if not isinstance(v, Real):
        raise TypeError(f"{name}: volts must be a real number, not {type(v).__name__}")
    return float(v)


_REST = PadReading(volts=0.0, amperes=0.0, pad_volts=0.0)


class _Readings(Mapping):
    """SolveResult.pads of a solve: pad id -> PadReading over every pad, in
    the model's pad order.  The solve reads its stimulated pads; every other
    pad is read from its node and a copy of the solve's contacts the first
    time any of them is.  A pad in no part of the solve is idle and reads
    rest, and the closed floating needles of a pad node share one reading."""

    __slots__ = ("_system", "_contacts", "_solved", "_x", "_readings", "_whole")

    def __init__(self, system: tuple, contacts: dict, solved: list, x: list, readings: dict):
        self._system = system
        self._contacts = contacts
        self._solved = solved  # (part, its pad node)
        self._x = x
        self._readings = readings
        self._whole = False

    def _every(self) -> dict:
        """Every pad's reading, made once."""
        if not self._whole:
            readings = dict.fromkeys(self._system[0], _REST)
            for (_, _, members, _, pid), k in self._solved:
                if pid is None:
                    floating = _meter(self._x[k], None, GOOD_CONTACT)
                    for member in members:
                        contact = self._contacts.get(member, GOOD_CONTACT)
                        readings[member] = _meter(self._x[k], None, contact) if contact.is_open else floating
            readings.update(self._readings)
            self._readings = readings
            self._whole = True
        return self._readings

    def __getitem__(self, pad_id: str) -> PadReading:
        reading = self._readings.get(pad_id)
        return self._every()[pad_id] if reading is None else reading

    def __iter__(self):
        return iter(self._system[0])

    def __len__(self) -> int:
        return len(self._system[0])

    def __contains__(self, pad_id) -> bool:
        return pad_id in self._system[1]

    def __repr__(self) -> str:
        return repr(self._every())

    def _state(self, vcc_volts: float, gnd_volts: float) -> TransientState:
        """The TransientState the solve ends at, carrying its partition: its
        parts' pads at the volts of their nodes, every other pad at 0.0.  A
        part that ends at exactly +0.0 in a grounded group is idle and left
        out of the partition."""
        groups = self._system[6]  # see _system
        volts = dict.fromkeys(self._system[0], 0.0)
        parts = []
        for (first, s, members, _, pid), k in self._solved:
            v = self._x[k]
            volts.update(dict.fromkeys(members, v))
            if not _idle(groups[s], v):
                parts.append((first, s, members if pid is None else frozenset(members), v, None))
        # The solve's volts are floats already: nothing to check or copy.
        state = TransientState.__new__(TransientState)
        state._volts, state._rails = volts, (vcc_volts, gnd_volts)
        state._parts = (self._system, tuple(parts))
        return state


def step_transient(
    uut: UutModel,
    contacts: Mapping[str, ContactState],
    stimuli: Mapping[str, Stimulus],
    state: Optional[TransientState],
    dt: float,
) -> tuple:
    """One implicit-Euler step of the pad shunt capacitances from state, the
    TransientState of the previous step (None: the UUT at rest); any other
    start raises TypeError.

    Returns (next_state, SolveResult); next_state is a TransientState that
    holds the partition of the pads its step ended on.  The solve starts
    from state, rails included (see _solve_network), so a step under a level
    that moves the nodes little takes few law evaluations.  Under constant
    stimulus the state converges to the solve_dc operating point.
    """
    if not (state is None or isinstance(state, TransientState)):
        raise TypeError(f"state must be a TransientState or None, got {type(state).__name__}")
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    result = _solve_network(uut, contacts, stimuli, dt, state)
    return result.pads._state(result.vcc_volts, result.gnd_volts), result


def powered_consumption(uut: UutModel, v_input: float) -> float:
    """Supply current drawn at the given input-pad voltage (powered mode).

    Piecewise-linear interpolation of the consumption map, clamped to the
    end knots.  Every step is numpy.interp's, so the result is bit for bit
    the one it gives.
    """
    if not uut.powered:
        raise NotPoweredModel("model is not powered")
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
