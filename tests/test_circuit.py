"""DC/transient solver tests against closed-form and analytic oracles."""

import math
import sys
import threading
from collections.abc import Mapping
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcit.circuit import (
    DC_MEMO_SIZE,
    GOOD_CONTACT,
    KCL_TOLERANCE_AMPS,
    RELATIVE_TOLERANCE,
    VOLTS_TOLERANCE,
    Bench,
    ContactState,
    DiodeModel,
    EsdPair,
    Led,
    OpenPad,
    PadCircuit,
    PadReading,
    Resistive,
    SeriesDiode,
    SolveResult,
    Stimulus,
    TransientState,
    UutModel,
    powered_consumption,
    solve_dc,
    solve_rail_sense,
    step_transient,
    wear_step,
)
from vcit.errors import (
    NonConvergence,
    NoPathToRail,
    NotPoweredModel,
    SimulationFailure,
    UnknownPad,
)
from vcit import prober
from vcit.circuit import _ended, _newton_step, _solve_network
from vcit.fixture import load_default_fixture
from vcit.prober import ProtectionLimits, StimulusWaveform, execute

VT = 0.02585


def shockley_forward_volts(amps, sat, n=1.0, vt=VT):
    """Independent closed-form inversion of the diode law (no series R)."""
    return n * vt * math.log(1.0 + amps / sat)


def diode_pad(sat=1e-14, n=1.0, vt=VT, rs=0.0):
    return PadCircuit(SeriesDiode(DiodeModel(sat, n, vt, rs)))


def esd_uut(n_pads=3, vcc_path=25.0):
    d = DiodeModel(1e-14)
    pads = tuple((f"p{i}", PadCircuit(EsdPair(d, d))) for i in range(1, n_pads + 1))
    return UutModel(pads=pads, vcc_path_ohms=vcc_path)


def kcl_residual(uut, contacts, stimuli, result, companions=None):
    """Recompute KCL at every node from the returned voltages, using a
    test-local evaluation of each branch, independent of the solver path.
    companions maps a pad id to its capacitor's (conductance, history)."""

    def branch_current(diode, v):
        # test-local Shockley with inner bisection for series resistance
        if diode.series_resistance == 0.0:
            return diode.saturation_current * math.expm1(v / (diode.ideality * diode.thermal_voltage))
        lo, hi = min(0.0, v), max(0.0, v)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            i = diode.saturation_current * math.expm1(mid / (diode.ideality * diode.thermal_voltage))
            if i * diode.series_resistance + mid - v > 0:
                hi = mid
            else:
                lo = mid
        mid = 0.5 * (lo + hi)
        return diode.saturation_current * math.expm1(mid / (diode.ideality * diode.thermal_voltage))

    gmin = 1e-12
    vv, vg = result.vcc_volts, result.gnd_volts
    worst = 0.0
    into_vcc = 0.0
    into_gnd = 0.0
    for pid, pc in uut.pads:
        vp = result[pid].pad_volts
        k = pc.kind
        iv = ig = 0.0
        if isinstance(k, EsdPair):
            iv = branch_current(k.to_vcc, vp - vv) + gmin * (vp - vv)
            ig = -(branch_current(k.to_gnd, vg - vp) + gmin * (vg - vp))
        elif isinstance(k, SeriesDiode):
            if k.polarity == 1:
                ig = branch_current(k.diode, vp - vg) + gmin * (vp - vg)
            else:
                ig = -(branch_current(k.diode, vg - vp) + gmin * (vg - vp))
        elif isinstance(k, Led):
            ig = branch_current(k.diode, vp - vg) + gmin * (vp - vg)
        elif isinstance(k, Resistive):
            ig = (vp - vg) / k.ohms
        into_vcc += iv
        into_gnd += ig
        stim = stimuli.get(pid)
        i_in = 0.0
        if stim is not None:
            c = contacts.get(pid, ContactState(0.0))
            if stim.mode == "current":
                i_in = 0.0 if c.is_open else stim.level
            elif stim.source_ohms + c.effective_ohms == 0.0:
                # An ideal drive pins the pad at its level and delivers what
                # the pad draws: the reading's current must be that.
                if vp != stim.level:
                    return math.inf
                i_in = result[pid].amperes
            else:
                i_in = (stim.level - vp) / (stim.source_ohms + c.effective_ohms)
        g, history = (companions or {}).get(pid, (0.0, 0.0))
        worst = max(worst, abs(iv + ig + gmin * vp + g * vp - history - i_in))
    if uut.vcc_path_ohms > 0.0:
        worst = max(worst, abs(vv / uut.vcc_path_ohms - into_vcc))
    if uut.gnd_path_ohms > 0.0:
        worst = max(worst, abs(vg / uut.gnd_path_ohms - into_gnd))
    return worst


def dense_newton(uut, contacts, stimuli, companions, start=None):
    """Test-local reference: damped Newton on the full Jacobian, solved
    densely by np.linalg.solve, to max|F| < 1e-9 A.  Each step takes the
    first of x + t*dx, t = 1, 1/2, ... (64 trials) whose max|F| is below the
    current one, and a start none of whose trials is lower is given up.
    start is the previous transient state, whose pad volts (and rail volts,
    when it carries them) are the warm start point when their max|F| is
    below that at rest; a warm start that does not converge is followed by
    one at rest, its iterations counted too.

    Returns (iterations, {pad id: pad volts}, vcc volts, gnd volts), or
    None when 200 iterations do not converge.
    """
    ids = [pid for pid, _ in uut.pads]
    n = len(ids)
    rail_node = {}
    terminations = []
    for rail, ohms in (("VCC", uut.vcc_path_ohms), ("GND", uut.gnd_path_ohms)):
        if ohms > 0.0:
            rail_node[rail] = n + len(terminations)
            terminations.append(1.0 / ohms)
    size = n + len(terminations)
    branches = [(i, law, rail_node.get(rail), s)
                for i, (_, pc) in enumerate(uut.pads) for law, rail, s in pc.kind.branches]

    def system(x):
        xs = x.tolist()
        F = np.zeros(size)
        J = np.zeros((size, size))
        for k, g in enumerate(terminations):
            F[n + k] += g * xs[n + k]
            J[n + k, n + k] += g
        for i, law, r, s in branches:
            v = s * (xs[i] - (0.0 if r is None else xs[r]))
            current = s * (law.current(v) + law.leak * v)
            g = law.conductance(v) + law.leak
            F[i] += current
            J[i, i] += g
            if r is not None:
                F[r] -= current
                J[r, r] += g
                J[i, r] -= g
                J[r, i] -= g
        for i, pid in enumerate(ids):
            g, history = companions.get(pid, (0.0, 0.0))
            F[i] += 1e-12 * xs[i] + g * xs[i] - history
            J[i, i] += 1e-12 + g
            stim = stimuli.get(pid)
            contact = contacts.get(pid, GOOD_CONTACT)
            if stim is None or (stim.mode == "current" and contact.is_open):
                continue
            if stim.mode == "current":
                F[i] -= stim.level
            else:
                g = 1.0 / (stim.source_ohms + contact.effective_ohms)
                F[i] -= (stim.level - xs[i]) * g
                J[i, i] += g
        return F, J

    def worst(x):
        return float(np.max(np.abs(system(x)[0]), initial=0.0))

    starts = [np.zeros(size)]
    if start is not None:
        rails = {"VCC": getattr(start, "vcc_volts", 0.0), "GND": getattr(start, "gnd_volts", 0.0)}
        warm = np.array([start.get(pid, 0.0) for pid in ids] + [rails[r] for r in rail_node])
        if worst(warm) < worst(starts[0]):
            starts.insert(0, warm)  # and at rest again if it does not converge
    spent = 0
    for x in starts:
        for iteration in range(201):
            F, J = system(x)
            residual = float(np.max(np.abs(F), initial=0.0))
            if residual < 1e-9:
                xs = x.tolist() + [0.0]  # the datum
                return (spent + iteration, dict(zip(ids, xs)), xs[rail_node.get("VCC", size)],
                        xs[rail_node.get("GND", size)])
            if iteration == 200:
                break
            dx = np.linalg.solve(J, -F)
            trials = (x + 0.5 ** k * dx for k in range(64))
            x = next((y for y in trials if worst(y) < residual), None)  # NaN is never lower
            if x is None:
                break
        spent += iteration
    return None


# Signs of current each kind conducts; an open pad conducts none, so it is
# only driven in voltage mode.
CONDUCTS = {"esd": (1, -1), "diode": (1,), "diode-": (-1,), "led": (1,), "res": (1, -1),
            "open": ()}


def kind_circuit(draw, kind, d):
    """A pad circuit of the given CONDUCTS kind, its diodes d."""
    return {
        "esd": lambda: EsdPair(d, d),
        "diode": lambda: SeriesDiode(d),
        "diode-": lambda: SeriesDiode(d, polarity=-1),
        "led": lambda: Led(DiodeModel(1e-18, 2.0), "red"),
        "res": lambda: Resistive(draw(st.floats(10.0, 300.0))),
        "open": OpenPad,
    }[kind]()


def companions_of(uut, state, dt):
    """Each capacitive pad's implicit-Euler (conductance, history) from the
    previous pad volts in state."""
    return {
        pid: (pc.shunt_capacitance / dt, pc.shunt_capacitance / dt * state.get(pid, 0.0))
        for pid, pc in uut.pads
        if pc.shunt_capacitance > 0.0
    }


@st.composite
def networks(draw):
    """A random bench (every pad kind, pinned or resistive rails, good, worn
    or open needles, capacitance or none) with current and voltage drives
    and a previous transient state, rails included: (uut, contacts, stimuli,
    state, dt)."""
    d = DiodeModel(draw(st.floats(1e-15, 1e-12)), draw(st.floats(1.0, 2.0)), VT,
                   draw(st.sampled_from([0.0, 2.0])))
    pads, contacts, stimuli, state = [], {}, {}, {}
    for i in range(draw(st.integers(1, 5))):
        pid = f"p{i}"
        kind = draw(st.sampled_from(sorted(CONDUCTS)))
        circuit = kind_circuit(draw, kind, d)
        capacitance = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-6)))
        pads.append((pid, PadCircuit(circuit, capacitance)))
        ohms = draw(st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1000.0), st.just(2e6)))
        contacts[pid] = ContactState(ohms)
        mode = draw(st.sampled_from(("current", "voltage", None) if CONDUCTS[kind]
                                    else ("voltage", None)))
        if mode == "current":
            sign = draw(st.sampled_from(CONDUCTS[kind]))
            stimuli[pid] = Stimulus(mode, sign * draw(st.floats(1e-5, 5e-3)))
        elif mode == "voltage":
            stimuli[pid] = Stimulus(mode, draw(st.floats(-2.0, 2.0)), draw(st.floats(1.0, 1000.0)))
        state[pid] = draw(st.floats(-1.0, 1.0))
    uut = UutModel(
        pads=tuple(pads),
        vcc_path_ohms=draw(st.one_of(st.just(0.0), st.floats(1.0, 50.0))),
        gnd_path_ohms=draw(st.one_of(st.just(0.0), st.floats(1.0, 20.0))),
    )
    state = TransientState(state, draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    return uut, contacts, stimuli, state, draw(st.floats(1e-6, 1e-3))


def bridged_rails():
    """A driven resistor lifts GND 1.4 V above VCC, so both diodes of the
    ESD pad conduct and couple the two rails through it."""
    d = DiodeModel(1e-14)
    uut = UutModel(
        pads=(("r", PadCircuit(Resistive(10.0))), ("e", PadCircuit(EsdPair(d, d)))),
        vcc_path_ohms=25.0,
        gnd_path_ohms=200.0,
    )
    return (uut, {}, {"r": Stimulus("voltage", 2.0, 1.0)}, TransientState({"r": 0.0, "e": 0.0}, 0.0, 0.0),
            1e-3, {})


# The reference solver: nested bisection, sharing no step, start or
# tolerance with the product.  Given the rails, each pad's KCL is strictly
# increasing in its own voltage (every law is increasing and GMIN > 0); the
# network's KCL is an M-function, so with the pads solved each rail's
# reduced KCL is strictly increasing in that rail's voltage, and every
# solution is nondecreasing in every rail voltage (W. C. Rheinboldt, J.
# Math. Anal. Appl. 32, 1970).


def law_current(law, v):
    """Port current of a law at port voltage v: a resistor's v / R, or the
    Shockley law, its junction voltage found by bisection under a series
    resistance.  An exponent that overflows reads as an infinite current of
    its sign, which is all a bisection needs (every root here lies far below
    the law's exponent cap)."""
    if isinstance(law, Resistive):
        return v / law.ohms
    nvt = law.ideality * law.thermal_voltage

    def junction(vd):
        try:
            return law.saturation_current * math.expm1(vd / nvt)
        except OverflowError:
            return math.inf

    rs = law.series_resistance
    if rs == 0.0:
        return junction(v)
    # The junction current J lies between 0 and junction(v) going forward,
    # between -Is and 0 in reverse, and the junction sits at v - J * rs.
    if v > 0.0:
        lo, hi = max(0.0, v - rs * junction(v)), v
    else:
        lo, hi = v, min(0.0, v + rs * law.saturation_current)
    while hi - lo > 1e-13 * (1e-3 + abs(v)):
        mid = 0.5 * (lo + hi)
        if junction(mid) * rs + mid > v:
            hi = mid
        else:
            lo = mid
    return junction(0.5 * (lo + hi))


def bisection_width(v):
    return 1e-12 * (1.0 + abs(v))


def bisect(f, lo=None, hi=None):
    """The root of an increasing f: bisection of [lo, hi] to
    bisection_width.  A bound not given is found by doubling a step away
    from the other one (or from 0) until f changes sign; every point
    evaluated becomes the bound on its side.  Returns (root, whatever f
    returns at it)."""
    step = 1.0
    while lo is None:
        guess = (0.0 if hi is None else hi) - step
        if f(guess)[0] <= 0.0:
            lo = guess
        else:
            hi = guess
        step *= 2.0
    step = 1.0
    while hi is None:
        guess = lo + step
        if f(guess)[0] >= 0.0:
            hi = guess
        else:
            lo = guess
        step *= 2.0
    while hi - lo > bisection_width(0.5 * (lo + hi)):
        mid = 0.5 * (lo + hi)
        if f(mid)[0] > 0.0:
            hi = mid
        else:
            lo = mid
    mid = 0.5 * (lo + hi)
    return mid, f(mid)[1]


def reference_solve(uut, contacts, stimuli, companions):
    """Node voltages by nested bisection: ({pad id: pad volts}, {rail:
    volts}) for each rail with a path.  An ideal voltage drive (0 Ohm in
    all) pins its pad at the level."""
    paths = {rail: ohms for rail, ohms in (("VCC", uut.vcc_path_ohms), ("GND", uut.gnd_path_ohms))
             if ohms > 0.0}
    pads = []  # (pad id, branches, conductance to ground, constant term, pinned level)
    for pid, pc in uut.pads:
        g, history = companions.get(pid, (0.0, 0.0))
        g += 1e-12  # GMIN
        constant, pinned = -history, None
        stim, contact = stimuli.get(pid), contacts.get(pid, GOOD_CONTACT)
        if stim is not None and stim.mode == "current":
            constant -= 0.0 if contact.is_open else stim.level
        elif stim is not None:
            ohms = stim.source_ohms + contact.effective_ohms
            if ohms == 0.0:
                pinned = stim.level
            else:
                g += 1.0 / ohms
                constant -= stim.level / ohms
        branches = [(law, rail, s, 1e-12 if isinstance(law, DiodeModel) else 0.0)
                    for law, rail, s in pc.kind.branches]
        pads.append((pid, branches, g, constant, pinned))

    def amps(branch, x, rails):
        law, rail, s, leak = branch
        v = s * (x - rails.get(rail, 0.0))
        return s * (law_current(law, v) + leak * v)

    def bound(sol, key, sign):
        """sol[key] moved out by two bisection widths, or None."""
        return None if sol is None else sol[key] + sign * 2.0 * bisection_width(sol[key])

    solved = {}  # (pad id, the volts of each rail it touches): pad volts

    def pad_volts(pad, rails, low, high):
        pid, branches, g, constant, pinned = pad
        if pinned is not None:
            return pinned
        key = (pid, *(rails.get(b[1]) for b in branches))
        if key not in solved:
            solved[key] = bisect(
                lambda x: (sum(amps(b, x, rails) for b in branches) + g * x + constant, None),
                bound(low, pid, -1), bound(high, pid, 1))[0]
        return solved[key]

    def solve(free, held, low, high):
        """{node: volts} for the pads and the free rails, given the held
        rails.  low and high are such solutions for held rails at or below
        and at or above these (or None), so they bound it."""
        if not free:
            return {pad[0]: pad_volts(pad, held, low, high) for pad in pads}
        rail, inner = free[0], free[1:]

        def residual(v):
            rails = {**held, rail: v}
            sol = solve(inner, rails, brackets[0], brackets[1])
            rails.update((r, sol[r]) for r in inner)
            sol[rail] = v
            into = sum(amps(b, sol[pid], rails) for pid, branches, *_ in pads
                       for b in branches if b[1] == rail)
            f = v / paths[rail] - into
            brackets[f > 0.0] = sol  # the solution bounds those on its side
            return f, sol

        brackets = [low, high]
        return bisect(residual, bound(low, rail, -1), bound(high, rail, 1))[1]

    # GND outermost: only the pads of an EsdPair touch VCC, so only they
    # move while VCC is bisected.
    sol = solve(sorted(paths, key="GND".__ne__), {}, None, None)
    return {pid: sol[pid] for pid, *_ in pads}, {rail: sol[rail] for rail in paths}


@st.composite
def reference_networks(draw):
    """A bench for the reference solver: every pad kind, 1 to 8 pads, 1 or
    2 rail paths, needles of 0 Ohm to 1 kOhm or open, current levels of
    either sign from 1 pA to the 50 mA limit, voltage drives from a 0 Ohm
    source or more, capacitance or none, and a previous transient state.
    A pad is sometimes repeated: the same circuit, capacitance, stimulus and
    state, on a needle of its own, equal to the pad's when it is driven.
    (uut, contacts, stimuli, state, dt, copies), where copies maps each
    repeat's id to the id of the pad it repeats."""
    d = DiodeModel(draw(st.floats(1e-15, 1e-12)), draw(st.floats(1.0, 2.0)), VT,
                   draw(st.sampled_from([0.0, 2.0])))
    needle = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.just(2e6))
    pads, contacts, stimuli, state, copies = [], {}, {}, {}, {}
    for i in range(draw(st.integers(1, 8))):
        pid = f"p{i}"
        kind = draw(st.sampled_from(sorted(CONDUCTS)))
        capacitance = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-6)))
        circuit = PadCircuit(kind_circuit(draw, kind, d), capacitance)
        pads.append((pid, circuit))
        contacts[pid] = ContactState(draw(needle))
        mode = draw(st.sampled_from(("current", "voltage", None)))
        if mode == "current":
            amps = 10.0 ** draw(st.floats(-12.0, math.log10(0.05)))
            stimuli[pid] = Stimulus(mode, draw(st.sampled_from((1.0, -1.0))) * amps)
        elif mode == "voltage":
            stimuli[pid] = Stimulus(mode, draw(st.floats(-2.0, 2.0)),
                                    draw(st.one_of(st.just(0.0), st.floats(0.1, 1000.0))))
        state[pid] = draw(st.floats(-1.0, 1.0))
        for j in range(draw(st.sampled_from((0, 0, 1, 3)))):
            copy = f"{pid}.{j}"
            copies[copy] = pid
            pads.append((copy, circuit))
            contacts[copy] = ContactState(contacts[pid].resistance if mode else draw(needle))
            if mode:
                stimuli[copy] = stimuli[pid]
            state[copy] = state[pid]
    vcc, gnd = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    uut = UutModel(
        pads=tuple(pads),
        vcc_path_ohms=draw(st.floats(1.0, 50.0)) if vcc else 0.0,
        gnd_path_ohms=draw(st.floats(1.0, 20.0)) if gnd else 0.0,
    )
    state = TransientState(state, draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    return uut, contacts, stimuli, state, draw(st.floats(1e-6, 1e-3)), copies


def moved(kind, ulps):
    """The pad kind with each law's saturation current, or a resistor's
    ohms, moved ulps up: equal to the kind but for rounding."""
    def law(old):
        field_name = "ohms" if isinstance(old, Resistive) else "saturation_current"
        value = getattr(old, field_name)
        for _ in range(ulps):
            value = math.nextafter(value, math.inf)
        return replace(old, **{field_name: value})

    if isinstance(kind, EsdPair):
        return EsdPair(law(kind.to_vcc), law(kind.to_gnd))
    if isinstance(kind, (SeriesDiode, Led)):
        return replace(kind, diode=law(kind.diode))
    if isinstance(kind, Resistive):
        return law(kind)
    return kind


class TestSolveDc:
    def test_diode_matches_closed_form(self):
        uut = UutModel(pads=(("p1", diode_pad()),))
        contacts = {"p1": ContactState(0.1)}
        stim = {"p1": Stimulus("current", 1e-3)}
        result = solve_dc(uut, contacts, stim)
        expected = shockley_forward_volts(1e-3, 1e-14) + 1e-3 * 0.1
        assert result["p1"].volts == pytest.approx(expected, abs=1e-6)
        assert round(result["p1"].volts, 4) == 0.6548  # the few-hundred-mV pad signature

    def test_all_zero_stimuli_all_zero_responses(self):
        uut = esd_uut()
        contacts = {f"p{i}": ContactState(0.1) for i in range(1, 4)}
        result = solve_dc(uut, contacts, {f"p{i}": Stimulus("current", 0.0) for i in range(1, 4)})
        for pid in ("p1", "p2", "p3"):
            assert result[pid].volts == 0.0
            assert result[pid].amperes == 0.0
            assert result[pid].pad_volts == 0.0
        assert result.vcc_volts == 0.0

    def test_open_contact_leaves_pad_at_rest(self):
        uut = UutModel(pads=(("p1", diode_pad()),))
        contacts = {"p1": ContactState(2e6)}  # past the open threshold
        result = solve_dc(uut, contacts, {"p1": Stimulus("current", 1e-3)})
        assert abs(result["p1"].pad_volts) < 1e-9
        assert result["p1"].amperes == 0.0

    def test_unknown_pad(self):
        uut = UutModel(pads=(("p1", diode_pad()),))
        with pytest.raises(UnknownPad):
            solve_dc(uut, {}, {"nope": Stimulus("current", 1e-3)})

    def test_pad_ids_must_be_unique(self):
        with pytest.raises(ValueError, match="^pad ids must be unique$"):
            UutModel(pads=(("p1", diode_pad()), ("p2", PadCircuit(OpenPad())), ("p1", PadCircuit(OpenPad()))))

    def test_pad_reads_each_pads_circuit(self):
        d = DiodeModel(1e-14)
        pads = (("b", PadCircuit(EsdPair(d, d))), ("a", PadCircuit(EsdPair(d, d), 1e-9)),
                ("c", PadCircuit(OpenPad())), ("d", PadCircuit(EsdPair(d, d))))
        uut = UutModel(pads)
        assert all(uut.pad(pid) is pc for pid, pc in pads)
        with pytest.raises(UnknownPad, match="^no such pad: 'e'$"):
            uut.pad("e")

    @pytest.mark.parametrize("dt", [1e-3, 5e-324], ids=["dt", "overflowing-dt"])
    @pytest.mark.parametrize("carried", [False, True], ids=["from-rest", "carried"])
    def test_unknown_pad_in_a_step(self, carried, dt):
        # Refused before the C/dt check: 1 nF over 5e-324 s is C/dt = inf.
        d = DiodeModel(1e-14)
        uut = UutModel(pads=(("c", PadCircuit(EsdPair(d, d), 1e-9)),))
        drive = {"c": Stimulus("current", 1e-3)}
        state = step_transient(uut, {}, drive, None, 1e-3)[0] if carried else None
        with pytest.raises(UnknownPad, match="no such pad: 'nope'"):
            step_transient(uut, {}, {**drive, "nope": Stimulus("current", 1e-3)}, state, dt)

    def test_series_resistance_included(self):
        uut = UutModel(pads=(("p1", diode_pad(rs=10.0)),))
        result = solve_dc(uut, {"p1": ContactState(0.0)}, {"p1": Stimulus("current", 1e-3)})
        expected = shockley_forward_volts(1e-3, 1e-14) + 1e-3 * 10.0
        assert result["p1"].volts == pytest.approx(expected, abs=1e-6)

    def test_determinism_bit_identical(self):
        uut = esd_uut()
        contacts = {f"p{i}": ContactState(0.1) for i in range(1, 4)}
        stim = {f"p{i}": Stimulus("current", 5e-3) for i in range(1, 4)}
        a = solve_dc(uut, contacts, stim)
        b = solve_dc(uut, contacts, stim)
        assert all(a[p].volts == b[p].volts for p in ("p1", "p2", "p3"))
        assert a.vcc_volts == b.vcc_volts

    @given(
        sat=st.floats(1e-15, 1e-12),
        n=st.floats(1.0, 2.0),
        amps_lo=st.floats(1e-4, 5e-3),
        amps_hi=st.floats(5e-3, 1e-2),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_injected_current(self, sat, n, amps_lo, amps_hi):
        uut = UutModel(pads=(("p1", diode_pad(sat=sat, n=n)),))
        contacts = {"p1": ContactState(0.1)}
        v_lo = solve_dc(uut, contacts, {"p1": Stimulus("current", amps_lo)})["p1"].volts
        v_hi = solve_dc(uut, contacts, {"p1": Stimulus("current", amps_hi)})["p1"].volts
        assert v_hi >= v_lo

    def test_kcl_residual_randomized_fixtures(self):
        rng = np.random.default_rng(42)
        seen = set()
        for _ in range(80):
            n_pads = int(rng.integers(1, 5))
            pads = []
            stimuli = {}
            d = DiodeModel(float(rng.uniform(1e-15, 1e-12)), float(rng.uniform(1.0, 2.0)))
            led = DiodeModel(1e-18, 2.0)
            for i in range(n_pads):
                pid = f"p{i}"
                kind = str(rng.choice(list(CONDUCTS)))
                circuit = {
                    "esd": lambda: EsdPair(d, d),
                    "diode": lambda: SeriesDiode(d),
                    "diode-": lambda: SeriesDiode(d, polarity=-1),
                    "led": lambda: Led(led, "red"),
                    "res": lambda: Resistive(float(rng.uniform(10, 300))),
                    "open": OpenPad,
                }[kind]()
                pads.append((pid, PadCircuit(circuit)))
                if CONDUCTS[kind] and rng.random() < 0.5:
                    sign = float(rng.choice(CONDUCTS[kind]))
                    stimuli[pid] = Stimulus("current", sign * float(rng.uniform(1e-4, 5e-3)))
                else:
                    level = float(rng.uniform(-1.0, 1.0))
                    stimuli[pid] = Stimulus("voltage", level, float(rng.uniform(10, 1000)))
                seen.add((kind, stimuli[pid].mode))
            gnd_path = float(rng.choice([0.0, rng.uniform(1, 20)]))
            uut = UutModel(
                pads=tuple(pads), vcc_path_ohms=float(rng.uniform(1, 50)), gnd_path_ohms=gnd_path
            )
            seen.add(("gnd-path", gnd_path > 0.0))
            contacts = {f"p{i}": ContactState(float(rng.uniform(0.01, 1.0))) for i in range(n_pads)}
            result = solve_dc(uut, contacts, stimuli)
            assert kcl_residual(uut, contacts, stimuli, result) < 1e-9
        # every kind in each mode it can be driven in, and both GND terminations
        assert seen == {(k, "current") for k, signs in CONDUCTS.items() if signs} | {
            (k, "voltage") for k in CONDUCTS
        } | {("gnd-path", True), ("gnd-path", False)}


class TestNewtonStep:
    """The rail-elimination step against a dense solve of the full Jacobian."""

    @given(st.integers(1, 8), st.integers(0, 2), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_reference(self, n, n_rails, data):
        # An arrowhead Jacobian: pad diagonals, rail diagonals, pad-rail
        # couplings -c_ai, as the solver's conductances make it.  Pad node i
        # stands for m[i] identical pads, each a row and column of its own.
        conductance = st.floats(1e-6, 10.0)
        coupling = [[data.draw(st.one_of(st.just(0.0), conductance)) for _ in range(n)]
                    for _ in range(n_rails)]
        ground = [data.draw(conductance) for _ in range(n)]
        rail_g = [data.draw(st.floats(1e-3, 10.0)) for _ in range(n_rails)]
        F = [data.draw(st.floats(-1.0, 1.0)) for _ in range(n + n_rails)]
        m = [data.draw(st.integers(1, 4)) for _ in range(n)]
        copies = [i for i in range(n) for _ in range(m[i])]  # the pad node of each row
        size = len(copies)
        J = np.diag([ground[i] for i in copies] + rail_g)
        for a, c in enumerate(coupling):
            for row, i in enumerate(copies):
                J[row, row] += c[i]
                J[size + a, size + a] += c[i]
                J[row, size + a] = J[size + a, row] = -c[i]
        dense = np.linalg.solve(J, -np.array([F[i] for i in copies] + F[n:]))
        step = _newton_step(F, coupling + [ground], rail_g, m)
        np.testing.assert_allclose(step, [dense[copies.index(i)] for i in range(n)] + list(dense[size:]),
                                   rtol=1e-9, atol=1e-9)
        # Every copy takes the one step of its node.
        np.testing.assert_allclose(dense[:size], [step[i] for i in copies], rtol=1e-9, atol=1e-9)

    def test_no_dense_linear_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        d = DiodeModel(1e-14)
        uut = UutModel(
            pads=(("esd", PadCircuit(EsdPair(d, d), 1e-9)), ("led", PadCircuit(Led(d)))),
            vcc_path_ohms=25.0,
            gnd_path_ohms=5.0,
        )
        contacts = {"esd": ContactState(0.1), "led": ContactState(0.1)}
        stimuli = {"esd": Stimulus("current", 1e-3), "led": Stimulus("voltage", 0.8, 100.0)}
        dc = solve_dc(uut, contacts, stimuli)
        assert kcl_residual(uut, contacts, stimuli, dc) < 1e-9
        state, result = step_transient(uut, contacts, stimuli, None, 1e-3)
        companions = {"esd": (1e-6, 0.0)}
        assert kcl_residual(uut, contacts, stimuli, result, companions) < 1e-9
        assert state["esd"] == result["esd"].pad_volts


class TestReferenceSolver:
    """solve_dc and step_transient against nested bisection: every pad and
    rail within 1e-6 V + 1e-6 * |v|."""

    @given(reference_networks())
    @example(bridged_rails())
    @settings(max_examples=100, deadline=None)
    def test_volts_match_nested_bisection(self, network):
        uut, contacts, stimuli, state, dt, copies = network
        dc = solve_dc(uut, contacts, stimuli)
        companions = companions_of(uut, state, dt)
        transient = step_transient(uut, contacts, stimuli, state, dt)[1]
        # The same board with each copy's laws moved a different number of
        # ulps, so that no copy shares a node with another pad.
        apart = replace(uut, pads=tuple(
            (pid, replace(pc, kind=moved(pc.kind, int(pid.split(".")[1]) + 1)) if pid in copies else pc)
            for pid, pc in uut.pads))
        apart_dc = solve_dc(apart, contacts, stimuli)
        apart_transient = step_transient(apart, contacts, stimuli, state, dt)[1]
        for result, comps, separate in ((dc, {}, apart_dc), (transient, companions, apart_transient)):
            pad_volts, rail_volts = reference_solve(uut, contacts, stimuli, comps)
            got = {pid: result[pid].pad_volts for pid in pad_volts}
            got.update((rail, result.vcc_volts if rail == "VCC" else result.gnd_volts)
                       for rail in rail_volts)
            for node, volts in {**pad_volts, **rail_volts}.items():
                assert abs(got[node] - volts) <= 1e-6 + 1e-6 * abs(volts), node
            assert kcl_residual(uut, contacts, stimuli, result, comps) < 1e-9
            # A copy reads its pad's node bit for bit, through its own needle.
            for copy, pid in copies.items():
                assert repr(result[copy].pad_volts) == repr(result[pid].pad_volts), copy
                if contacts[copy] == contacts[pid]:
                    assert repr(result[copy]) == repr(result[pid]), copy
            # and agrees with the copy that does not share it to 1 nV, or to
            # 1e-9 of the volts where 1 nV is below a float's spacing.
            for node, volts in {**got, "VCC": result.vcc_volts, "GND": result.gnd_volts}.items():
                other = separate[node].pad_volts if node in pad_volts else getattr(
                    separate, f"{node.lower()}_volts")
                assert abs(volts - other) <= 1e-9 + 1e-9 * abs(volts), node
        assert repr(solve_dc(uut, contacts, stimuli)) == repr(dc)  # bit-identical


class TestNonFinite:
    """A non-finite residual ends the solve at the iteration it appears in."""

    # The companion of 1 nF over dt = 5e-324 s is C/dt = inf.
    TINY_DT = 5e-324

    @pytest.mark.parametrize("cap_first, warm", [(True, False), (False, False), (True, True), (False, True)],
                             ids=["nan-first", "nan-last", "nan-first-warm", "nan-last-warm"])
    def test_step_transient_fails_at_once(self, cap_first, warm):
        pads = [("c", PadCircuit(OpenPad(), 1e-9)), ("r", PadCircuit(Resistive(100.0)))]
        uut = UutModel(pads=tuple(pads if cap_first else pads[::-1]))
        stimuli = {"r": Stimulus("current", 1e-3)}
        state = None
        if warm:
            # From an ordinary step's end: c charged to 1 V, r at 0.1 V.
            state, _ = step_transient(uut, {}, {**stimuli, "c": Stimulus("current", 1e-6)}, None, 1e-3)
            assert 0.0 not in state.values()
        with pytest.raises(NonConvergence) as info:
            step_transient(uut, {}, stimuli, state, self.TINY_DT)
        assert info.value.iterations == 0
        assert math.isnan(info.value.residual)

    def test_solve_dc_fails_at_once(self):
        # A rail path of 1e-320 Ohm has the conductance 1/1e-320 = inf.
        uut = UutModel(pads=(("p1", diode_pad()),), gnd_path_ohms=1e-320)
        with pytest.raises(NonConvergence) as info:
            solve_dc(uut, {}, {"p1": Stimulus("current", 1e-3)})
        assert info.value.iterations == 0
        assert not math.isfinite(info.value.residual)

    def test_execute_fails_at_once(self):
        d = DiodeModel(1e-14)
        uut = UutModel(pads=(("c", PadCircuit(EsdPair(d, d), 1e-9)),))
        waveform = StimulusWaveform("current", (1e-3,), self.TINY_DT, ("c",))
        with pytest.raises(SimulationFailure, match="after 0 iterations"):
            execute(waveform, ProtectionLimits(2.0, 0.05), Bench(uut, {}))


class TestDampedNewton:
    """Each pad settles by bracketed, junction-limited Newton, and the rails
    by Newton on their reduced KCL."""

    def test_led_behind_a_gnd_path_converges(self):
        # The GND path lifts the LED node to about 2.6 V.
        uut = UutModel(pads=(("s", diode_pad()), ("l", PadCircuit(Led(DiodeModel(1e-18, 2.0))))),
                       vcc_path_ohms=0.0, gnd_path_ohms=76.0)
        contacts = {"s": ContactState(1e-3), "l": ContactState(1e-3)}
        stimuli = {"s": Stimulus("current", 4.7e-3), "l": Stimulus("current", 4.7e-3)}
        result = solve_dc(uut, contacts, stimuli)
        assert result.iterations <= 20
        assert result["l"].pad_volts > 2.5
        assert kcl_residual(uut, contacts, stimuli, result) < 1e-9

    @pytest.mark.parametrize("level", [0.3, 0.5, 1.0])
    def test_ideal_drive_pins_its_pad(self, level):
        # An ideal source through a 0 Ohm needle makes the pad a known node
        # at the level, which draws what its branches and GMIN leak carry.
        d = DiodeModel(1e-14)
        uut = UutModel(pads=(("p", PadCircuit(EsdPair(d, d))),))
        contacts, stimuli = {"p": ContactState(0.0)}, {"p": Stimulus("voltage", level)}
        result = solve_dc(uut, contacts, stimuli)
        assert result["p"].pad_volts == result["p"].volts == level
        assert result["p"].amperes > 0.0
        assert result.vcc_volts > 0.0
        assert kcl_residual(uut, contacts, stimuli, result) < 1e-9


def law_calls(monkeypatch):
    """Record (law, method) for every call of the diode and resistor laws."""
    calls = []
    for cls in (DiodeModel, Resistive):
        for name in ("current", "conductance"):
            def counted(law, v, method=getattr(cls, name), name=name):
                calls.append((law, name))
                return method(law, v)
            monkeypatch.setattr(cls, name, counted)
    return calls


class TestNewtonWork:
    """Junction limiting brings a pad to its forward voltage in a few law
    calls, and a settled pad settled again at the same rails stays put."""

    def test_lone_diode_from_rest(self, monkeypatch):
        uut = UutModel(pads=(("p", diode_pad()),))
        calls = law_calls(monkeypatch)
        result = solve_dc(uut, {}, {"p": Stimulus("current", 1e-3)})
        assert sum(name == "current" for _, name in calls) <= 4
        assert result["p"].pad_volts == pytest.approx(shockley_forward_volts(1e-3, 1e-14), abs=1e-9)

    def test_diode_behind_a_series_resistance_from_rest(self, monkeypatch):
        # Limiting acts on the junction, not the port: at 1 A the 100 Ohm
        # resistance takes 100 V, which port steps of a few nVt each would
        # not cover in the budget.
        uut = UutModel(pads=(("p", diode_pad(rs=100.0)),))
        calls = law_calls(monkeypatch)
        result = solve_dc(uut, {}, {"p": Stimulus("current", 1.0)})
        assert sum(name == "current" for _, name in calls) <= 20
        # The two GMIN leaks carry 2e-10 A of the 1 A at 100 V.
        assert result["p"].pad_volts == pytest.approx(
            shockley_forward_volts(1.0 - 2e-10, 1e-14) + (1.0 - 2e-10) * 100.0, abs=1e-9)

    def board(self):
        """A voltage drive lifts VCC through an ESD pad, over a few rail
        steps; an undriven ESD pad sits on VCC, and a driven series diode
        goes to the pinned GND only.  Each pad has laws of its own."""
        esd, floating, grounded = (DiodeModel(1e-14) for _ in range(3))
        uut = UutModel(pads=(("esd", PadCircuit(EsdPair(esd, esd))),
                             ("floating", PadCircuit(EsdPair(floating, floating))),
                             ("grounded", PadCircuit(SeriesDiode(grounded)))),
                       vcc_path_ohms=50.0, gnd_path_ohms=0.0)
        stimuli = {"esd": Stimulus("voltage", 1.2, 10.0), "grounded": Stimulus("current", 1e-3)}
        return uut, stimuli, floating, grounded

    def test_pad_on_pinned_rails_reads_as_alone(self):
        # Settled again after every VCC step, the pad on the pinned GND only
        # stays where its first settle left it.
        uut, stimuli, _, grounded = self.board()
        alone = UutModel(pads=(("grounded", PadCircuit(SeriesDiode(grounded))),))
        result = solve_dc(uut, {}, stimuli)
        lone = solve_dc(alone, {}, {"grounded": stimuli["grounded"]})
        assert result.iterations >= 2  # VCC moved, and more than once
        assert repr(result["grounded"]) == repr(lone["grounded"])

    def test_pad_on_a_moving_rail_settles_again(self, monkeypatch):
        uut, stimuli, floating, _ = self.board()
        calls = law_calls(monkeypatch)
        result = solve_dc(uut, {}, stimuli)
        # Two branches, each evaluated in every settle: one per rail value.
        settles = sum(law is floating and name == "current" for law, name in calls) / 2
        assert settles > result.iterations >= 2

    @given(reference_networks())
    @settings(max_examples=100, deadline=None)
    def test_restart_at_a_dc_solution_takes_no_step(self, network):
        # A pad node settled again from where its last settle stopped, under
        # the same rails, stops there at once, so a DC solve started at its
        # own solution reads it bit for bit.  (A transient start is left
        # out: it can put pads whose starts differed in one class.)
        uut, contacts, stimuli, *_ = network
        dc = solve_dc(uut, contacts, stimuli)
        start = TransientState({pid: r.pad_volts for pid, r in dc.pads.items()},
                               dc.vcc_volts, dc.gnd_volts)
        again = _solve_network(uut, contacts, stimuli, None, start)
        assert again.iterations == 0
        assert repr(again.pads) == repr(dc.pads)
        assert repr((again.vcc_volts, again.gnd_volts)) == repr((dc.vcc_volts, dc.gnd_volts))

    def test_repeated_pads_settle_once(self, monkeypatch):
        # 1 mA into one pad of 3, 30 or 300 ESD pairs alike: the undriven
        # pads are one node, so the board's size costs no law evaluations.
        calls = law_calls(monkeypatch)
        counts = []
        for n in (3, 30, 300):
            esd = EsdPair(DiodeModel(1e-14), DiodeModel(1e-14))
            uut = UutModel(tuple((f"p{i}", PadCircuit(esd)) for i in range(n)))
            contacts = {f"p{i}": ContactState(0.1) for i in range(n)}
            stimuli = {"p0": Stimulus("current", 1e-3)}
            del calls[:]
            result = solve_dc(uut, contacts, stimuli)
            counts.append(sum(name == "current" for _, name in calls))
            assert kcl_residual(uut, contacts, stimuli, result) < 1e-9
            assert len({repr(result[f"p{i}"]) for i in range(1, n)}) == 1
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.parametrize("level", [0.9, 1.0])
    def test_pinned_copies_take_the_rail_steps_of_one(self, level):
        # n ideally driven ESD pads alike on a VCC path of 50 / n Ohm: the
        # rail's KCL is n times that of one pad on 50 Ohm, so with the
        # pinned conductance counted n times the rail takes the same steps.
        d = DiodeModel(1e-14)
        results = []
        for n in (1, 3, 30):
            uut = UutModel(tuple((f"p{i}", PadCircuit(EsdPair(d, d))) for i in range(n)),
                           vcc_path_ohms=50.0 / n)
            results.append(solve_dc(uut, {}, {f"p{i}": Stimulus("voltage", level) for i in range(n)}))
        assert len({r.iterations for r in results}) == 1
        assert [r.vcc_volts for r in results] == pytest.approx([results[0].vcc_volts] * 3, abs=1e-9)


@st.composite
def probed_benches(draw):
    """A bench and a waveform for execute: every pad kind, diodes with and
    without series resistance and of both polarities, needles from 1 mOhm
    to 1 kOhm or open, rails pinned or behind a path, current or voltage
    drive from a source of 0 Ohm or more, levels of either sign up to twice
    the limit, on a board with capacitance or without: (waveform, limits,
    bench).  Through a 0 Ohm needle the voltage clamp, an ideal drive, pins
    its pad."""

    def diode():
        return DiodeModel(draw(st.floats(1e-18, 1e-12)), draw(st.floats(1.0, 2.0)), VT,
                          draw(st.one_of(st.just(0.0), st.floats(0.1, 100.0))))

    kinds = {
        "esd": lambda: EsdPair(diode(), diode()),
        "diode": lambda: SeriesDiode(diode(), draw(st.sampled_from((1, -1)))),
        "led": lambda: Led(diode()),
        "res": lambda: Resistive(draw(st.floats(1.0, 1e4))),
        "open": OpenPad,
    }
    capacitive = draw(st.booleans())
    pads, contacts = [], {}
    for i in range(draw(st.integers(1, 4))):
        circuit = kinds[draw(st.sampled_from(sorted(kinds)))]()
        capacitance = draw(st.floats(1e-12, 1e-6)) if capacitive else 0.0
        pads.append((f"p{i}", PadCircuit(circuit, capacitance)))
        contacts[f"p{i}"] = ContactState(draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3),
                                                        st.just(2e6))))
    uut = UutModel(
        pads=tuple(pads),
        vcc_path_ohms=draw(st.one_of(st.just(0.0), st.floats(1.0, 50.0))),
        gnd_path_ohms=draw(st.one_of(st.just(0.0), st.floats(1.0, 200.0))),
    )
    limits = ProtectionLimits(2.0, 0.05)
    mode = draw(st.sampled_from(("current", "voltage")))
    limit = limits.max_abs_current if mode == "current" else limits.max_abs_voltage
    samples = draw(st.lists(st.floats(-2.0 * limit, 2.0 * limit), min_size=1, max_size=6))
    targets = draw(st.lists(st.sampled_from([pid for pid, _ in pads]), min_size=1, max_size=3,
                            unique=True))
    source_ohms = draw(st.one_of(st.just(0.0), st.floats(0.1, 1000.0))) if mode == "voltage" else 0.0
    waveform = StimulusWaveform(mode, tuple(samples), draw(st.floats(1e-6, 1e-3)), tuple(targets),
                                source_ohms)
    return waveform, limits, Bench(uut, contacts)


class TestExecuteRailsAndClamps:
    """Whatever the bench and the level, execute reads each sample within
    the protection limits, from solves that meet KCL."""

    @given(probed_benches())
    @settings(max_examples=200, deadline=None)
    def test_every_sample_is_solved_within_the_limits(self, run):
        waveform, limits, bench = run
        solves = []  # (uut, contacts, stimuli, companions, result) of each solve

        def recorded_dc(uut, contacts, stimuli):
            result = solve_dc(uut, contacts, stimuli)
            solves.append((uut, contacts, dict(stimuli), {}, result))
            return result

        def recorded_step(uut, contacts, stimuli, state, dt):
            out = step_transient(uut, contacts, stimuli, state, dt)
            solves.append((uut, contacts, dict(stimuli), companions_of(uut, state or {}, dt), out[1]))
            return out

        with patch.object(prober, "solve_dc", recorded_dc), \
                patch.object(prober, "step_transient", recorded_step):
            captures = execute(waveform, limits, bench)  # never SimulationFailure
        max_volts = limits.max_abs_voltage
        if waveform.mode == "voltage":  # the source's own drop is read too
            max_volts += waveform.source_ohms * limits.max_abs_current
        for capture in captures:
            assert all(abs(v) <= max_volts for v in capture.measured_voltage)
            assert all(abs(i) <= limits.max_abs_current for i in capture.measured_current)
        assert solves
        for uut, contacts, stimuli, companions, result in solves:
            assert kcl_residual(uut, contacts, stimuli, result, companions) < 1e-9


class TestRailSense:
    def test_all_good_contacts_band(self):
        uut = esd_uut()
        contacts = {f"p{i}": ContactState(0.1) for i in range(1, 4)}
        v = solve_rail_sense(uut, contacts, {f"p{i}": 5e-3 for i in range(1, 4)}, "VCC")
        assert 0.1 <= v <= 0.5

    def test_one_open_contact_collapses_reading(self):
        uut = esd_uut()
        contacts = {f"p{i}": ContactState(0.1) for i in range(1, 4)}
        contacts["p2"] = ContactState(2e6)
        v = solve_rail_sense(uut, contacts, {f"p{i}": 5e-3 for i in range(1, 4)}, "VCC")
        assert abs(v) < 10e-3

    def test_zero_injection(self):
        uut = esd_uut()
        contacts = {f"p{i}": ContactState(0.1) for i in range(1, 4)}
        assert solve_rail_sense(uut, contacts, {"p1": 0.0}, "VCC") == 0.0

    def test_no_path_to_rail(self):
        uut = UutModel(pads=(("p1", diode_pad()),))  # routes to GND only
        with pytest.raises(NoPathToRail):
            solve_rail_sense(uut, {"p1": ContactState(0.1)}, {"p1": 1e-3}, "VCC")


class TestTransient:
    def rc_bench(self):
        # 1 kOhm needle contact charging a 1 uF pad shunt: tau = 1 ms
        uut = UutModel(pads=(("rc", PadCircuit(OpenPad(), shunt_capacitance=1e-6)),))
        return uut, {"rc": ContactState(1000.0)}

    def test_rc_step_matches_analytic(self):
        uut, contacts = self.rc_bench()
        stim = {"rc": Stimulus("voltage", 1.0)}
        state, dt = None, 1e-6
        for _ in range(1000):  # t = 1 ms = tau
            state, _ = step_transient(uut, contacts, stim, state, dt)
        assert state["rc"] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-3)

    def test_memoryless_pad_equals_dc_every_step(self):
        uut = UutModel(pads=(("r", PadCircuit(Resistive(1000.0))),))
        contacts = {"r": ContactState(0.0)}
        stim = {"r": Stimulus("current", 1e-3)}
        dc = solve_dc(uut, contacts, stim)
        state = None
        for _ in range(5):
            state, result = step_transient(uut, contacts, stim, state, 1e-3)
            assert result["r"].volts == pytest.approx(dc["r"].volts, abs=1e-12)

    def test_converges_to_dc_fixed_point(self):
        uut, contacts = self.rc_bench()
        stim = {"rc": Stimulus("voltage", 1.0)}
        state = None
        for _ in range(3000):  # 30 time constants
            state, result = step_transient(uut, contacts, stim, state, 1e-5)
        dc = solve_dc(uut, contacts, stim)
        assert abs(result["rc"].pad_volts - dc["rc"].pad_volts) < 1e-6

    def test_dt_must_be_positive(self):
        uut, contacts = self.rc_bench()
        with pytest.raises(ValueError):
            step_transient(uut, contacts, {}, None, 0.0)


def cold_step(uut, contacts, stimuli, state, dt):
    """step_transient with Newton started at rest whatever the state: the
    reference a warm start must agree with."""
    result = _solve_network(uut, contacts, stimuli, dt, state, at_rest=True)
    return TransientState({pid: r.pad_volts for pid, r in result.pads.items()}, 0.0, 0.0), result


@st.composite
def capacitive_runs(draw):
    """A bench with shunt capacitance (every pad kind, good, worn or open
    needles) and a waveform whose level changes sign at every sample, up to
    twice the limit of its mode: (waveform, limits, bench)."""
    d = DiodeModel(draw(st.floats(1e-15, 1e-12)), draw(st.floats(1.0, 2.0)), VT,
                   draw(st.sampled_from([0.0, 2.0])))
    pads, contacts = [], {}
    for i in range(draw(st.integers(1, 4))):
        circuit = kind_circuit(draw, draw(st.sampled_from(sorted(CONDUCTS))), d)
        # the first pad always has capacitance, so every sample is a step
        low = 1e-12 if i == 0 else 0.0
        pads.append((f"p{i}", PadCircuit(circuit, draw(st.one_of(st.just(low),
                                                                   st.floats(1e-12, 1e-6))))))
        contacts[f"p{i}"] = ContactState(draw(st.one_of(st.just(0.1), st.floats(0.1, 1000.0),
                                                        st.just(2e6))))
    uut = UutModel(
        pads=tuple(pads),
        vcc_path_ohms=draw(st.one_of(st.just(0.0), st.floats(1.0, 50.0))),
        gnd_path_ohms=draw(st.one_of(st.just(0.0), st.floats(1.0, 20.0))),
    )
    limits = ProtectionLimits(2.0, 0.05)
    mode = draw(st.sampled_from(("current", "voltage")))
    limit = limits.max_abs_current if mode == "current" else limits.max_abs_voltage
    sign = draw(st.sampled_from((1.0, -1.0)))
    magnitudes = draw(st.lists(st.floats(limit * 1e-3, 2.0 * limit), min_size=2, max_size=8))
    samples = tuple(sign * (-1.0) ** k * m for k, m in enumerate(magnitudes))
    targets = draw(st.lists(st.sampled_from([pid for pid, _ in pads]), min_size=1, max_size=3,
                            unique=True))
    source_ohms = draw(st.sampled_from((0.0, 50.0))) if mode == "voltage" else 0.0
    waveform = StimulusWaveform(mode, samples, draw(st.floats(1e-6, 1e-3)), tuple(targets),
                                source_ohms)
    return waveform, limits, Bench(uut, contacts)


def warm_start_stalls():
    """After -50 mA and then +0.27 mA, the warm point (the ESD pad at +0.52 V)
    balances -50 mA slightly better than rest does, but lies 2.55 V from
    the new solution."""
    d = DiodeModel(4.889072074546613e-13)
    uut = UutModel(pads=(("p0", PadCircuit(EsdPair(d, d), 1e-12)),
                         ("p1", PadCircuit(SeriesDiode(d, polarity=-1), 6.641647494059294e-07))),
                   vcc_path_ohms=0.0, gnd_path_ohms=14.0)
    waveform = StimulusWaveform("current", (-0.0625, 0.00026882003767883923, -0.0625),
                                0.0006590773091758179, ("p0", "p1"))
    bench = Bench(uut, {"p0": ContactState(0.1), "p1": ContactState(0.1)})
    return waveform, ProtectionLimits(2.0, 0.05), bench


class TestWarmStart:
    """Each transient step starts from the previous step's node voltages,
    rails included; it must read what a start at rest reads."""

    @given(capacitive_runs())
    @example(warm_start_stalls())
    @settings(max_examples=150, deadline=None)
    def test_execute_matches_steps_started_at_rest(self, run):
        waveform, limits, bench = run
        try:
            with patch.object(prober, "step_transient", cold_step):
                reference = execute(waveform, limits, bench)
        except SimulationFailure:
            reference = None
        solves = []

        def recorded(uut, contacts, stimuli, state, dt):
            out = step_transient(uut, contacts, stimuli, state, dt)
            solves.append((uut, contacts, dict(stimuli), state or {}, dt, out[1]))
            return out

        with patch.object(prober, "step_transient", recorded):
            try:
                captures = execute(waveform, limits, bench)
            except SimulationFailure:
                assert reference is None  # fails only where the reference fails
                return
        if reference is None:
            return  # a warm start may converge where a start at rest does not
        for got, want in zip(captures, reference, strict=True):
            assert (got.protection_tripped, got.trip_index) == (
                want.protection_tripped, want.trip_index)
            assert got.applied == want.applied
            for a, b in zip(got.measured_voltage, want.measured_voltage, strict=True):
                assert abs(a - b) <= 1e-6
        for uut, contacts, stimuli, state, dt, result in solves:
            companions = companions_of(uut, state, dt)
            assert kcl_residual(uut, contacts, stimuli, result, companions) < 1e-9

    def esd_step(self, level, state):
        d = DiodeModel(1e-14)
        uut = UutModel(pads=(("p", PadCircuit(EsdPair(d, d), 1e-9)),), vcc_path_ohms=25.0,
                       gnd_path_ohms=5.0)
        stimuli = {"p": Stimulus("current", level)}
        return (uut, {"p": ContactState(0.1)}, stimuli, state, 1e-3)

    def test_constant_level_starts_warm(self, monkeypatch):
        state, _ = step_transient(*self.esd_step(1e-3, None))
        uut, contacts, stimuli, _, dt = self.esd_step(1e-3, state)
        calls = law_calls(monkeypatch)
        counts = []
        # From the state, rails included; from its pad volts alone, the
        # rails at 0 V; and from rest.
        for start, at_rest in ((state, False), (TransientState(state, 0.0, 0.0), False), (state, True)):
            del calls[:]
            _solve_network(uut, contacts, stimuli, dt, start, at_rest)
            counts.append(len(calls))
        warm, pads_warm, cold = counts
        assert warm < pads_warm and warm < cold
        _, second = step_transient(uut, contacts, stimuli, state, dt)
        assert abs(second.vcc_volts - state.vcc_volts) < 1e-3

    def test_interface_the_benchmark_relies_on(self):
        # perfbench/spans.py and perfbench/kcl.py call step_transient with
        # positional arguments, unpack (state, result) and read
        # state.get(pad) as pad volts.  So the state has no key besides the
        # pad ids, and the rails ride as attributes: a pad may be named like
        # a rail.
        d = DiodeModel(1e-14)
        uut = UutModel(pads=(("VCC", PadCircuit(EsdPair(d, d), 1e-9)),
                             ("gnd_volts", PadCircuit(Resistive(100.0), 1e-9))),
                       vcc_path_ohms=25.0, gnd_path_ohms=5.0)
        contacts = {"VCC": ContactState(0.1)}
        stimuli = {"VCC": Stimulus("current", 1e-3), "gnd_volts": Stimulus("voltage", 0.5, 10.0)}
        state = None
        for _ in range(3):
            state, result = step_transient(uut, contacts, stimuli, state, 1e-4)
            assert isinstance(state, Mapping) and set(state) == {"VCC", "gnd_volts"}
            for pid in state:
                assert state.get(pid) == result[pid].pad_volts
            assert (state.vcc_volts, state.gnd_volts) == (result.vcc_volts, result.gnd_volts)
            assert result.vcc_volts > 0.0 and result.gnd_volts > 0.0


def outcome(solve):
    """repr of what solve() returns, or of the exception it raises."""
    try:
        return repr(solve())
    except NonConvergence as exc:
        return f"NonConvergence: {exc}"


def narrowed(result, uut, added):
    """result without the added pads, each of which must read 0 V, for the
    pads of uut."""
    for pid in added:
        assert repr(result[pid]) == repr(PadReading(0.0, 0.0, 0.0))
    return replace(result, pads={pid: result[pid] for pid, _ in uut.pads})


def node_volts(result):
    """What a solve reads of its nodes: every pad's volts, the rails, the
    iterations and the residual."""
    return ({pid: reading.pad_volts for pid, reading in result.pads.items()}, result.vcc_volts,
            result.gnd_volts, result.iterations, result.residual)


@st.composite
def quiet_rail_boards(draw):
    """A board with one or two rail paths, pads of every kind, good, worn or
    open contacts, stimuli and a start built by hand that are meant to leave
    some path rails quiet: a pad with an element to such a rail is undriven
    and starts at +0.0, and so does the rail.  A rail is live when it starts
    off +0.0, when a driven pad or a pad that starts off +0.0 has an element
    to it, or when a pad has an element to it and to a live rail: so an ESD
    pad at rest carries a drive on GND over to VCC.
    (uut, contacts, stimuli, state, dt, the pad kinds whose every element
    goes to the datum or to a quiet rail)."""
    d = DiodeModel(1e-14)
    circuits = {"esd": EsdPair(d, d), "diode": SeriesDiode(d), "diode-": SeriesDiode(d, polarity=-1),
                "led": Led(DiodeModel(1e-18, 2.0)), "res": Resistive(draw(st.sampled_from([100.0, 470.0]))),
                "open": OpenPad()}
    vcc_path, gnd_path = draw(st.sampled_from([(25.0, 0.0), (0.0, 200.0), (25.0, 200.0)]))
    paths = {rail for rail, ohms in (("VCC", vcc_path), ("GND", gnd_path)) if ohms > 0.0}
    meant = draw(st.sampled_from([{rail} for rail in sorted(paths)] + [set(paths)]))
    pads, contacts, stimuli, volts = [], {}, {}, {}
    for i in range(draw(st.integers(1, 6))):
        pid = f"p{i}"
        kind = draw(st.sampled_from(sorted(CONDUCTS)))
        pc = PadCircuit(circuits[kind], draw(st.sampled_from([0.0, 1e-9])))
        pads.append((pid, pc))
        if draw(st.booleans()):
            contacts[pid] = ContactState(draw(st.sampled_from([0.1, 10.0, 2e6])))
        if pc.rails() & meant:
            if draw(st.booleans()):
                volts[pid] = 0.0
            continue
        mode = draw(st.sampled_from(("current", "voltage", None) if CONDUCTS[kind] else ("voltage", None)))
        if mode == "current":
            level = draw(st.sampled_from(CONDUCTS[kind])) * draw(st.sampled_from([5e-3, 1e-3, 0.0]))
            stimuli[pid] = Stimulus("current", level)
        elif mode == "voltage":
            stimuli[pid] = Stimulus("voltage", draw(st.sampled_from([2.0, 0.5, -0.3, 0.0])),
                                    draw(st.sampled_from([0.0, 1.0, 100.0])))
        if draw(st.booleans()):
            volts[pid] = draw(st.sampled_from([0.0, -0.0, 0.25, -0.5]))
    rails = {rail: 0.0 if rail in meant else draw(st.sampled_from([0.0, -0.0, 0.1])) for rail in ("VCC", "GND")}
    uut = UutModel(tuple(pads), vcc_path, gnd_path)
    state = TransientState(volts, rails["VCC"], rails["GND"])
    live = {rail for rail in paths if math.copysign(1.0, rails[rail]) < 0.0 or rails[rail] != 0.0}
    stirred = {pid for pid, _ in pads if pid in stimuli or repr(volts.get(pid, 0.0)) != "0.0"}
    for _ in range(2):
        for pid, pc in pads:
            if pid in stirred or pc.rails() & live:
                live |= pc.rails() & paths
    resting = [kind for kind in circuits.values() if PadCircuit(kind).rails() & paths <= paths - live]
    return uut, contacts, stimuli, state, draw(st.sampled_from([1e-4, 1e-3])), resting


class TestIdlePads:
    """A pad with every element to the datum, no stimulus and no charge sits
    at exactly 0 V, so the solver leaves it out: that may change no other
    reading, bit for bit, and no pad that can move may be left out."""

    @given(networks(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_idle_grounded_pads_change_nothing(self, network, data):
        uut, contacts, stimuli, state, dt = network
        # Only the bench's own laws.
        diodes = [law for _, pc in uut.pads for law, _, _ in pc.kind.branches
                  if isinstance(law, DiodeModel)]
        kinds = [OpenPad]
        if uut.gnd_path_ohms == 0.0:
            kinds.append(lambda: Resistive(data.draw(st.floats(10.0, 2000.0))))
            if diodes:
                kinds += [lambda: SeriesDiode(data.draw(st.sampled_from(diodes))),
                          lambda: SeriesDiode(data.draw(st.sampled_from(diodes)), polarity=-1),
                          lambda: Led(data.draw(st.sampled_from(diodes)))]
            if diodes and uut.vcc_path_ohms == 0.0:
                kinds.append(lambda: EsdPair(data.draw(st.sampled_from(diodes)),
                                             data.draw(st.sampled_from(diodes))))
        added = {f"idle{k}": PadCircuit(data.draw(st.sampled_from(kinds))(),
                                        data.draw(st.sampled_from([0.0, 1e-9])))
                 for k in range(data.draw(st.integers(1, 4)))}
        pads = list(uut.pads)
        for pid, pc in added.items():
            pads.insert(data.draw(st.integers(0, len(pads))), (pid, pc))
        wide = UutModel(tuple(pads), uut.vcc_path_ohms, uut.gnd_path_ohms)
        # The added pads start at +0.0, given or left to the default.
        wide_state = TransientState({**state, **{pid: 0.0 for pid in added
                                                 if data.draw(st.booleans())}},
                                    state.vcc_volts, state.gnd_volts)
        assert outcome(lambda: solve_dc(uut, contacts, stimuli)) == outcome(
            lambda: narrowed(solve_dc(wide, contacts, stimuli), uut, added))
        assert outcome(lambda: step_transient(uut, contacts, stimuli, state, dt)[1]) == outcome(
            lambda: narrowed(step_transient(wide, contacts, stimuli, wide_state, dt)[1], uut, added))

    @given(quiet_rail_boards(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_quiet_rail_changes_nothing(self, board, data):
        # Pads of every kind added at +0.0 on quiet rails: every other
        # reading, both rails, the iterations and the residual are those of
        # the board without them, and the solve with them holds KCL.  Nor
        # does it differ from the solve in which a drive of 0 A on every
        # undriven pad leaves no rail quiet: such a drive changes no node.
        uut, contacts, stimuli, state, dt, kinds = board
        added = {f"rest{k}": PadCircuit(data.draw(st.sampled_from(kinds)), data.draw(st.sampled_from([0.0, 1e-9])))
                 for k in range(data.draw(st.integers(1, 4)))}
        pads = list(uut.pads)
        for pid, pc in added.items():
            pads.insert(data.draw(st.integers(0, len(pads))), (pid, pc))
        wide = UutModel(tuple(pads), uut.vcc_path_ohms, uut.gnd_path_ohms)
        wide_contacts = {**contacts, **{pid: ContactState(data.draw(st.sampled_from([0.0, 10.0, 2e6])))
                                        for pid in added if data.draw(st.booleans())}}
        wide_state = TransientState({**state, **{pid: 0.0 for pid in added if data.draw(st.booleans())}},
                                    state.vcc_volts, state.gnd_volts)
        solves = []

        def kept(result, companions=None):
            solves.append((result, companions))
            return narrowed(result, uut, added)

        assert outcome(lambda: solve_dc(uut, contacts, stimuli)) == outcome(
            lambda: kept(solve_dc(wide, wide_contacts, stimuli)))
        assert outcome(lambda: step_transient(uut, contacts, stimuli, state, dt)[1]) == outcome(
            lambda: kept(step_transient(wide, wide_contacts, stimuli, wide_state, dt)[1],
                         companions_of(wide, wide_state, dt)))
        for result, companions in solves:
            assert kcl_residual(wide, wide_contacts, stimuli, result, companions) < 1e-9
        stirred = {**stimuli, **{pid: Stimulus("current", 0.0) for pid, _ in wide.pads if pid not in stimuli}}
        reads = [(outcome(lambda: node_volts(solve_dc(wide, wide_contacts, drive))),
                  outcome(lambda: node_volts(step_transient(wide, wide_contacts, drive, wide_state, dt)[1])))
                 for drive in (stimuli, stirred)]
        assert reads[0] == reads[1]

    def test_an_esd_pad_at_rest_carries_a_moving_rail_to_a_quiet_one(self):
        # VCC starts at 0.1 V and GND at +0.0.  The ESD pad at rest carries
        # VCC's fall over to GND, so the resistor at rest on GND is solved:
        # its conductance is in GND's step, as when a drive of 0 A keeps it in.
        d = DiodeModel(1e-14)
        uut = UutModel((("e", PadCircuit(EsdPair(d, d))), ("g", PadCircuit(Resistive(100.0)))),
                       vcc_path_ohms=25.0, gnd_path_ohms=200.0)
        start = TransientState({}, 0.1, 0.0)
        rest, kept = (step_transient(uut, {}, stimuli, start, 1e-3)[1]
                      for stimuli in ({}, {"g": Stimulus("current", 0.0)}))
        assert rest.gnd_volts != 0.0
        assert repr(node_volts(rest)) == repr(node_volts(kept))

    @pytest.mark.parametrize("driven", [Resistive(470.0), SeriesDiode(DiodeModel(2e-14))],
                             ids=["resistor", "diode"])
    def test_pads_at_rest_on_a_quiet_rail_are_not_settled(self, monkeypatch, driven):
        # A drive to the pinned GND leaves VCC and its capacitive ESD pads at
        # rest: no step from rest, or from the state it returns, calls an ESD
        # law.  That state still carries their part, so a step that then
        # drives one reads what a step from a copy built by hand reads.
        esd = DiodeModel(1e-14)
        pads = tuple((f"e{i}", PadCircuit(EsdPair(esd, esd), 1e-9)) for i in range(8))
        uut = UutModel(pads + (("d", PadCircuit(driven, 1e-9)),), vcc_path_ohms=25.0)
        calls = law_calls(monkeypatch)
        state = None
        for _ in range(2):
            del calls[:]
            state, result = step_transient(uut, {}, {"d": Stimulus("current", 1e-3)}, state, 1e-4)
            assert calls and not any(law is esd for law, _ in calls)
            assert result["d"].pad_volts > 0.1 and repr(result.vcc_volts) == "0.0"
            assert repr(result["e5"]) == repr(PadReading(0.0, 0.0, 0.0))
        drive = {"e3": Stimulus("current", 1e-3)}
        fresh = TransientState(dict(state), state.vcc_volts, state.gnd_volts)
        assert step_outcome(uut, {}, drive, state, 1e-4)[2] == step_outcome(uut, {}, drive, fresh, 1e-4)[2]

    @pytest.mark.parametrize("kind", [SeriesDiode(DiodeModel(1e-14)), Resistive(1000.0), OpenPad()],
                             ids=["diode", "resistor", "open"])
    def test_charged_pad_is_solved_not_dropped(self, kind):
        uut = UutModel(pads=(("c", PadCircuit(kind, 1e-6)), ("p", diode_pad())))
        dt = 1e-3
        charged, _ = step_transient(uut, {}, {"c": Stimulus("current", 1e-4)}, None, dt)
        assert charged["c"] > 0.0
        # Idle but charged: warm from the state, and at rest with only its
        # capacitor history to say so.  Through an open pad's GMIN leak alone
        # the decay stays below the KCL tolerance.
        warm = step_transient(uut, {}, {}, charged, dt)[1]
        cold = cold_step(uut, {}, {}, charged, dt)[1]
        for result in (warm, cold):
            assert 0.0 < result["c"].pad_volts <= charged["c"]
            assert kcl_residual(uut, {}, {}, result, companions_of(uut, charged, dt)) < 1e-9

    def test_negative_zero_start_keeps_its_sign(self):
        # A state built by hand starts the idle pad p at -0.0 and q at its solution,
        # so Newton takes no step and p reads the -0.0 it started at, as the
        # full system does.
        uut = UutModel(pads=(("q", PadCircuit(Resistive(100.0), 1e-9)), ("p", diode_pad())))
        stimuli = {"q": Stimulus("current", 1e-3)}
        start = TransientState({"q": solve_dc(uut, {}, stimuli)["q"].pad_volts, "p": -0.0}, 0.0, 0.0)
        result = step_transient(uut, {}, stimuli, start, 1e-3)[1]
        iterations, pad_volts, _, _ = dense_newton(uut, {}, stimuli, companions_of(uut, start, 1e-3),
                                                   start)
        assert result.iterations == iterations == 0
        assert repr(result["p"]) == repr(PadReading(-0.0, 0.0, -0.0))
        assert math.copysign(1.0, pad_volts["p"]) == -1.0

    def test_an_int_zero_start_is_idle(self, monkeypatch):
        # A start of exactly +0.0 is idle whatever its number type: the
        # undriven grounded pad g reads rest in floats, and only the driven
        # pad's law is called.
        uut = UutModel(pads=(("g", PadCircuit(Resistive(100.0), 1e-9)), ("p", diode_pad())))
        calls = law_calls(monkeypatch)
        state, result = step_transient(uut, {}, {"p": Stimulus("current", 1e-3)},
                                       TransientState({"g": 0, "p": 0.0}, 0.0, 0.0), 1e-3)
        assert repr(result["g"]) == repr(PadReading(volts=0.0, amperes=0.0, pad_volts=0.0))
        assert repr(state["g"]) == "0.0"
        assert calls and all(isinstance(law, DiodeModel) for law, _ in calls)

    def test_zero_starts_of_either_sign_are_two_nodes(self):
        # Two ESD pads alike on a VCC path, at rest: no step moves either,
        # so each keeps the sign of its start.
        d = DiodeModel(1e-14)
        uut = UutModel(pads=(("m", PadCircuit(EsdPair(d, d))), ("p", PadCircuit(EsdPair(d, d)))))
        result = step_transient(uut, {}, {}, TransientState({"m": -0.0, "p": 0.0}, 0.0, 0.0), 1e-3)[1]
        assert repr(result["m"]) == repr(PadReading(-0.0, 0.0, -0.0))
        assert repr(result["p"]) == repr(PadReading(0.0, 0.0, 0.0))


@st.composite
def stepped_boards(draw):
    """A board whose pads repeat a few circuits (every kind, with or without
    capacitance, grounded where GND is pinned), good, worn, open or absent
    contacts, a start (None, or built by hand with some pads at -0.0), and
    a run of steps, each with its own stimuli and dt, so that pads become
    driven and undriven: (uut, contacts, start, steps)."""
    d = DiodeModel(1e-14)
    circuits = {"esd": EsdPair(d, d), "diode": SeriesDiode(d), "diode-": SeriesDiode(d, polarity=-1),
                "led": Led(DiodeModel(1e-18, 2.0)), "res": Resistive(draw(st.sampled_from([100.0, 470.0]))),
                "open": OpenPad()}
    kinds = [draw(st.sampled_from(sorted(CONDUCTS))) for _ in range(draw(st.integers(2, 8)))]
    pads = tuple((f"p{i}", PadCircuit(circuits[kind], draw(st.sampled_from([0.0, 0.0, 1e-9, 2e-9]))))
                 for i, kind in enumerate(kinds))
    uut = UutModel(pads, vcc_path_ohms=draw(st.sampled_from([0.0, 25.0])),
                   gnd_path_ohms=draw(st.sampled_from([0.0, 0.0, 5.0])))
    contacts = {pid: ContactState(draw(st.sampled_from([0.1, 10.0, 2e6])))
                for pid, _ in pads if draw(st.booleans())}
    start = None
    if draw(st.booleans()):
        start = TransientState({pid: draw(st.sampled_from([0.0, -0.0, 0.25, -0.5]))
                                for pid, _ in pads if draw(st.booleans())},
                               draw(st.sampled_from([0.0, 0.1])), draw(st.sampled_from([0.0, -0.0, 0.05])))
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        stimuli = {}
        for i in draw(st.lists(st.integers(0, len(pads) - 1), max_size=3, unique=True)):
            modes = ("current", "voltage") if CONDUCTS[kinds[i]] else ("voltage",)
            if draw(st.sampled_from(modes)) == "current":
                level = draw(st.sampled_from(CONDUCTS[kinds[i]])) * draw(st.sampled_from([1e-3, 2e-4, 0.0]))
                stimuli[f"p{i}"] = Stimulus("current", level)
            else:
                stimuli[f"p{i}"] = Stimulus("voltage", draw(st.sampled_from([0.5, -0.3, 0.0])),
                                            draw(st.sampled_from([0.0, 100.0])))
        steps.append((stimuli, draw(st.sampled_from([1e-4, 1e-3]))))
    return uut, contacts, start, steps


def step_outcome(uut, contacts, stimuli, state, dt):
    """(state, result, repr of (pad volts, rail volts, result)) of a step,
    or (None, None, repr of its error)."""
    try:
        after, result = step_transient(uut, contacts, stimuli, state, dt)
    except NonConvergence as exc:
        return None, None, f"NonConvergence: {exc}"
    return after, result, repr((dict(after), after.vcc_volts, after.gnd_volts, result))


class TestCarriedPartition:
    """A step's TransientState holds the partition of the pads it ended on.
    Over runs of steps in which pads become driven and undriven, a step from
    it must hold KCL and read what the same step from a copy built by hand,
    partitioned anew, reads, bit for bit."""

    @given(stepped_boards())
    @settings(max_examples=150, deadline=None)
    def test_steps_from_a_carried_partition_match_a_fresh_one(self, board):
        uut, contacts, state, steps = board
        for stimuli, dt in steps:
            plain = (TransientState({}, 0.0, 0.0) if state is None
                     else TransientState(dict(state), state.vcc_volts, state.gnd_volts))
            state, result, carried = step_outcome(uut, contacts, stimuli, state, dt)
            assert carried == step_outcome(uut, contacts, stimuli, plain, dt)[2]
            if state is None:
                return
            assert kcl_residual(uut, contacts, stimuli, result, companions_of(uut, plain, dt)) < 1e-9

    def test_a_returned_state_cannot_change(self):
        d = DiodeModel(1e-14)
        uut = UutModel(tuple((f"p{i}", PadCircuit(EsdPair(d, d), 1e-9)) for i in range(4)))
        state, _ = step_transient(uut, {}, {"p0": Stimulus("current", 1e-3)}, None, 1e-4)
        before = dict(state)
        with pytest.raises(TypeError):
            state["p2"] = 0.3
        with pytest.raises(TypeError):
            del state["p1"]
        for name in ("update", "pop", "setdefault", "clear", "popitem"):
            assert not hasattr(state, name), name
        rails = (state.vcc_volts, state.gnd_volts)
        for rail in ("vcc_volts", "gnd_volts"):
            with pytest.raises(AttributeError):
                setattr(state, rail, 5.0)
        assert dict(state) == before and (state.vcc_volts, state.gnd_volts) == rails

    def test_states_are_equal_by_pad_and_rail_volts(self):
        state = TransientState({"a": 0.0}, 1.0, 0.0)
        assert state == TransientState({"a": 0}, 1, 0.0)
        for other in (TransientState({"a": 0.0}, 0.0, 0.0), TransientState({"a": 0.0}, 1.0, 0.5),
                      TransientState({"a": 0.5}, 1.0, 0.0), TransientState({}, 1.0, 0.0)):
            assert state != other and not state == other
        assert state != {"a": 0.0} and {"a": 0.0} != state
        assert state.__eq__({"a": 0.0}) is NotImplemented
        assert dict(state) == {"a": 0.0}

    def test_a_plain_mapping_start_is_refused(self):
        uut = UutModel((("p", PadCircuit(Resistive(100.0), 1e-9)),))
        with pytest.raises(TypeError, match="TransientState"):
            step_transient(uut, {}, {}, {"p": 0.0}, 1e-4)

    def test_a_start_is_read_as_floats(self):
        state = TransientState({"c": 0, "e": True, "n": np.float32(0.25)}, 1, np.int64(0))
        assert repr(state) == "TransientState({'c': 0.0, 'e': 1.0, 'n': 0.25}, 1.0, 0.0)"
        # An int start reads as a float start: undriven, and behind 0 A.
        d = DiodeModel(1e-14)
        uut = UutModel((("c", PadCircuit(Resistive(100.0), 1e-9)), ("e", PadCircuit(EsdPair(d, d)))))
        for start in ({"c": 0, "e": 0}, {"c": 0.0, "e": 0.0}):
            after, result = step_transient(uut, {}, {"c": Stimulus("current", 0)},
                                           TransientState(start, 0, 0), 1e-3)
            assert repr((dict(after), result)) == repr((
                {"c": 0.0, "e": 0.0},
                replace(result, pads={"c": PadReading(0.0, 0.0, 0.0), "e": PadReading(0.0, 0.0, 0.0)})))

    @pytest.mark.parametrize("pad_volts, rails, name", [
        ({"p": "0.5"}, (0.0, 0.0), "pad 'p'"),
        ({"p": 0.0, "q": None}, (0.0, 0.0), "pad 'q'"),
        ({"p": 1j}, (0.0, 0.0), "pad 'p'"),
        ({}, ("0", 0.0), "vcc_volts"),
        ({"p": 0.0}, (0.0, [0.0]), "gnd_volts"),
    ])
    def test_a_start_that_is_not_a_number_is_refused(self, pad_volts, rails, name):
        with pytest.raises(TypeError, match=f"^{name}: volts must be a real number"):
            TransientState(pad_volts, *rails)

    @given(stepped_boards(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_state_used_with_two_models_reads_as_a_fresh_copy(self, board, data):
        # One state built by hand, stepped alternately on a board and on the
        # same board with an idle pad inserted: each model partitions it
        # anew.
        uut, contacts, start, steps = board
        pads = list(uut.pads)
        pads.insert(data.draw(st.integers(0, len(pads))), ("idle", PadCircuit(OpenPad())))
        wide = UutModel(tuple(pads), uut.vcc_path_ohms, uut.gnd_path_ohms)
        state = TransientState({}, 0.0, 0.0) if start is None else start
        for k in range(6):
            stimuli, dt = steps[k % len(steps)]
            model = (uut, wide)[k % 2]
            fresh = TransientState(dict(state), state.vcc_volts, state.gnd_volts)
            assert step_outcome(model, contacts, stimuli, state, dt)[2] == step_outcome(
                model, contacts, stimuli, fresh, dt)[2]

    def test_contacts_are_read_for_the_driven_pads_alone(self, monkeypatch):
        # One driven pad among n ESD pads alike and n idle grounded pads, all
        # with contacts: the step reads as many contacts on 16 pads as on
        # 1024, from rest and from the state it carries.
        reads = []
        is_open = ContactState.is_open.fget
        monkeypatch.setattr(ContactState, "is_open", property(lambda c: reads.append(c) or is_open(c)))
        d = DiodeModel(1e-14)
        counts = []
        for n in (16, 1024):
            pads = tuple((f"e{i}", PadCircuit(EsdPair(d, d))) for i in range(n)) + tuple(
                (f"g{i}", PadCircuit(Resistive(100.0))) for i in range(n))
            uut = UutModel(pads, vcc_path_ohms=25.0)
            contacts = {pid: ContactState(0.1) for pid, _ in pads}
            stimuli = {"e3": Stimulus("current", 1e-3)}
            state = None
            for _ in range(2):
                del reads[:]
                state, result = step_transient(uut, contacts, stimuli, state, 1e-4)
                counts.append(len(reads))
            assert result["e3"].volts > 0.5 and result["e0"].pad_volts == state["e0"] > 0.0
        assert counts[:2] == counts[2:]


def read_state(state):
    """What reading a state as a mapping gives: its repr, its dict, and
    whether it equals a copy built by hand from that dict."""
    copy = TransientState(dict(state), state.vcc_volts, state.gnd_volts)
    return repr(state), repr(dict(state)), state == copy, copy == state


class TestStateWhenRead:
    """A step's TransientState makes its partition and pad volts when they
    are first needed, so when, and whether, a state is read must change no
    step and no reading."""

    @given(stepped_boards())
    @settings(max_examples=100, deadline=None)
    def test_when_a_state_is_read_does_not_matter(self, board):
        uut, contacts, start, steps = board
        runs = {}
        for when in ("before", "after", "never"):
            state, outcomes, states, reads = start, [], [], []
            for stimuli, dt in steps:
                try:
                    state, result = step_transient(uut, contacts, stimuli, state, dt)
                except NonConvergence as exc:
                    outcomes.append(f"NonConvergence: {exc}")
                    break
                outcomes.append(repr((state.vcc_volts, state.gnd_volts, result)))
                states.append(state)
                if when == "before":  # before the state starts the next step
                    reads.append(read_state(state))
            if when == "after":
                reads = [read_state(state) for state in states]
            runs[when] = outcomes, reads
        assert runs["before"][0] == runs["after"][0] == runs["never"][0]
        assert runs["before"][1] == runs["after"][1]
        assert all(equal and mirrored for _, _, equal, mirrored in runs["before"][1])

    @given(stepped_boards())
    @settings(max_examples=100, deadline=None)
    def test_a_state_reads_its_results_pad_volts(self, board):
        # Compared by repr, so that the sign of a zero counts.  The left
        # side is read first: the state before the result's pads on odd
        # steps, after them on even ones.
        uut, contacts, state, steps = board
        for k, (stimuli, dt) in enumerate(steps):
            state, result, _ = step_outcome(uut, contacts, stimuli, state, dt)
            if state is None:
                return
            if k % 2:
                assert repr(dict(state)) == repr({pid: r.pad_volts for pid, r in result.pads.items()})
            else:
                assert repr({pid: r.pad_volts for pid, r in result.pads.items()}) == repr(dict(state))

    def test_threads_reading_one_fresh_state_read_equal_volts(self):
        # Four threads at once read each of 20 fresh states of a 300-pad
        # board, each making its partition and pad volts from the solve.
        d = DiodeModel(1e-14)
        kinds = (PadCircuit(EsdPair(d, d), 1e-9), PadCircuit(Resistive(100.0), 2e-9), PadCircuit(OpenPad()))
        uut = UutModel(tuple((f"p{i}", kinds[i % 3]) for i in range(300)), vcc_path_ohms=25.0)
        stimuli = {"p0": Stimulus("current", 1e-3), "p1": Stimulus("voltage", 0.5, 100.0)}
        state = None
        for _ in range(20):
            state = step_transient(uut, {}, stimuli, state, 1e-4)[0]
            barrier, seen, errors = threading.Barrier(4), [], []

            def read(state=state):
                try:
                    barrier.wait(timeout=60.0)
                    seen.append(repr(dict(state)))
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=read) for _ in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors and seen == [repr(dict(state))] * 4
            assert state["p0"] > 0.0 and state["p2"] == 0.0

    @pytest.mark.parametrize("contact_ohms", [0.1, 2e6], ids=["unclamped", "clamped"])
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_a_state_nobody_reads_is_never_made(self, monkeypatch, contact_ohms, n):
        # execute starts each sample from the last one's state, so the last
        # state is never used: n samples make n - 1 partitions, one per state
        # used as a start however often its sample is clamped and solved again.
        made, steps = [], []
        monkeypatch.setattr("vcit.circuit._ended", lambda *args: made.append(args) or _ended(*args))
        monkeypatch.setattr(prober, "step_transient", lambda *args: steps.append(args) or step_transient(*args))
        d = DiodeModel(1e-14)
        uut = UutModel((("p", PadCircuit(EsdPair(d, d), 1e-9)), ("q", PadCircuit(EsdPair(d, d), 1e-9))))
        (capture,) = execute(StimulusWaveform("current", (1e-3,) * n, 1e-4, ("p",)), ProtectionLimits(),
                             Bench(uut, {"p": ContactState(contact_ohms)}))
        assert len(capture) == n and len(steps) == n * (1 if contact_ohms < 1e6 else 2)
        assert len(made) == n - 1


class TestReadings:
    """SolveResult.pads is a mapping over every pad in the model's order;
    the readings of the pads without a stimulus are made when first read."""

    def solved(self):
        d = DiodeModel(1e-14)
        pads = (("g", PadCircuit(Resistive(100.0))), ("b", PadCircuit(EsdPair(d, d))),
                ("a", PadCircuit(EsdPair(d, d))), ("o", PadCircuit(EsdPair(d, d))))
        uut = UutModel(pads, vcc_path_ohms=25.0)
        contacts = {"o": ContactState(2e6)}
        return uut, contacts, solve_dc(uut, contacts, {"a": Stimulus("current", 1e-3)})

    def test_order_length_and_membership(self):
        _, _, result = self.solved()
        assert list(result.pads) == ["g", "b", "a", "o"] == list(result.pads.keys())
        assert len(result.pads) == 4
        assert "b" in result.pads and "x" not in result.pads

    def test_unknown_pad_raises_key_error(self):
        _, _, result = self.solved()
        with pytest.raises(KeyError):
            result.pads["x"]
        with pytest.raises(KeyError):
            result["x"]
        assert result.pads.get("x") is None

    def test_reads_as_a_plain_dict(self):
        uut, contacts, result = self.solved()
        plain = {pid: result[pid] for pid in result.pads}
        assert result.pads == plain and plain == result.pads
        assert repr(result.pads) == repr(plain)
        assert list(result.pads.values()) == list(plain.values())
        assert list(result.pads.items()) == list(plain.items())
        assert repr(result) == repr(replace(result, pads=plain))
        assert result.pads != {**plain, "g": PadReading(1.0, 0.0, 1.0)}
        # The idle pad reads rest, the floating needle its node, the open one 0 V.
        assert repr(plain["g"]) == repr(PadReading(0.0, 0.0, 0.0))
        assert plain["b"].volts == plain["b"].pad_volts == plain["o"].pad_volts > 0.0
        assert plain["o"].volts == 0.0

    def test_readings_keep_the_contacts_of_their_solve(self):
        # Needles changed after the solve do not change what it read: "o"
        # stays open at 0 V and "b" floating at its node.
        uut, contacts, result = self.solved()
        before = self.solved()[2]
        contacts["o"], contacts["b"] = ContactState(0.1), ContactState(2e6)
        assert repr(result.pads) == repr(before.pads)
        after = solve_dc(uut, contacts, {"a": Stimulus("current", 1e-3)})
        assert after["o"].volts > 0.0 and after["b"].volts == 0.0

    def test_first_read_of_an_undriven_pad_matches_every_order(self):
        uut, contacts, result = self.solved()
        again = solve_dc(uut, contacts, {"a": Stimulus("current", 1e-3)})
        assert [result[pid] for pid in ("o", "a", "b")] == [again[pid] for pid in ("b", "a", "o")][::-1]


def memo_of(uut):
    """The model's memo of DC solves from rest, the last entry of its system."""
    return uut._system[-1]


@st.composite
def memo_benches(draw):
    """A random board (every pad kind, some pads alike), stimuli (current
    and voltage drives, 0 Ohm pins among them, levels of +-0.0 and ints)
    and two sets of good, worn, open or 0 Ohm needles, the second worn
    again, opened or closed at some pads: (uut, stimuli, contacts, other)."""
    d = DiodeModel(draw(st.floats(1e-15, 1e-12)), draw(st.floats(1.0, 2.0)), VT,
                   draw(st.sampled_from([0.0, 2.0])))
    needle = st.one_of(st.none(), st.sampled_from([0.0, 0.1, 2e6]), st.floats(1e-3, 1e3))
    pads, stimuli, contacts, other = [], {}, {}, {}
    for i in range(draw(st.integers(1, 5))):
        pid = f"p{i}"
        kind = draw(st.sampled_from(sorted(CONDUCTS)))
        pads.append((pid, PadCircuit(kind_circuit(draw, kind, d),
                                     draw(st.sampled_from([0.0, 0.0, 1e-9])))))
        first = draw(needle)
        second = draw(st.sampled_from(["same", "flipped", "new"]))
        if second == "same":
            second = first
        elif second == "flipped":
            second = 0.1 if first == 2e6 else 2e6
        else:
            second = draw(needle)
        for needles, ohms in ((contacts, first), (other, second)):
            if ohms is not None:
                needles[pid] = ContactState(ohms)
        mode = draw(st.sampled_from(("current", "voltage", None) if CONDUCTS[kind]
                                    else ("voltage", None)))
        if mode == "current":
            level = draw(st.sampled_from([0, 0.0, -0.0, None, None, None]))
            if level is None:
                level = draw(st.sampled_from(CONDUCTS[kind])) * draw(st.floats(1e-5, 5e-3))
            stimuli[pid] = Stimulus(mode, level)
        elif mode == "voltage":
            stimuli[pid] = Stimulus(mode, draw(st.one_of(st.sampled_from([0, 1, -1, 0.0, -0.0]),
                                                         st.floats(-2.0, 2.0))),
                                    draw(st.one_of(st.sampled_from([0, 0.0]), st.floats(1.0, 1000.0))))
    uut = UutModel(
        pads=tuple(pads),
        vcc_path_ohms=draw(st.one_of(st.just(0.0), st.floats(1.0, 50.0))),
        gnd_path_ohms=draw(st.one_of(st.just(0.0), st.floats(1.0, 20.0))),
    )
    return uut, stimuli, contacts, other


class TestDcMemo:
    """A model keeps its DC solves from rest under what the class loop reads
    of each stimulated pad.  A solve that repeats one reads, repr for repr,
    what the same solve on a fresh copy of the model reads."""

    @given(memo_benches())
    @settings(max_examples=150, deadline=None)
    def test_a_memoized_solve_reads_as_a_fresh_one(self, bench):
        uut, stimuli, contacts, other = bench
        for order in ((contacts, other, contacts), (other, contacts, other)):
            model = replace(uut)
            for needles in order:
                assert outcome(lambda: solve_dc(model, needles, stimuli)) == outcome(
                    lambda: solve_dc(replace(uut), needles, stimuli))

    def test_a_repeated_solve_calls_no_law(self, monkeypatch):
        # A worn needle under a current drive adds I*R to the meter and
        # leaves the node problem as it was.
        uut = esd_uut()
        stimuli = {"p1": Stimulus("current", 1e-3)}
        worn = {"p1": ContactState(5.0), "p2": ContactState(2e6)}
        calls = law_calls(monkeypatch)
        first = solve_dc(uut, {"p1": ContactState(0.1)}, stimuli)
        assert calls
        del calls[:]
        again = solve_dc(uut, worn, stimuli)
        assert calls == []
        fresh = solve_dc(replace(uut), worn, stimuli)
        assert repr(again) == repr(fresh) != repr(first)
        assert again.iterations == first.iterations > 0

    def test_an_int_level_solves_as_its_float(self):
        stim = Stimulus("voltage", 1, 0)
        assert repr(stim) == "Stimulus(mode='voltage', level=1.0, source_ohms=0.0)"
        uut = load_default_fixture().bench.uut
        ints = solve_dc(uut, {}, {"p1": stim})
        floats = solve_dc(uut, {}, {"p1": Stimulus("voltage", 1.0)})
        fresh = solve_dc(replace(uut), {}, {"p1": Stimulus("voltage", 1.0)})
        assert repr(ints) == repr(floats) == repr(fresh)
        assert repr(ints["p1"].volts) == repr(ints["p1"].pad_volts) == "1.0"

    def test_zeros_of_either_sign_are_two_problems(self):
        # A pad pinned at -0.0 reads -0.0, and one pinned at +0.0 reads +0.0.
        uut = esd_uut()
        for levels in ((-0.0, 0.0), (0.0, -0.0)):
            for level in levels:
                stimuli = {"p1": Stimulus("voltage", level), "p2": Stimulus("current", level)}
                assert repr(solve_dc(uut, {}, stimuli)) == repr(solve_dc(replace(uut), {}, stimuli))

    def test_transient_steps_neither_read_nor_fill_the_memo(self, monkeypatch):
        uut = esd_uut()
        stimuli = {"p1": Stimulus("current", 1e-3)}
        step_transient(uut, {}, stimuli, None, 1e-4)
        assert memo_of(uut) == {}
        solve_dc(uut, {}, stimuli)
        kept = list(memo_of(uut).items())
        calls = law_calls(monkeypatch)
        step_transient(uut, {}, stimuli, None, 1e-4)
        assert calls
        assert list(memo_of(uut).items()) == kept

    def test_a_solve_that_raises_is_not_kept(self, monkeypatch):
        uut = UutModel(pads=(("p", diode_pad()),))
        stimuli = {"p": Stimulus("voltage", 1e308, 1e-300)}  # the drive's current overflows
        calls = law_calls(monkeypatch)
        for _ in range(2):
            del calls[:]
            with pytest.raises(NonConvergence, match="non-finite"):
                solve_dc(uut, {}, stimuli)
            assert calls
        assert memo_of(uut) == {}

    def test_the_memo_never_grows_past_its_bound(self):
        uut = UutModel(pads=(("p", diode_pad()),))
        sizes = []
        for k in range(1000):
            solve_dc(uut, {}, {"p": Stimulus("current", 1e-6 * (k + 1))})
            sizes.append(len(memo_of(uut)))
        assert max(sizes) == DC_MEMO_SIZE

    def test_threads_on_one_model_read_as_serial_solves(self):
        # More problems than the memo holds, solved over and over by four
        # threads at once, each in its own order, on one model.
        uut = esd_uut()
        problems = [({"p1": ContactState(0.1 * k)}, {f"p{k % 3 + 1}": Stimulus("current", 1e-4 * (k + 1))})
                    for k in range(DC_MEMO_SIZE + 7)]
        serial = [repr(solve_dc(replace(uut), *problem)) for problem in problems]
        order = list(range(len(problems)))
        orders = (order, order[::-1], order[5:] + order[:5], order[::2] + order[1::2])
        found = tuple([] for _ in orders)

        def solve(order, out):
            for _ in range(5):
                out.extend((k, repr(solve_dc(uut, *problems[k]))) for k in order)

        threads = [threading.Thread(target=solve, args=pair) for pair in zip(orders, found)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for out in found:
            assert len(out) == 5 * len(problems)
            assert all(text == serial[k] for k, text in out)
        # A store that races another may go one past the bound, never more.
        assert len(memo_of(uut)) < DC_MEMO_SIZE + len(threads)


def end_state(result):
    """The TransientState a DC solve ends at, built by hand."""
    return TransientState({pid: r.pad_volts for pid, r in result.pads.items()},
                          result.vcc_volts, result.gnd_volts)


class TestDcStart:
    """solve_dc(start=state) starts the Newton solve from state, rails
    included, and neither reads nor fills the memo."""

    @pytest.mark.parametrize("start", [{}, {"p1": 0.0}, 0.0, "rest", SolveResult({}, 0.0, 0.0, 0, 0.0)],
                             ids=["dict", "mapping", "float", "str", "result"])
    def test_a_start_that_is_not_a_state_is_refused(self, start):
        uut = esd_uut()
        with pytest.raises(TypeError, match="^start must be a TransientState or None, got "):
            solve_dc(uut, {}, {"p1": Stimulus("current", 1e-3)}, start=start)
        assert memo_of(uut) == {}

    def test_start_is_keyword_only(self):
        state = end_state(solve_dc(esd_uut(), {}, {"p1": Stimulus("current", 1e-3)}))
        with pytest.raises(TypeError):
            solve_dc(esd_uut(), {}, {"p1": Stimulus("current", 1e-3)}, state)

    @given(memo_benches())
    @settings(max_examples=150, deadline=None)
    def test_start_none_is_the_solve_from_rest(self, bench):
        uut, stimuli, contacts, _ = bench
        assert outcome(lambda: solve_dc(uut, contacts, stimuli, start=None)) == outcome(
            lambda: solve_dc(replace(uut), contacts, stimuli))

    @given(memo_benches())
    @settings(max_examples=150, deadline=None)
    def test_a_solve_started_at_its_own_end_reads_it_bit_for_bit(self, bench):
        # Every node starts settled, so no step moves it; the started solve
        # leaves the memo as it found it.
        uut, stimuli, contacts, other = bench
        try:
            rest = solve_dc(uut, contacts, stimuli)
        except NonConvergence:
            return
        kept = list(memo_of(uut).items())
        started = solve_dc(uut, contacts, stimuli, start=end_state(rest))
        assert repr((dict(started.pads), started.vcc_volts, started.gnd_volts)) == repr(
            (dict(rest.pads), rest.vcc_volts, rest.gnd_volts))
        outcome(lambda: solve_dc(uut, other, stimuli, start=end_state(rest)))
        assert list(memo_of(uut).items()) == kept

    def test_a_started_solve_calls_the_law_again_and_keeps_nothing(self, monkeypatch):
        uut = esd_uut()
        stimuli = {"p1": Stimulus("voltage", 3.3, 500.0)}
        state = end_state(solve_dc(uut, {}, stimuli))
        kept = list(memo_of(uut).items())
        calls = law_calls(monkeypatch)
        worn = {"p1": ContactState(100.0)}
        started = solve_dc(uut, worn, stimuli, start=state)
        assert calls and list(memo_of(uut).items()) == kept
        rest = solve_dc(replace(uut), worn, stimuli)
        assert abs(started.vcc_volts - rest.vcc_volts) <= 2.0 * (
            VOLTS_TOLERANCE + RELATIVE_TOLERANCE * abs(rest.vcc_volts) + KCL_TOLERANCE_AMPS * 25.0)


class TestPoweredConsumption:
    def powered(self):
        return UutModel(
            pads=(("in", PadCircuit(OpenPad())),),
            powered=True,
            consumption_map=((0.0, 0.0), (1.0, 1e-3), (2.0, 3e-3)),
        )

    def test_exact_at_knots(self):
        uut = self.powered()
        assert powered_consumption(uut, 1.0) == 1e-3
        assert powered_consumption(uut, 2.0) == 3e-3

    def test_linear_midpoint(self):
        assert powered_consumption(self.powered(), 1.5) == pytest.approx(2e-3)

    def test_clamped_outside_knots(self):
        uut = self.powered()
        assert powered_consumption(uut, -5.0) == 0.0
        assert powered_consumption(uut, 9.0) == 3e-3

    def test_unpowered_model_rejected(self):
        uut = UutModel(pads=(("in", PadCircuit(OpenPad())),))
        with pytest.raises(NotPoweredModel):
            powered_consumption(uut, 1.0)

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8,
                 unique=True),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8),
        st.lists(st.floats(), max_size=8),
        st.lists(st.floats(0.0, 1.0), max_size=8),
    )
    @example([0.0, 1.0, 2.0], [0.0, 1e-3, 3e-3], [], [0.25, 0.5, 0.75])
    @example([-1e308, 1e308], [-1e308, 1e308], [], [0.5, 1e-300])  # inf / inf slope
    @example([-1.7e308, 1.7e308], [0.0, 0.0], [], [0.65])  # x - volts[0] overflows
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_numpy_interp(self, volts, amps, anywhere, fractions):
        volts = sorted(volts)
        amps = sorted(amps[:len(volts)])
        uut = UutModel(
            pads=(("in", PadCircuit(OpenPad())),),
            powered=True,
            consumption_map=tuple(zip(volts, amps)),
        )
        inputs = [
            *volts,  # knots
            math.nextafter(volts[0], -math.inf), math.nextafter(volts[-1], math.inf),
            -math.inf, math.inf, math.nan,
            *anywhere,
            *((1.0 - t) * volts[0] + t * volts[-1] for t in fractions),  # inside the map
        ]
        for x in inputs:
            want = float(np.interp(x, volts, amps))
            assert powered_consumption(uut, x).hex() == want.hex(), x

    def test_powered_requires_map(self):
        with pytest.raises(ValueError):
            UutModel(pads=(("in", PadCircuit(OpenPad())),), powered=True)

    def test_map_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            UutModel(
                pads=(("in", PadCircuit(OpenPad())),),
                powered=True,
                consumption_map=((0.0, 2e-3), (1.0, 1e-3)),
            )


class TestContactWear:
    def test_zero_rate_unchanged(self):
        c = ContactState(0.1, wear_rate=0.0)
        assert wear_step(c, 1000).resistance == 0.1

    def test_wear_arithmetic(self):
        c = ContactState(0.1, wear_rate=0.05)
        worn = wear_step(c, 100)
        assert worn.resistance == pytest.approx(5.1)
        assert worn.cycles == 100

    def test_crossing_threshold_opens(self):
        c = ContactState(0.1, wear_rate=1.0, open_threshold=50.0)
        assert not c.is_open
        assert wear_step(c, 100).is_open

    def test_resistance_nondecreasing(self):
        c = ContactState(1.0, wear_rate=0.01)
        for cycles in (0, 1, 10, 500):
            assert wear_step(c, cycles).resistance >= c.resistance

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            wear_step(ContactState(0.1), -1)


class TestDiodeModel:
    def test_current_zero_at_zero(self):
        d = DiodeModel(1e-14, 1.5, VT, 3.0)
        assert d.current(0.0) == 0.0

    @given(st.floats(-0.1, 1.0), st.floats(0.0, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing(self, v, rs):
        d = DiodeModel(1e-14, 1.2, VT, rs)
        eps = 1e-4
        assert d.current(v + eps) > d.current(v)

    @given(st.floats(1.0, 3.0), st.floats(0.01, 0.1), st.floats(1.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_nvt_follows_its_fields(self, ideality, vt, new_ideality):
        d = DiodeModel(1e-14, ideality, vt)
        assert d.nvt == ideality * vt
        e = replace(d, ideality=new_ideality)
        assert e.nvt == new_ideality * vt

    def test_cached_nvt_not_compared_hashed_or_shown(self):
        d = DiodeModel(1e-14, 1.5, VT, 2.0)
        assert repr(d) == ("DiodeModel(saturation_current=1e-14, ideality=1.5, "
                           "thermal_voltage=0.02585, series_resistance=2.0)")
        assert hash(d) == hash((1e-14, 1.5, VT, 2.0))
        assert d == DiodeModel(1e-14, 1.5, VT, 2.0) != DiodeModel(1e-14, 1.5, VT)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DiodeModel(0.0)
        with pytest.raises(ValueError, match="must be finite"):
            DiodeModel(1.0, 1.0, 1e-310)  # Is / nVt overflows
        with pytest.raises(ValueError):
            DiodeModel(1e-14, ideality=0.5)
        with pytest.raises(ValueError):
            DiodeModel(1e-14, thermal_voltage=0.0)

    def test_rest_conductance_bound(self):
        # Is / nVt = 1e300 S: once the junction is off, a reverse current
        # left the residual flat to rounding, and the solve stalled.
        with pytest.raises(ValueError, match="at most 1 S"):
            DiodeModel(1e-5, 1.0, 1e-305)
        with pytest.raises(ValueError, match="at most 1 S"):
            DiodeModel(0.5, 1.0, 0.25)
        d = DiodeModel(0.25, 1.0, 0.25)  # exactly the bound
        uut = UutModel(pads=(("p", PadCircuit(SeriesDiode(d))),))
        for amps in (1e-3, -1e-3):
            assert solve_dc(uut, {}, {"p": Stimulus("current", amps)}).residual < 1e-9


def test_uut_cached_system_not_compared_hashed_or_shown():
    d = DiodeModel(1e-14)
    pads = (("p1", PadCircuit(EsdPair(d, d))), ("p2", PadCircuit(OpenPad(), 1e-9)))
    uut = UutModel(pads, 25.0, 0.0)
    solve_dc(uut, {}, {"p1": Stimulus("current", 1e-3)})
    assert memo_of(uut)
    assert repr(uut) == (f"UutModel(pads={pads!r}, vcc_path_ohms=25.0, gnd_path_ohms=0.0, "
                         "powered=False, consumption_map=None)")
    assert hash(uut) == hash((pads, 25.0, 0.0, False, None))
    assert uut == UutModel(pads, 25.0, 0.0) != UutModel(pads, 25.0, 1.0)
    assert replace(uut, gnd_path_ohms=1.0) == UutModel(pads, 25.0, 1.0)


@pytest.mark.parametrize("ohms", [5e-324, 5e-309], ids=["smallest", "reciprocal-overflows"])
def test_resistor_needs_a_finite_conductance(ohms):
    with pytest.raises(ValueError, match="finite 1 / ohms"):
        Resistive(ohms)
    assert Resistive(1e-308).conductance(0.0) == 1e308


def test_bench_default_contact_is_ideal():
    bench = Bench(esd_uut(), {})
    assert bench.contact("p1").resistance == 0.0
    assert not bench.contact("p1").is_open
