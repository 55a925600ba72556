"""KCL check made outside the solver.

Takes the node voltages that a solve returned and recomputes the current
balance at every node from the model's element laws: the Shockley diode law,
resistors, contacts, sources, rail paths and the implicit-Euler companion of
each shunt capacitance.  The solver's own residual is not used, so a solver
that misreports it cannot pass the benchmark's KCL check.
"""

from __future__ import annotations

import math

from vcit import circuit

# Leak conductance of the model across every junction and from every pad
# node to ground; part of the network's equations.
GMIN = 1e-12
# Resistance that stands in for an ideal voltage source through an ideal contact.
IDEAL_SOURCE_OHMS = 1e-9


def diode_current(d, v):
    """Port current of a DiodeModel at port voltage v.  With a series
    resistance the junction voltage is found by bisection."""
    nvt = d.ideality * d.thermal_voltage
    try:
        if d.series_resistance == 0.0:
            return d.saturation_current * math.expm1(v / nvt)
        lo, hi = min(0.0, v), max(0.0, v)
        for _ in range(100):
            vd = 0.5 * (lo + hi)
            if d.saturation_current * math.expm1(vd / nvt) > (v - vd) / d.series_resistance:
                hi = vd
            else:
                lo = vd
        return (v - 0.5 * (lo + hi)) / d.series_resistance
    except OverflowError:
        return math.inf


def branch_currents(kind, vp, vv, vg):
    """Currents from the pad node into the VCC and GND nodes."""
    if isinstance(kind, circuit.EsdPair):
        i_vcc = diode_current(kind.to_vcc, vp - vv) + GMIN * (vp - vv)
        i_gnd = -(diode_current(kind.to_gnd, vg - vp) + GMIN * (vg - vp))
        return i_vcc, i_gnd
    if isinstance(kind, circuit.SeriesDiode):
        if kind.polarity == 1:
            return 0.0, diode_current(kind.diode, vp - vg) + GMIN * (vp - vg)
        return 0.0, -(diode_current(kind.diode, vg - vp) + GMIN * (vg - vp))
    if isinstance(kind, circuit.Led):
        return 0.0, diode_current(kind.diode, vp - vg) + GMIN * (vp - vg)
    if isinstance(kind, circuit.Resistive):
        return 0.0, (vp - vg) / kind.ohms
    return 0.0, 0.0


def _worse(worst, imbalance):
    """The larger of two imbalances; NaN counts as infinite."""
    imbalance = abs(imbalance)
    return math.inf if math.isnan(imbalance) else max(worst, imbalance)


def residual(uut, contacts, stimuli, result, state=None, dt=None):
    """Largest KCL imbalance in amperes over every node of one solve.
    ``state`` and ``dt`` are the capacitor state and step of a transient."""
    vv, vg = result.vcc_volts, result.gnd_volts
    if not all(map(math.isfinite, (vv, vg, *(r.pad_volts for r in result.pads.values())))):
        return math.inf
    to_vcc = to_gnd = 0.0
    worst = 0.0
    for pid, pc in uut.pads:
        vp = result.pads[pid].pad_volts
        i_vcc, i_gnd = branch_currents(pc.kind, vp, vv, vg)
        to_vcc += i_vcc
        to_gnd += i_gnd
        out = i_vcc + i_gnd + GMIN * vp
        if dt is not None and pc.shunt_capacitance > 0.0:
            before = state.get(pid, 0.0) if state is not None else 0.0
            out += pc.shunt_capacitance / dt * (vp - before)
        stim = stimuli.get(pid)
        contact = contacts.get(pid, circuit.GOOD_CONTACT)
        if stim is None:
            injected = 0.0
        elif stim.mode == "current":
            injected = 0.0 if contact.is_open else stim.level
        else:
            ohms = stim.source_ohms + contact.effective_ohms
            injected = (stim.level - vp) / (ohms if ohms > 0.0 else IDEAL_SOURCE_OHMS)
        worst = _worse(worst, out - injected)
    if uut.vcc_path_ohms > 0.0:
        worst = _worse(worst, vv / uut.vcc_path_ohms - to_vcc)
    elif vv != 0.0:
        return math.inf  # a rail with no path resistance is pinned at ground
    if uut.gnd_path_ohms > 0.0:
        worst = _worse(worst, vg / uut.gnd_path_ohms - to_gnd)
    elif vg != 0.0:
        return math.inf
    return worst
