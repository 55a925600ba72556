"""DC/transient solver tests against closed-form and analytic oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcit.circuit import (
    Bench,
    ContactState,
    DiodeModel,
    EsdPair,
    Led,
    OpenPad,
    PadCircuit,
    Resistive,
    SeriesDiode,
    Stimulus,
    UutModel,
    powered_consumption,
    solve_dc,
    solve_rail_sense,
    step_transient,
    wear_step,
)
from vcit.errors import NoPathToRail, NotPoweredModel, UnknownPad

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


def kcl_residual(uut, contacts, stimuli, result):
    """Recompute KCL at every node from the returned voltages, using a
    test-local evaluation of each branch, independent of the solver path."""

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
            else:
                r = stim.source_ohms + c.effective_ohms
                i_in = (stim.level - vp) / max(r, 1e-9)
        worst = max(worst, abs(iv + ig + gmin * vp - i_in))
    if uut.vcc_path_ohms > 0.0:
        worst = max(worst, abs(vv / uut.vcc_path_ohms - into_vcc))
    if uut.gnd_path_ohms > 0.0:
        worst = max(worst, abs(vg / uut.gnd_path_ohms - into_gnd))
    return worst


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
        # Signs of current each kind conducts; an open pad conducts none, so
        # it is only driven in voltage mode.
        conducts = {"esd": (1, -1), "diode": (1,), "diode-": (-1,), "led": (1,), "res": (1, -1),
                    "open": ()}
        seen = set()
        for _ in range(80):
            n_pads = int(rng.integers(1, 5))
            pads = []
            stimuli = {}
            d = DiodeModel(float(rng.uniform(1e-15, 1e-12)), float(rng.uniform(1.0, 2.0)))
            led = DiodeModel(1e-18, 2.0)
            for i in range(n_pads):
                pid = f"p{i}"
                kind = str(rng.choice(list(conducts)))
                circuit = {
                    "esd": lambda: EsdPair(d, d),
                    "diode": lambda: SeriesDiode(d),
                    "diode-": lambda: SeriesDiode(d, polarity=-1),
                    "led": lambda: Led(led, "red"),
                    "res": lambda: Resistive(float(rng.uniform(10, 300))),
                    "open": OpenPad,
                }[kind]()
                pads.append((pid, PadCircuit(circuit)))
                if conducts[kind] and rng.random() < 0.5:
                    sign = float(rng.choice(conducts[kind]))
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
        assert seen == {(k, "current") for k, signs in conducts.items() if signs} | {
            (k, "voltage") for k in conducts
        } | {("gnd-path", True), ("gnd-path", False)}


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

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DiodeModel(0.0)
        with pytest.raises(ValueError):
            DiodeModel(1e-14, ideality=0.5)
        with pytest.raises(ValueError):
            DiodeModel(1e-14, thermal_voltage=0.0)


def test_bench_default_contact_is_ideal():
    bench = Bench(esd_uut(), {})
    assert bench.contact("p1").resistance == 0.0
    assert not bench.contact("p1").is_open
