"""Prober instrument tests: waveform execution, protection clamping, charge
measurement, and the capture block format."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcit import prober
from vcit.bus import BusReply
from vcit.checks import VcitVerdict
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
)
from vcit.errors import ProtocolError, SimulationFailure, UnknownPad
from vcit.executive import PadCheck, SessionEvent, Verdict
from vcit.fixture import load_default_fixture
from vcit.prober import (
    CaptureRecord,
    ProtectionLimits,
    StimulusWaveform,
    _read_number,
    execute,
    format_capture,
    parse_captures,
)

LIMITS = ProtectionLimits(max_abs_voltage=2.0, max_abs_current=0.05)


def diode_bench(contact_ohms=0.1):
    uut = UutModel(pads=(("p1", PadCircuit(SeriesDiode(DiodeModel(1e-14)))),))
    return Bench(uut, {"p1": ContactState(contact_ohms)})


class TestExecute:
    def test_constant_current_capture(self):
        bench = diode_bench()
        waveform = StimulusWaveform("current", (1e-3,) * 4, 1e-3, ("p1",))
        (capture,) = execute(waveform, LIMITS, bench)
        expected = 0.02585 * math.log(1.0 + 1e-3 / 1e-14) + 1e-3 * 0.1
        assert capture.applied == waveform.samples
        assert not capture.protection_tripped
        for v, i in zip(capture.measured_voltage, capture.measured_current):
            assert v == pytest.approx(expected, abs=1e-6)
            assert i == 1e-3

    def test_zero_waveform_reads_zero(self):
        bench = diode_bench()
        waveform = StimulusWaveform("current", (0.0, 0.0), 1e-3, ("p1",))
        (capture,) = execute(waveform, LIMITS, bench)
        assert capture.measured_voltage == (0.0, 0.0)
        assert capture.measured_current == (0.0, 0.0)
        assert not capture.protection_tripped

    def test_open_contact_rails_to_voltage_clamp(self):
        bench = diode_bench(contact_ohms=2e6)  # open needle
        waveform = StimulusWaveform("current", (1e-3,) * 3, 1e-3, ("p1",))
        (capture,) = execute(waveform, LIMITS, bench)
        assert capture.protection_tripped
        assert capture.trip_index == 0
        for v, i in zip(capture.measured_voltage, capture.measured_current):
            assert v == LIMITS.max_abs_voltage  # exactly at the clamp
            assert abs(i) < 1e-9

    def test_overcurrent_level_preclamped(self):
        bench = diode_bench()
        waveform = StimulusWaveform("current", (0.1,), 1e-3, ("p1",))  # 2x the limit
        (capture,) = execute(waveform, LIMITS, bench)
        assert capture.protection_tripped and capture.trip_index == 0
        assert capture.applied == (0.1,)  # the request is recorded as asked
        assert capture.measured_current[0] == LIMITS.max_abs_current

    def test_voltage_mode_overcurrent_clamped(self):
        # 1.5 V across a ~0.7 V diode through 0.1 ohm would be amps; must clamp.
        bench = diode_bench()
        waveform = StimulusWaveform("voltage", (1.5,), 1e-3, ("p1",))
        (capture,) = execute(waveform, LIMITS, bench)
        assert capture.protection_tripped
        assert abs(capture.measured_current[0]) <= LIMITS.max_abs_current

    def test_no_reading_ever_exceeds_limits(self):
        # ESD pair conducts both ways, so bipolar overdrive stays solvable.
        from vcit.circuit import EsdPair

        d = DiodeModel(1e-14)
        uut = UutModel(pads=(("p1", PadCircuit(EsdPair(d, d))),))
        bench = Bench(uut, {"p1": ContactState(0.1)})
        for mode, levels in (("current", (1e-3, 0.2, -0.2)), ("voltage", (0.5, 3.0, -3.0))):
            waveform = StimulusWaveform(mode, levels, 1e-3, ("p1",))
            (capture,) = execute(waveform, LIMITS, bench)
            for v, i in zip(capture.measured_voltage, capture.measured_current):
                assert abs(v) <= LIMITS.max_abs_voltage + 1e-12
                assert abs(i) <= LIMITS.max_abs_current + 1e-12

    def test_series_lengths_synchronized(self):
        bench = diode_bench()
        waveform = StimulusWaveform("current", (1e-4, 2e-4, 3e-4, 4e-4, 5e-4), 1e-3, ("p1",))
        (capture,) = execute(waveform, LIMITS, bench)
        assert len(capture.applied) == len(capture.measured_voltage) == len(capture.measured_current)
        assert capture.dt == waveform.dt

    def test_multi_pad_one_capture_each(self):
        d = DiodeModel(1e-14)
        uut = UutModel(
            pads=(
                ("a", PadCircuit(SeriesDiode(d))),
                ("b", PadCircuit(SeriesDiode(d))),
            )
        )
        bench = Bench(uut, {"a": ContactState(0.1), "b": ContactState(0.1)})
        waveform = StimulusWaveform("current", (1e-3,), 1e-3, ("a", "b"))
        captures = execute(waveform, LIMITS, bench)
        assert [c.pad_id for c in captures] == ["a", "b"]

    @pytest.mark.parametrize("capacitance, targets", [(0.0, ("nope",)), (1e-9, ("nope",)),
                                                      (0.0, ("p1", "nope", "gone"))],
                             ids=["dc", "capacitive", "second-target"])
    def test_unknown_pad(self, capacitance, targets):
        # The first solve refuses the first target the model does not have.
        uut = UutModel(pads=(("p1", PadCircuit(SeriesDiode(DiodeModel(1e-14)), capacitance)),))
        with pytest.raises(UnknownPad, match="^no such pad: 'nope'$"):
            execute(StimulusWaveform("current", (1e-3, 2e-3), 1e-3, targets), LIMITS, Bench(uut))

    @pytest.mark.parametrize("ohms", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", [Stimulus, StimulusWaveform])
    def test_bad_source_ohms_rejected(self, kind, ohms):
        with pytest.raises(ValueError):
            if kind is Stimulus:
                Stimulus("voltage", 1.0, ohms)
            else:
                StimulusWaveform("voltage", (1.0,), 1e-3, ("p1",), ohms)


class TestRailsAndClamps:
    """Currents that a pad cannot carry under the voltage limit rail and
    clamp at it, whatever the pad kind and however far the rail is."""

    NEEDLE = ContactState(1e-3)

    @pytest.mark.parametrize("kind, level", [(OpenPad(), 1e-3), (Led(DiodeModel(1e-18, 2.0)), -1e-3)],
                             ids=["open-pad", "reverse-led"])
    def test_pad_that_cannot_conduct_rails(self, kind, level):
        uut = UutModel(pads=(("p", PadCircuit(kind)), ("e", PadCircuit(EsdPair(_DIODE, _DIODE)))))
        bench = Bench(uut, {"p": self.NEEDLE, "e": self.NEEDLE})
        (capture,) = execute(StimulusWaveform("current", (level,), 1e-3, ("p",)), LIMITS, bench)
        assert capture.measured_voltage == (math.copysign(LIMITS.max_abs_voltage, level),)
        assert capture.trip_index == 0

    @pytest.mark.parametrize("count", [2, 3])
    def test_50_ma_into_default_fixture_pads_rails(self, count):
        bench = load_default_fixture().bench
        targets = tuple(pid for pid, _ in bench.uut.pads)[:count]
        captures = execute(StimulusWaveform("current", (0.05,), 1e-3, targets), LIMITS, bench)
        assert len(captures) == count
        for capture in captures:
            assert capture.measured_voltage == (LIMITS.max_abs_voltage,)
            assert capture.trip_index == 0

    def test_resistive_pad_beside_an_esd_pair_rails(self):
        # 2 mA through 1732 Ohm needs 3.46 V.
        uut = UutModel(pads=(("r", PadCircuit(Resistive(1732.0))),
                             ("e", PadCircuit(EsdPair(_DIODE, _DIODE)))))
        bench = Bench(uut, {"r": self.NEEDLE, "e": self.NEEDLE})
        (capture,) = execute(StimulusWaveform("current", (2e-3,), 1e-3, ("r",)), LIMITS, bench)
        assert capture.measured_voltage == (LIMITS.max_abs_voltage,)
        assert capture.trip_index == 0

    def test_led_behind_a_gnd_path_clamps(self):
        # 4.7 mA would lift the LED node to about 2.6 V.
        uut = UutModel(pads=(("s", PadCircuit(SeriesDiode(_DIODE))),
                             ("l", PadCircuit(Led(DiodeModel(1e-18, 2.0))))),
                       vcc_path_ohms=0.0, gnd_path_ohms=76.0)
        bench = Bench(uut, {"s": self.NEEDLE, "l": self.NEEDLE})
        diode, led = execute(StimulusWaveform("current", (4.7e-3,), 1e-3, ("s", "l")), LIMITS, bench)
        assert diode.measured_current == (4.7e-3,) and not diode.protection_tripped
        assert led.measured_voltage == (LIMITS.max_abs_voltage,)
        assert led.trip_index == 0


def per_sample_reference(waveform, limits, bench):
    """Captures of each sample executed as its own one-sample waveform,
    concatenated; the trip index is the first sample that tripped."""
    parts = [
        execute(replace(waveform, samples=(level,)), limits, bench)
        for level in waveform.samples
    ]
    captures = []
    for j, pid in enumerate(waveform.target_pads):
        pieces = [part[j] for part in parts]
        trip = next((k for k, c in enumerate(pieces) if c.protection_tripped), None)
        captures.append(
            CaptureRecord(
                pad_id=pid,
                dt=waveform.dt,
                applied=waveform.samples,
                measured_voltage=tuple(c.measured_voltage[0] for c in pieces),
                measured_current=tuple(c.measured_current[0] for c in pieces),
                trip_index=trip,
            )
        )
    return captures


_DIODE = DiodeModel(1e-14)
# Current mode keeps to pads that conduct both ways; TestRailsAndClamps and
# the execute property in test_circuit.py drive the others.
_PAD_KINDS = {
    "current": [EsdPair(_DIODE, _DIODE), Resistive(100.0), Resistive(1e4)],
    "voltage": [
        EsdPair(_DIODE, _DIODE),
        SeriesDiode(_DIODE, 1),
        SeriesDiode(_DIODE, -1),
        Led(DiodeModel(1e-18, 2.0)),
        Resistive(100.0),
        OpenPad(),
    ],
}
# Levels on both sides of LIMITS in each mode, so that pre-clamps, clamps
# after a solve and trips all occur; -0.0 must read apart from 0.0.
_LEVELS = {
    "current": [0.0, -0.0, 1e-4, -1e-4, 1e-3, -2e-3, 0.08, -0.08],
    "voltage": [0.0, -0.0, 0.3, -0.5, 0.7, 1.5, 3.0, -3.0],
}


@st.composite
def dc_runs(draw):
    """A DC bench and a waveform made of runs of repeated levels."""
    mode = draw(st.sampled_from(["current", "voltage"]))
    n = draw(st.integers(min_value=1, max_value=3))
    pads = tuple(
        (f"p{i}", PadCircuit(draw(st.sampled_from(_PAD_KINDS[mode])))) for i in range(n)
    )
    contacts = {pid: ContactState(draw(st.sampled_from([0.1, 10.0, 2e6]))) for pid, _ in pads}
    bench = Bench(UutModel(pads=pads), contacts)
    runs = draw(
        st.lists(
            st.tuples(st.sampled_from(_LEVELS[mode]), st.integers(min_value=1, max_value=4)),
            min_size=1,
            max_size=4,
        )
    )
    samples = tuple(level for level, count in runs for _ in range(count))
    targets = draw(st.permutations([pid for pid, _ in pads]))
    k = draw(st.integers(min_value=1, max_value=n))
    return bench, StimulusWaveform(mode, samples, 1e-3, tuple(targets[:k]))


class TestRepeatedSamples:
    """A DC sample whose level equals the previous sample's reuses its solve."""

    @given(dc_runs())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_sample_reference(self, case):
        bench, waveform = case
        try:
            expected = per_sample_reference(waveform, LIMITS, bench)
        except SimulationFailure:
            with pytest.raises(SimulationFailure):
                execute(waveform, LIMITS, bench)
            return
        captures = execute(waveform, LIMITS, bench)
        assert captures == expected
        # repr keeps every bit, including the sign of a zero
        assert [format_capture(c) for c in captures] == [format_capture(c) for c in expected]

    def test_negative_zero_is_not_a_repeat(self):
        waveform = StimulusWaveform("current", (0.0, -0.0), 1e-3, ("p1",))
        (capture,) = execute(waveform, LIMITS, diode_bench())
        assert [repr(i) for i in capture.measured_current] == ["0.0", "-0.0"]

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        real = getattr(prober, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(prober, name, counted)
        return calls

    @pytest.mark.parametrize("contact_ohms", [0.1, 2e6], ids=["unclamped", "clamped"])
    def test_constant_dc_waveform_solves_once_per_clamp_pass(self, monkeypatch, contact_ohms):
        bench = diode_bench(contact_ohms)
        calls = self.count_calls(monkeypatch, "solve_dc")
        execute(StimulusWaveform("current", (1e-3,), 1e-3, ("p1",)), LIMITS, bench)
        passes = len(calls)
        assert passes == (1 if contact_ohms < 1e6 else 2)
        calls.clear()
        (capture,) = execute(StimulusWaveform("current", (1e-3,) * 64, 1e-3, ("p1",)), LIMITS, bench)
        assert len(capture) == 64
        assert len(calls) == passes

    def test_capacitive_bench_steps_every_sample(self, monkeypatch):
        uut = UutModel(pads=(("rc", PadCircuit(OpenPad(), shunt_capacitance=1e-6)),))
        bench = Bench(uut, {"rc": ContactState(1000.0)})
        steps = self.count_calls(monkeypatch, "step_transient")
        solves = self.count_calls(monkeypatch, "solve_dc")
        (capture,) = execute(StimulusWaveform("voltage", (1.0,) * 64, 1e-5, ("rc",)), LIMITS, bench)
        assert len(steps) == 64 and not solves
        assert len(set(capture.measured_current)) > 1  # the capacitor charges


@pytest.mark.parametrize(
    "value",
    [
        SessionEvent(0, "Idle", "session-start", "seed=0"),
        Verdict("pass"),
        ContactState(0.1),
        diode_bench(),
        Stimulus("current", 1e-3),
        StimulusWaveform("current", (1e-3,), 1e-3, ("p1",)),
        CaptureRecord("p1", 1e-3, (0.0,), (0.0,), (0.0,)),
        PadCheck("p1", "current", 1e-3, (0.3, 1.0)),
        VcitVerdict(True, {}),
        BusReply(),
    ],
    ids=lambda value: type(value).__name__,
)
def test_retained_values_have_no_instance_dict(value):
    # A session or bus cycle keeps many of these; slots keep each one small.
    assert not hasattr(value, "__dict__")


class TestMeasureCharge:
    """Charge moved over a capture: each held current sample times its dt slot."""

    def test_rc_charge_equals_capacitor_charge(self):
        # 1 kohm needle into a 1 uF shunt: integrated contact current must
        # equal C * (final pad voltage).
        uut = UutModel(pads=(("rc", PadCircuit(OpenPad(), shunt_capacitance=1e-6)),))
        bench = Bench(uut, {"rc": ContactState(1000.0)})
        waveform = StimulusWaveform("voltage", (1.0,) * 200, 1e-5, ("rc",))
        (capture,) = execute(waveform, LIMITS, bench)
        v_pad_final = 1.0 - capture.measured_current[-1] * 1000.0
        charge = capture.dt * math.fsum(capture.measured_current)
        assert charge == pytest.approx(1e-6 * v_pad_final, abs=1e-10)


class TestCaptureFormat:
    def test_round_trip(self):
        c = CaptureRecord(
            pad_id="p1",
            dt=1e-3,
            applied=(1e-3, 2e-3),
            measured_voltage=(0.6548400711592981, 0.672),
            measured_current=(1e-3, 2e-3),
            trip_index=1,
        )
        assert parse_captures(format_capture(c).splitlines()) == [c]

    def test_round_trip_untripped(self):
        c = CaptureRecord("x", 2e-3, (0.0,), (0.0,), (0.0,))
        assert parse_captures(format_capture(c).splitlines()) == [c]

    @pytest.mark.parametrize(
        "lines",
        [
            ["capture p1 0.001 3 0 -", "0 0 0"],
            ["capture p1 0.001 1 2 -", "0 0 0"],
            ["capture p1 0.001 1 2 0", "0 0 0"],
            ["capture p1 0.001 1 1 -", "0 0 0"],
            ["capture p1 0.001 1 0 0", "0 0 0"],
            ["capture p1 0.001 1 1 x", "0 0 0"],
            ["capture p1 0.001 1 1 1", "0 0 0"],
            ["capture p1 0.001 0 0 -"],
            ["capture p1 nan 1 0 -", "0 0 0"],
            ["capture p1 0.0 1 0 -", "0 0 0"],
            ["capture p1 -1.0 1 0 -", "0 0 0"],
            ["capture p1 0.001 1 0 -", "0 x 0"],
            ["capture p1 0.001 1 0 -", "0 nan 0"],
            ["capture p1 0.001 1 0 -", "0 0 inf"],
            ["capture p1 0.001 1 0 -", "0 0"],
        ],
        ids=[
            "count-short", "flag-2-untripped", "flag-2-index", "tripped-no-index",
            "untripped-index", "index-not-int", "index-past-end", "no-samples", "dt-nan",
            "dt-zero", "dt-negative",
            "row-not-float", "row-nan", "row-inf", "row-short",
        ],
    )
    def test_bad_blocks_raise(self, lines):
        with pytest.raises(ProtocolError):
            parse_captures(lines)

    def test_read_block_count_checked(self):
        block = (format_capture(CaptureRecord("p1", 1e-3, (0.0,), (0.0,), (0.0,)))
                 + format_capture(CaptureRecord("p2", 1e-3, (1.0,), (0.5,), (2e-3,))))
        lines = block.splitlines()
        assert [c.pad_id for c in parse_captures(lines)] == ["p1", "p2"]
        for wrong in ("capture p1 0.001 2 0 -", "capture p1 0.001 3 0 -"):
            with pytest.raises(ProtocolError):
                parse_captures([wrong] + lines[1:])

    @given(
        st.lists(
            st.tuples(
                st.text("abcxyz019_-", min_size=1, max_size=6),
                st.floats(min_value=1e-9, max_value=1.0),
                st.lists(
                    st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                    min_size=1,
                    max_size=5,
                ),
                st.integers(min_value=-1, max_value=4),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_concatenated_blocks_round_trip_bit_exact(self, specs):
        captures = []
        for pad_id, dt, rows, trip in specs:
            trip_index = trip if 0 <= trip < len(rows) else None
            applied, volts, amps = zip(*rows)
            captures.append(CaptureRecord(pad_id, dt, applied, volts, amps, trip_index))
        text = "".join(format_capture(c) for c in captures)
        parsed = parse_captures(text.splitlines())
        assert parsed == captures
        assert "".join(format_capture(c) for c in parsed) == text  # repr keeps every bit

    @given(
        st.one_of(st.text("abcxyz019_-", min_size=1, max_size=6),
                  st.text("ab \t\n\r\x0b\x0c\x1c\x85\u2028", max_size=4)),
        st.one_of(st.floats(min_value=1e-9, max_value=1.0),
                  st.sampled_from([0.0, -0.0, -1e-3, math.inf, -math.inf, math.nan])),
        st.lists(st.tuples(*[st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                       st.sampled_from([math.inf, -math.inf, math.nan]))] * 3),
                 min_size=1, max_size=5),
        st.one_of(st.none(), st.integers(min_value=-10, max_value=10)),
    )
    @example("p1", 0.0, [(0.0, 0.0, 0.0)], None)
    @example("p1", math.inf, [(0.0, 0.0, 0.0)], None)
    @example("p1", 1e-3, [(0.0, math.nan, 0.0)], None)
    @example("p 1", 1e-3, [(0.0, 0.0, 0.0)], None)
    @example("", 1e-3, [(0.0, 0.0, 0.0)], None)
    @settings(max_examples=300, deadline=None)
    def test_built_records_round_trip(self, pad_id, dt, rows, trip_index):
        # What the constructor and format_capture accept, parse_captures
        # reads back; the rest raises ValueError.
        applied, volts, amps = zip(*rows)
        try:
            record = CaptureRecord(pad_id, dt, applied, volts, amps, trip_index)
            text = format_capture(record)
        except ValueError:
            good_index = trip_index is None or 0 <= trip_index < len(rows)
            finite = all(map(math.isfinite, (dt, *applied, *volts, *amps)))
            assert not (good_index and finite and dt > 0.0 and pad_id.split() == [pad_id])
            return
        assert parse_captures(text.splitlines()) == [record]

    @pytest.mark.parametrize("trip_index", [-1, 1, 5], ids=["negative", "one-past-end", "far-past-end"])
    def test_trip_index_out_of_range_raises(self, trip_index):
        with pytest.raises(ValueError, match="trip_index"):
            CaptureRecord("p1", 1e-3, (0.0,), (0.0,), (0.0,), trip_index=trip_index)

    @pytest.mark.parametrize("trip_index", [True, 0.0, "0"], ids=["bool", "float", "str"])
    def test_trip_index_not_an_int_raises(self, trip_index):
        with pytest.raises(TypeError, match="trip_index"):
            CaptureRecord("p1", 1e-3, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), trip_index=trip_index)

    def test_invariant_tripped_iff_index(self):
        # The trip is stored once, as its index; the flag is read from it.
        assert not CaptureRecord("p1", 1e-3, (0.0,), (0.0,), (0.0,)).protection_tripped
        assert CaptureRecord("p1", 1e-3, (0.0,), (0.0,), (0.0,), trip_index=0).protection_tripped
        with pytest.raises(TypeError):
            CaptureRecord("p1", 1e-3, (0.0,), (0.0,), (0.0,), protection_tripped=True)


class TestNumberGrammar:
    """One ASCII number grammar at every text boundary: an optional sign and
    digits, and for a float an optional fraction and signed exponent."""

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(5e-324)
    @example(2.2250738585072014e-308)
    @example(1e16)
    @example(1.7976931348623157e308)
    def test_every_finite_float_repr_reads_back(self, x):
        got = _read_number(repr(x))
        assert repr(got) == repr(x)

    @given(st.integers(-10**30, 10**30))
    def test_every_int_the_formatters_write_reads_back(self, n):
        assert _read_number(str(n), int) == n
        assert _read_number(str(n)) == float(n)
        if n >= 0:
            assert _read_number(str(n), int, signed=False) == n

    @pytest.mark.parametrize("text", ["+1", "-0", "1.", ".5", "-.5", "1e-3", "1E+16", "007"])
    def test_other_forms_in_the_grammar(self, text):
        assert _read_number(text) == float(text)

    @pytest.mark.parametrize("text", ["", " 1", "1 ", "1_0", "0_2", "2_0", "1_0e-3", "١", "٠.٥",
                                      "１", "inf", "-inf", "nan", "Infinity", "0x10", "1e", "e3", ".",
                                      "+-1", "1.5.2", "--1", "1e1.5", "¹"])
    def test_text_outside_the_grammar_is_refused(self, text):
        with pytest.raises(ValueError, match="^not a number: "):
            _read_number(text)
        with pytest.raises(ValueError):
            _read_number(text, int)

    @pytest.mark.parametrize("text", ["1.0", "1e3", "+1", "-1"])
    def test_an_int_has_no_fraction_or_exponent_and_a_count_no_sign(self, text):
        with pytest.raises(ValueError):
            _read_number(text, int, signed=not text.startswith(("+", "-")))

    def test_an_int_longer_than_int_converts_is_refused(self):
        with pytest.raises(ValueError):
            _read_number("9" * 5000, int)

    @pytest.mark.parametrize("line, sample", [
        ("capture p1 0.001 ١ 0 -", "0 0 0"),
        ("capture p1 1_0e-4 1 0 -", "0 0 0"),
        ("capture p1 0.001 1_0 0 -", "0 0 0"),
        ("capture p1 0.001 1 1 ٠", "0 0 0"),
        ("capture p1 0.001 1 0 -", "٠.٥ 0 0"),
        ("capture p1 0.001 1 0 -", "0 1_0 0"),
        ("capture p1 0.001 1 0 -", "0 0 infinity"),
    ], ids=["arabic-count", "underscore-dt", "underscore-count", "arabic-trip", "arabic-sample",
            "underscore-sample", "word-sample"])
    def test_capture_text_outside_the_grammar_is_refused(self, line, sample):
        with pytest.raises(ProtocolError, match="^bad capture"):
            parse_captures([line, sample])

    @pytest.mark.parametrize("prefix, bad", [
        (b"", b"SELECT 0_2\n"), (b"", b"SELECT 2.0\n"),
        (b"SELECT 0\n", b"LIMITS 2_0 0.05\n"), (b"SELECT 0\n", b"LIMITS 2.0 0_05\n"),
        (b"SELECT 0\n", b"WAVEFORM 1_0 current 0.001 p1\n" + b"0.001\n" * 10 + b".\n"),
        (b"SELECT 0\n", b"WAVEFORM 1 current 1_0e-4 p1\n0.001\n.\n"),
        (b"SELECT 0\n", b"WAVEFORM 1 current 0.001 p1\n1_0e-3\n.\n"),
    ], ids=["select-underscore", "select-float", "limits-volts", "limits-amps", "waveform-count",
            "waveform-dt", "waveform-sample"])
    def test_bus_text_outside_the_grammar_gets_err_400(self, prefix, bad):
        from vcit.bus import ProberFarm, run_script

        def transcript(script):
            return run_script(ProberFarm(load_default_fixture().bench, 3), script + b"STATUS\n")

        before = transcript(prefix)
        after = transcript(prefix + bad)
        lines = after.splitlines(keepends=True)
        err = lines.pop(prefix.count(b"\n"))
        assert err.startswith(b"ERR 400 ")
        assert b"".join(lines) == before  # an ERR changes nothing

    def test_a_leading_plus_stays_valid_on_the_bus(self):
        from vcit.bus import ProberFarm, run_script

        farm = ProberFarm(load_default_fixture().bench, 3)
        assert run_script(farm, b"SELECT +1\nLIMITS +2.0 +0.05\nSTATUS\n").splitlines()[:4] == [
            b"OK", b"OK", b"OK", b"selected=1"]

    @pytest.mark.parametrize("status", [b"ERR 4_00 x\n", b"ERR 4e2 x\n"], ids=["underscore", "exponent"])
    def test_a_client_refuses_an_err_code_outside_the_grammar(self, status):
        import io

        from vcit.bus import BusCommand, BusConnection, client_call

        with pytest.raises(ProtocolError, match="^unparseable reply"):
            client_call(BusCommand("HELLO"), BusConnection(io.BytesIO(status), io.BytesIO()))

    @pytest.mark.parametrize("value", ["1_0", "١", "1.0", "1e3", "seven"])
    def test_a_scenario_seed_outside_the_grammar_is_refused(self, value):
        from vcit.errors import FixtureError
        from vcit.executive import parse_scenario

        with pytest.raises(FixtureError, match="^bad seed"):
            parse_scenario(f"seed: {value}\n")

    def test_a_scenario_seed_may_take_a_sign(self):
        from vcit.executive import parse_scenario

        assert parse_scenario("seed: +7\n").seed == 7
        assert parse_scenario("seed: -3\n").seed == -3

    @pytest.mark.parametrize("argv", [
        ["check", "single", "--pad", "p1", "--level", "1_0e-3", "--window", "0.3,1.0"],
        ["check", "single", "--pad", "p1", "--level", "١e-3", "--window", "0.3,1.0"],
        ["check", "single", "--pad", "p1", "--level", "0.001", "--window", "0.3,1_0"],
        ["check", "shape", "--region", "unit-box", "--vector", "0.5,٠.٥"],
        ["session", "--seed", "1_0"],
        ["serve", "--probers", "٢"],
    ], ids=["level-underscore", "level-arabic", "window", "vector", "seed", "probers"])
    def test_a_cli_number_outside_the_grammar_exits_1(self, argv, capsys):
        from vcit.cli import main

        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and ("error: bad number" in captured.err or "invalid" in captured.err)
