"""Prober instrument tests: waveform execution, protection clamping, charge
measurement, and the on-disk waveform/capture formats."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcit.circuit import Bench, ContactState, DiodeModel, OpenPad, PadCircuit, SeriesDiode, UutModel
from vcit.errors import ProtocolError, UnknownPad
from vcit.prober import (
    CaptureRecord,
    ProtectionLimits,
    StimulusWaveform,
    execute,
    format_capture,
    format_waveform,
    measure_charge,
    parse_capture_lines,
    parse_captures,
    parse_waveform,
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

    def test_unknown_pad(self):
        with pytest.raises(UnknownPad):
            execute(StimulusWaveform("current", (1e-3,), 1e-3, ("nope",)), LIMITS, diode_bench())


class TestMeasureCharge:
    def test_constant_current_block(self):
        capture = CaptureRecord(
            pad_id="p1",
            dt=1e-3,
            applied=(1e-3,) * 10,
            measured_voltage=(0.0,) * 10,
            measured_current=(1e-3,) * 10,
        )
        assert measure_charge(capture) == 1e-5  # 10 slots x 1 mA x 1 ms

    def test_additive_over_a_split(self):
        currents = (1e-3, 2e-3, -5e-4, 7e-4, 0.0, 3e-3)
        def rec(i_slice):
            return CaptureRecord(
                pad_id="p1",
                dt=1e-3,
                applied=(0.0,) * len(i_slice),
                measured_voltage=(0.0,) * len(i_slice),
                measured_current=i_slice,
            )
        whole = measure_charge(rec(currents))
        parts = measure_charge(rec(currents[:3])) + measure_charge(rec(currents[3:]))
        assert whole == pytest.approx(parts, abs=1e-18)

    def test_rc_charge_equals_capacitor_charge(self):
        # 1 kohm needle into a 1 uF shunt: integrated contact current must
        # equal C * (final pad voltage).
        uut = UutModel(pads=(("rc", PadCircuit(OpenPad(), shunt_capacitance=1e-6)),))
        bench = Bench(uut, {"rc": ContactState(1000.0)})
        waveform = StimulusWaveform("voltage", (1.0,) * 200, 1e-5, ("rc",))
        (capture,) = execute(waveform, LIMITS, bench)
        v_pad_final = 1.0 - capture.measured_current[-1] * 1000.0
        assert measure_charge(capture) == pytest.approx(1e-6 * v_pad_final, abs=1e-10)


class TestWaveformFormat:
    def test_round_trip(self):
        w = StimulusWaveform("current", (1e-3, 2e-3, -5e-4), 1e-3, ("p1", "p2"))
        assert parse_waveform(format_waveform(w)) == w

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n\ncurrent 0.001 p1\n0.001\n\n# mid\n0.002\n"
        w = parse_waveform(text)
        assert w.samples == (1e-3, 2e-3)
        assert w.target_pads == ("p1",)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "current 0.001\n0.001\n",
            "current notanumber p1\n0.001\n",
            "sideways 0.001 p1\n1\n",
            "current inf p1\n0.001\n",
        ],
    )
    def test_bad_files_raise(self, text):
        with pytest.raises(ProtocolError):
            parse_waveform(text)


class TestCaptureFormat:
    def test_round_trip(self):
        c = CaptureRecord(
            pad_id="p1",
            dt=1e-3,
            applied=(1e-3, 2e-3),
            measured_voltage=(0.6548400711592981, 0.672),
            measured_current=(1e-3, 2e-3),
            protection_tripped=True,
            trip_index=1,
        )
        assert parse_capture_lines(format_capture(c).splitlines()) == c

    def test_round_trip_untripped(self):
        c = CaptureRecord("x", 2e-3, (0.0,), (0.0,), (0.0,))
        assert parse_capture_lines(format_capture(c).splitlines()) == c

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
            ["capture p1 0.001 1 0 -", "0 x 0"],
            ["capture p1 0.001 1 0 -", "0 nan 0"],
            ["capture p1 0.001 1 0 -", "0 0 inf"],
            ["capture p1 0.001 1 0 -", "0 0"],
            [],
        ],
        ids=[
            "count-short", "flag-2-untripped", "flag-2-index", "tripped-no-index",
            "untripped-index", "index-not-int", "index-past-end", "no-samples", "dt-nan",
            "row-not-float", "row-nan", "row-inf", "row-short", "empty",
        ],
    )
    def test_bad_blocks_raise(self, lines):
        with pytest.raises(ProtocolError):
            parse_capture_lines(lines)

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
            captures.append(CaptureRecord(pad_id, dt, applied, volts, amps,
                                          trip_index is not None, trip_index))
        text = "".join(format_capture(c) for c in captures)
        parsed = parse_captures(text.splitlines())
        assert parsed == captures
        assert "".join(format_capture(c) for c in parsed) == text  # repr keeps every bit

    def test_invariant_tripped_iff_index(self):
        with pytest.raises(ValueError):
            CaptureRecord("p1", 1e-3, (0.0,), (0.0,), (0.0,), protection_tripped=True)
        with pytest.raises(ValueError):
            CaptureRecord("p1", 1e-3, (0.0,), (0.0,), (0.0,), trip_index=0)
