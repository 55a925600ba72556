"""The prober instrument aggregate: stimulus source, synchronized meter,
and protection, executing waveforms against a simulated bench.

Every capture keeps applied level, measured voltage, and measured current
aligned on one shared time base: index i of every series refers to the same
instant.  Protection clamps the source at the offending sample (exactly at
the limit) and keeps capturing in clamped mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .circuit import Bench, Stimulus, solve_dc, step_transient
from .errors import NonConvergence, ProtocolError, SimulationFailure


@dataclass(frozen=True, slots=True)
class StimulusWaveform:
    mode: str  # "current" | "voltage"
    samples: tuple
    dt: float
    target_pads: tuple
    source_ohms: float = 0.0

    def __post_init__(self):
        if self.mode not in ("current", "voltage"):
            raise ValueError("mode must be 'current' or 'voltage'")
        if len(self.samples) == 0:
            raise ValueError("waveform must have at least one sample")
        if not all(math.isfinite(s) for s in self.samples):
            raise ValueError("waveform levels must be finite")
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        if len(self.target_pads) == 0:
            raise ValueError("waveform must target at least one pad")
        if len(set(self.target_pads)) != len(self.target_pads):
            raise ValueError("target pads must be unique")
        if not 0.0 <= self.source_ohms < math.inf:
            raise ValueError("source_ohms must be finite and >= 0")


@dataclass(frozen=True, slots=True)
class ProtectionLimits:
    max_abs_voltage: float
    max_abs_current: float

    def __post_init__(self):
        for limit in (self.max_abs_voltage, self.max_abs_current):
            if not 0.0 < limit < math.inf:
                raise ValueError("protection limits must be finite and > 0")


@dataclass(frozen=True, slots=True)
class CaptureRecord:
    pad_id: str
    dt: float
    applied: tuple
    measured_voltage: tuple
    measured_current: tuple
    protection_tripped: bool = False
    trip_index: Optional[int] = None

    def __post_init__(self):
        n = len(self.applied)
        if n == 0:
            raise ValueError("capture must have at least one sample")
        if len(self.measured_voltage) != n or len(self.measured_current) != n:
            raise ValueError("capture series must share one length")
        if self.protection_tripped != (self.trip_index is not None):
            raise ValueError("protection_tripped iff trip_index present")

    def __len__(self):
        return len(self.applied)


def _solve_sample(bench, stimuli, state, dt, transient):
    try:
        if transient:
            return step_transient(bench.uut, bench.contacts, stimuli, state, dt)
        return state, solve_dc(bench.uut, bench.contacts, stimuli)
    except NonConvergence as exc:
        raise SimulationFailure(str(exc)) from exc


def _same_level(a: float, b: float) -> bool:
    """Equal levels, telling -0.0 from 0.0: a zero current is recorded as
    applied, sign included."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def execute(waveform: StimulusWaveform, limits: ProtectionLimits, bench: Bench) -> list:
    """Run the waveform against the bench; one CaptureRecord per target pad.

    Current-mode samples that would exceed the voltage limit (including an
    open needle, which an ideal current source would rail against) are
    re-run with the source clamped to +/-max_abs_voltage; voltage-mode
    samples that would exceed the current limit are clamped to
    +/-max_abs_current.  The clamp is exact: no recorded magnitude exceeds
    its limit.

    On a bench without shunt capacitance, a sample whose level equals the
    previous sample's is not solved again: a DC solve is a pure function of
    its stimuli, and a trip is recorded at the first sample that clamped, so
    the sample reads exactly as the previous one did.  A capacitive bench
    steps every sample.
    """
    for pid in waveform.target_pads:
        bench.uut.pad(pid)  # raises UnknownPad
    transient = any(pc.shunt_capacitance > 0.0 for _, pc in bench.uut.pads)

    # A level beyond its own mode's limit is pre-clamped to it.
    limit = limits.max_abs_current if waveform.mode == "current" else limits.max_abs_voltage
    trips = {}  # pad id -> first sample that clamped
    results = []  # the final, clamped solve of each sample
    state = None
    for k, level in enumerate(waveform.samples):
        if not transient and k > 0 and _same_level(level, waveform.samples[k - 1]):
            results.append(results[-1])
            continue
        if abs(level) > limit:
            level = math.copysign(limit, level)
            for pid in waveform.target_pads:
                trips.setdefault(pid, k)
        stimuli = {
            pid: Stimulus(waveform.mode, level, waveform.source_ohms)
            for pid in waveform.target_pads
        }

        # Clamp-and-resolve until no reading violates its limits.  Each pass
        # converts at least one pad's source to its clamped form, so the
        # loop is bounded by the pad count.
        for _ in range(len(waveform.target_pads) + 1):
            next_state, result = _solve_sample(bench, stimuli, state, waveform.dt, transient)
            offenders = []
            for pid in waveform.target_pads:
                reading = result[pid]
                stim = stimuli[pid]
                contact_open = bench.contact(pid).is_open
                if stim.mode == "current" and stim.level != 0.0:
                    railed = contact_open or abs(reading.volts) > limits.max_abs_voltage
                    if railed:
                        sign = math.copysign(1.0, stim.level)
                        offenders.append(
                            (pid, Stimulus("voltage", sign * limits.max_abs_voltage))
                        )
                elif stim.mode == "voltage":
                    if abs(reading.amperes) > limits.max_abs_current:
                        sign = math.copysign(1.0, reading.amperes)
                        offenders.append(
                            (pid, Stimulus("current", sign * limits.max_abs_current))
                        )
            if not offenders:
                break
            for pid, clamped in offenders:
                stimuli[pid] = clamped
                trips.setdefault(pid, k)

        state = next_state
        results.append(result)

    # A clamped source has zero source resistance, so the needle reading
    # equals the clamp level exactly.
    captures = []
    for pid in waveform.target_pads:
        trip = trips.get(pid)
        captures.append(
            CaptureRecord(
                pad_id=pid,
                dt=waveform.dt,
                applied=tuple(waveform.samples),
                measured_voltage=tuple(r[pid].volts for r in results),
                measured_current=tuple(r[pid].amperes for r in results),
                protection_tripped=trip is not None,
                trip_index=trip,
            )
        )
    return captures


def measure_charge(capture: CaptureRecord) -> float:
    """Charge moved over the capture window, in coulombs.

    Each measured current sample is held over its dt slot (the meter reports
    one value per slot), so the integral is the held-sample sum times dt.
    """
    return capture.dt * math.fsum(capture.measured_current)


# --- waveform file format -------------------------------------------------
#
# Plain text, one sample per line, after a single header line:
#
#   <mode> <dt> <pad> [<pad> ...]
#
# Blank lines and lines starting with '#' are ignored.

def format_waveform(waveform: StimulusWaveform) -> str:
    header = " ".join([waveform.mode, repr(waveform.dt), *waveform.target_pads])
    lines = [header] + [repr(s) for s in waveform.samples]
    return "\n".join(lines) + "\n"


def parse_waveform(text: str) -> StimulusWaveform:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ProtocolError("empty waveform file")
    head = lines[0].split()
    if len(head) < 3:
        raise ProtocolError("waveform header must be: mode dt pads...")
    return waveform_from_fields(head[0], head[1], head[2:], lines[1:])


def waveform_from_fields(mode: str, dt_text: str, pads, sample_texts) -> StimulusWaveform:
    """Build a waveform from its text fields, as the file format and the bus
    WAVEFORM command carry them; any bad field raises ProtocolError."""
    try:
        dt = float(dt_text)
    except ValueError:
        raise ProtocolError(f"bad waveform dt: {dt_text!r}") from None
    try:
        samples = tuple(float(s) for s in sample_texts)
    except ValueError as exc:
        raise ProtocolError(f"bad waveform sample: {exc}") from None
    try:
        return StimulusWaveform(mode=mode, samples=samples, dt=dt, target_pads=tuple(pads))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


# --- capture serialization ------------------------------------------------
#
# Text block used by the bus READ reply and for on-disk records:
#
#   capture <pad_id> <dt> <n> <tripped 0|1> <trip_index|->
#   <applied> <voltage> <current>        (n lines)

def format_capture(capture: CaptureRecord) -> str:
    trip = "-" if capture.trip_index is None else str(capture.trip_index)
    head = " ".join(
        [
            "capture",
            capture.pad_id,
            repr(capture.dt),
            str(len(capture)),
            "1" if capture.protection_tripped else "0",
            trip,
        ]
    )
    rows = [
        f"{a!r} {v!r} {i!r}"
        for a, v, i in zip(capture.applied, capture.measured_voltage, capture.measured_current)
    ]
    return "\n".join([head] + rows) + "\n"


def _parse_capture_header(line: str):
    """(pad_id, dt, n, trip_index) of a capture header line."""
    head = line.split()
    if len(head) != 6 or head[0] != "capture":
        raise ProtocolError(f"bad capture header: {line!r}")
    _, pad_id, dt_s, n_s, trip_flag, trip_s = head
    try:
        dt = float(dt_s)
        n = int(n_s)
        trip_index = None if trip_s == "-" else int(trip_s)
    except ValueError:
        raise ProtocolError(f"bad capture header: {line!r}") from None
    if (
        not math.isfinite(dt)
        or n < 1
        or trip_flag not in ("0", "1")
        or (trip_flag == "1") != (trip_index is not None)
        or (trip_index is not None and not 0 <= trip_index < n)
    ):
        raise ProtocolError(f"bad capture header: {line!r}")
    return pad_id, dt, n, trip_index


def parse_capture_lines(lines: list) -> CaptureRecord:
    """Parse one format_capture block: the header line and its n rows."""
    if not lines:
        raise ProtocolError("empty capture block")
    pad_id, dt, n, trip_index = _parse_capture_header(lines[0])
    if len(lines) != n + 1:
        raise ProtocolError(f"capture declares {n} samples, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = tuple(float(p) for p in ln.split())
        except ValueError:
            raise ProtocolError(f"bad capture row: {ln!r}") from None
        if len(row) != 3 or not all(math.isfinite(x) for x in row):
            raise ProtocolError(f"bad capture row: {ln!r}")
        rows.append(row)
    applied, volts, amps = zip(*rows)
    return CaptureRecord(
        pad_id=pad_id,
        dt=dt,
        applied=applied,
        measured_voltage=volts,
        measured_current=amps,
        protection_tripped=trip_index is not None,
        trip_index=trip_index,
    )


def parse_captures(lines) -> list:
    """Split a concatenation of format_capture blocks, such as a READ reply
    block, into its captures."""
    lines = list(lines)
    captures = []
    start = 0
    while start < len(lines):
        end = start + 1 + _parse_capture_header(lines[start])[2]
        captures.append(parse_capture_lines(lines[start:end]))
        start = end
    return captures
