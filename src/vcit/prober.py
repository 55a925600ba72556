"""The prober instrument aggregate: stimulus source, synchronized meter,
and protection, executing waveforms against a simulated bench.

Every capture keeps applied level, measured voltage, and measured current
aligned on one shared time base: index i of every series refers to the same
instant.  Protection clamps the source at the offending sample (exactly at
the limit) and keeps capturing in clamped mode.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from .circuit import Bench, Stimulus, solve_dc, step_transient
from .errors import NonConvergence, ProtocolError, SimulationFailure

# The most samples a waveform from outside the program may hold: a bus
# WAVEFORM block or a fixture's single-level check.
MAX_WAVEFORM_SAMPLES = 4096

# The one grammar of a number in text, at every boundary that reads one: an
# optional sign and ASCII digits; a float may add a fraction ("1.5", "1.",
# or ".5" alone) and an exponent with an optional sign.  It has no "_", no
# other digits and no whitespace, and it reads every finite float's repr and
# every str of an int.  "inf" and "nan" are not in it; an exponent past the
# float range reads as inf, which each caller refuses as it did before.
_GRAMMAR = {
    (int, True): re.compile(r"[+-]?[0-9]+"),
    (int, False): re.compile(r"[0-9]+"),
    (float, True): re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"),
}


def _read_number(text: str, kind: type = float, signed: bool = True):
    """text as a kind, int or float, when it is in the number grammar, with
    no sign when not signed; ValueError when it is not, or when int()
    refuses its length.  Each caller raises its own VcitError."""
    if _GRAMMAR[kind, signed].fullmatch(text) is None:
        raise ValueError(f"not a number: {text!r}")
    return kind(text)


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
    max_abs_voltage: float = 2.0
    max_abs_current: float = 0.05

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
    trip_index: Optional[int] = None

    def __post_init__(self):
        n = len(self.applied)
        if n == 0:
            raise ValueError("capture must have at least one sample")
        if len(self.measured_voltage) != n or len(self.measured_current) != n:
            raise ValueError("capture series must share one length")
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        if not all(map(math.isfinite, (*self.applied, *self.measured_voltage, *self.measured_current))):
            raise ValueError("capture samples must be finite")
        if self.trip_index is not None:
            if type(self.trip_index) is not int:
                raise TypeError("trip_index must be an int or None")
            if not 0 <= self.trip_index < n:
                raise ValueError("trip_index must index a sample")

    @property
    def protection_tripped(self) -> bool:
        return self.trip_index is not None

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
    steps every sample.  The first solve raises UnknownPad for the first
    target pad that the bench's model does not have.
    """
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
        captures.append(
            CaptureRecord(
                pad_id=pid,
                dt=waveform.dt,
                applied=tuple(waveform.samples),
                measured_voltage=tuple(r[pid].volts for r in results),
                measured_current=tuple(r[pid].amperes for r in results),
                trip_index=trips.get(pid),
            )
        )
    return captures


# --- capture serialization ------------------------------------------------
#
# Text block of the bus READ reply, one block per captured pad:
#
#   capture <pad_id> <dt> <n> <tripped 0|1> <trip_index|->
#   <applied> <voltage> <current>        (n lines)

def format_capture(capture: CaptureRecord) -> str:
    if capture.pad_id.split() != [capture.pad_id]:
        raise ValueError(f"a capture's pad id must be one word to format, got {capture.pad_id!r}")
    trip = "-" if capture.trip_index is None else str(capture.trip_index)
    head = f"capture {capture.pad_id} {capture.dt!r} {len(capture)} {int(capture.protection_tripped)} {trip}"
    rows = [f"{a!r} {v!r} {i!r}"
            for a, v, i in zip(capture.applied, capture.measured_voltage, capture.measured_current)]
    return "\n".join([head] + rows) + "\n"


def parse_captures(lines) -> list:
    """Parse a concatenation of format_capture blocks, such as a READ reply
    block, into its captures; anything malformed raises ProtocolError."""
    lines = list(lines)
    captures = []
    start = 0
    while start < len(lines):
        line = lines[start]
        head = line.split()
        if len(head) != 6 or head[0] != "capture":
            raise ProtocolError(f"bad capture header: {line!r}")
        _, pad_id, dt_s, n_s, trip_flag, trip_s = head
        try:
            dt = _read_number(dt_s)
            n = _read_number(n_s, int)
            trip_index = None if trip_s == "-" else _read_number(trip_s, int)
        except ValueError:
            raise ProtocolError(f"bad capture header: {line!r}") from None
        if (
            not 0.0 < dt < math.inf
            or n < 1
            or trip_flag not in ("0", "1")
            or (trip_flag == "1") != (trip_index is not None)
            or (trip_index is not None and not 0 <= trip_index < n)
        ):
            raise ProtocolError(f"bad capture header: {line!r}")
        rows = lines[start + 1:start + 1 + n]
        if len(rows) != n:
            raise ProtocolError(f"capture declares {n} samples, got {len(rows)}")
        values = []
        for ln in rows:
            try:
                row = tuple(_read_number(p) for p in ln.split())
            except ValueError:
                raise ProtocolError(f"bad capture row: {ln!r}") from None
            if len(row) != 3 or not all(math.isfinite(x) for x in row):
                raise ProtocolError(f"bad capture row: {ln!r}")
            values.append(row)
        applied, volts, amps = zip(*values)
        captures.append(CaptureRecord(pad_id, dt, applied, volts, amps, trip_index))
        start += 1 + n
    return captures
