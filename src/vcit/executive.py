"""Test-session state machine: setup/cleanup integrity hooks, functional
failure diagnosis, dummy-UUT self test, and NTF classification.

A session is a strictly ordered walk of the phase graph

    Idle -> Setup -> FunctionalRun -> [VcitDiagnosis -> AwaitDummyMount
         -> DummySelfTest -> NeedleReplacement] -> Cleanup -> Terminal

with every action appended to an event log.  The log alone re-derives the
terminal verdict (replay_verdict), which is what makes NTF classifications
auditable after the fact.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Protocol, Sequence, Union

from .circuit import (
    GOOD_CONTACT,
    Bench,
    ContactState,
    Stimulus,
    TransientState,
    UutModel,
    solve_dc,
    solve_rail_sense,
)
from .checks import VcitVerdict, closed_window, single_level_test
from .errors import FixtureError, NonConvergence, OperatorAborted
from .prober import MAX_WAVEFORM_SAMPLES, ProtectionLimits, StimulusWaveform, _read_number, execute

# Phases
IDLE = "Idle"
SETUP = "Setup"
FUNCTIONAL_RUN = "FunctionalRun"
VCIT_DIAGNOSIS = "VcitDiagnosis"
AWAIT_DUMMY_MOUNT = "AwaitDummyMount"
DUMMY_SELF_TEST = "DummySelfTest"
NEEDLE_REPLACEMENT = "NeedleReplacement"
CLEANUP = "Cleanup"
TERMINAL = "Terminal"

# Verdict kinds
PASS = "pass"
UUT_FAIL_FUNCTIONAL = "uut-fail-functional"
UUT_FAIL_INTERFACE = "uut-fail-interface"
NTF_DETECTED = "ntf-detected"
FIXTURE_FAULT = "fixture-fault"

VERDICT_KINDS = (PASS, UUT_FAIL_FUNCTIONAL, UUT_FAIL_INTERFACE, NTF_DETECTED, FIXTURE_FAULT)

# Maintenance actions recorded when a failed dummy self test proves the
# probing itself has deteriorated.
NTF_ACTIONS = (
    "replace-worn-needles",
    "rerun-dummy-self-test-after-replacement",
    "retest-product-as-ntf",
)


@dataclass(frozen=True, slots=True)
class SessionEvent:
    index: int
    phase: str
    action: str
    outcome: str

    def to_json(self) -> str:
        return json.dumps(
            {"index": self.index, "phase": self.phase, "action": self.action, "outcome": self.outcome},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "SessionEvent":
        """The event of one to_json line; FixtureError unless it is an object
        of exactly to_json's keys, with an int index >= 0 and str values."""
        try:
            d = json.loads(line)
        except (ValueError, RecursionError):
            raise FixtureError(f"bad session event: {line[:80]!r}") from None
        if (not isinstance(d, dict) or d.keys() != {"index", "phase", "action", "outcome"}
                or type(d["index"]) is not int or d["index"] < 0
                or not all(isinstance(d[key], str) for key in ("phase", "action", "outcome"))):
            raise FixtureError(f"bad session event: {line[:80]!r}")
        return cls(**d)


@functools.lru_cache(maxsize=256)
def _event(index: int, phase: str, action: str, outcome: str) -> SessionEvent:
    """Events are immutable values drawn from a small vocabulary, so logs that
    are kept share one instance of each."""
    return SessionEvent(index=index, phase=phase, action=action, outcome=outcome)


class EventLog:
    """Append-only, strictly ordered session trace."""

    def __init__(self):
        self.events: list = []

    def append(self, phase: str, action: str, outcome: str) -> SessionEvent:
        ev = _event(len(self.events), phase, action, outcome)
        self.events.append(ev)
        return ev


@dataclass(frozen=True, slots=True)
class Verdict:
    kind: str
    evidence: tuple = ()

    def __post_init__(self):
        if self.kind not in VERDICT_KINDS:
            raise ValueError(f"unknown verdict kind: {self.kind!r}")


@dataclass(frozen=True, slots=True)
class NeedleLog:
    last_replacement_cycle: int = 0
    current_cycle: int = 0
    window_cycles: int = 500

    def __post_init__(self):
        if self.window_cycles < 0:
            raise ValueError("window_cycles must be >= 0")
        if self.last_replacement_cycle < 0:
            raise ValueError("last_replacement_cycle must be >= 0")
        if self.current_cycle < self.last_replacement_cycle:
            raise ValueError("current_cycle must be >= last_replacement_cycle")

    @property
    def replaced_within_window(self) -> bool:
        return (self.current_cycle - self.last_replacement_cycle) <= self.window_cycles


class OperatorPort(Protocol):
    def ask(self, prompt_tag: str) -> str:
        """Return "confirmed" or "aborted"."""


class ScriptedOperator:
    """Operator responses supplied by a scenario script (CI use)."""

    def __init__(self, responses: Optional[Mapping[str, str]] = None):
        self.responses = dict(responses or {})

    def ask(self, prompt_tag: str) -> str:
        return self.responses.get(prompt_tag, "confirmed")


# --- VCIT check battery -----------------------------------------------------

@dataclass(frozen=True, slots=True)
class PadCheck:
    """Single-level check: stimulate one pad, window the steady reading."""

    pad_id: str
    mode: str
    level: float
    window: tuple
    samples: int = 4
    dt: float = 1e-3
    source_ohms: float = 0.0
    # waveform(), built once from the fields; not compared, hashed or shown
    _waveform: StimulusWaveform = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        closed_window(self.window)
        # Checked before the waveform builds (level,) * samples.
        if not 1 <= self.samples <= MAX_WAVEFORM_SAMPLES:
            raise ValueError(f"samples must be 1 to {MAX_WAVEFORM_SAMPLES}, got {self.samples!r}")
        # A check must make a valid waveform.
        object.__setattr__(self, "_waveform", StimulusWaveform(
            mode=self.mode,
            samples=(self.level,) * self.samples,
            dt=self.dt,
            target_pads=(self.pad_id,),
            source_ohms=self.source_ohms,
        ))

    @property
    def pads(self) -> tuple:
        """The pads this check touches, as for a RailSenseCheck."""
        return (self.pad_id,)

    def waveform(self) -> StimulusWaveform:
        """The constant stimulus this check applies to its pad."""
        return self._waveform


@dataclass(frozen=True, slots=True)
class RailSenseCheck:
    """Inject current at a pad group, window the supply-sense voltage."""

    pads: tuple
    amperes: float
    band: tuple
    rail: str = "VCC"

    def __post_init__(self):
        if not self.pads:
            raise ValueError("a rail-sense check needs at least one pad")
        if len(set(self.pads)) != len(self.pads):
            raise ValueError("a rail-sense check names each pad once")
        if not math.isfinite(self.amperes):
            raise ValueError(f"amperes must be finite, got {self.amperes!r}")
        closed_window(self.band, "band")
        if self.rail not in ("VCC", "GND"):
            raise ValueError(f"rail must be 'VCC' or 'GND', got {self.rail!r}")


Check = Union[PadCheck, RailSenseCheck]


@dataclass(frozen=True, slots=True)
class VcitPlan:
    checks: tuple = ()
    limits: ProtectionLimits = ProtectionLimits()


class LocalProber:
    """In-process prober port; the bus module offers a remote twin."""

    def __init__(self, bench: Bench, limits: ProtectionLimits):
        self.bench = bench
        self.limits = limits

    def execute(self, waveform: StimulusWaveform) -> list:
        return execute(waveform, self.limits, self.bench)


def _run_check(check: Check, bench: Bench, port) -> VcitVerdict:
    if isinstance(check, RailSenseCheck):
        reading = solve_rail_sense(
            bench.uut, bench.contacts, {pid: check.amperes for pid in check.pads}, check.rail
        )
        lo, hi = check.band
        return VcitVerdict(
            passed=lo <= reading <= hi,
            detail={"check": "rail-sense", "pads": check.pads, "reading": reading, "band": (lo, hi)},
        )
    capture = port.execute(check.waveform())[0]
    verdict = single_level_test(capture, check.window)
    detail = dict(verdict.detail)
    detail["check"] = "single-level"
    detail["protection_tripped"] = capture.protection_tripped
    return VcitVerdict(passed=verdict.passed, detail=detail)


def run_vcit_battery(
    bench: Bench,
    plan: VcitPlan,
    pads: Optional[Sequence[str]] = None,
    port=None,
) -> VcitVerdict:
    """Run the plan's checks (optionally restricted to pads) and combine.

    An empty battery passes vacuously; the caller logs the warning.
    """
    if port is None:
        port = LocalProber(bench, plan.limits)
    checks = list(plan.checks)
    if pads is not None:
        wanted = set(pads)
        checks = [c for c in checks if wanted.intersection(c.pads)]
    results = [_run_check(c, bench, port) for c in checks]
    failed = [r.detail for r in results if not r.passed]
    return VcitVerdict(
        passed=all(r.passed for r in results),
        detail={
            "checks": tuple(r.detail for r in results),
            "failed": tuple(failed),
            "empty": not checks,
        },
    )


def run_setup_integrity(bench: Bench, plan: VcitPlan, log: Optional[EventLog] = None, port=None) -> VcitVerdict:
    """Pre-power VCIT battery; a fail blocks the functional run."""
    verdict = run_vcit_battery(bench, plan, port=port)
    if log is not None:
        if verdict.detail.get("empty"):
            log.append(SETUP, "setup-plan-empty", "warning")
        log.append(SETUP, "setup-integrity", "pass" if verdict.passed else "fail")
    return verdict


# --- dummy UUT --------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DummyUutSpec:
    """Reference board with known pad circuitry and expected signature bands.

    Every pad is driven with drive_volts through drive_ohms and must develop
    a supply-sense reading inside its band.  Consistency of the bands with
    the reference circuits is checked at construction, against fresh
    contacts, so a bad dummy description fails at load rather than in the
    middle of a maintenance scenario.  Each pad's fresh-contact solve also
    leaves the state that its later band tests start from.
    """

    uut: UutModel
    bands: Mapping[str, tuple]
    drive_volts: float = 3.3
    drive_ohms: float = 500.0
    fresh_contact_ohms: float = 0.1
    # pad id -> the TransientState its fresh-contact band test ends at, built
    # once from the fields; not compared, hashed or shown
    _starts: Mapping[str, TransientState] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.uut.pads:
            raise FixtureError("dummy UUT must have at least one pad")
        for pid, _ in self.uut.pads:
            if pid not in self.bands:
                raise FixtureError(f"dummy pad {pid!r} has no signature band")
            try:
                closed_window(self.bands[pid], f"dummy pad {pid!r} band")
            except ValueError as exc:
                raise FixtureError(str(exc)) from None
        object.__setattr__(self, "_starts", {})  # so the fresh-contact solves start from rest
        fresh = {pid: ContactState(self.fresh_contact_ohms) for pid, _ in self.uut.pads}
        starts = {}
        for pid, _ in self.uut.pads:
            try:
                pad, result = self._band_test(pid, fresh)
            except NonConvergence as exc:
                raise FixtureError(f"dummy pad {pid!r}: fresh-contact reading: {exc}") from None
            if not pad["passed"]:
                lo, hi = pad["window"]
                raise FixtureError(
                    f"dummy pad {pid!r}: fresh-contact reading {pad['reading']:.6g} V "
                    f"outside its band [{lo:g}, {hi:g}]"
                )
            starts[pid] = TransientState({p: r.pad_volts for p, r in result.pads.items()},
                                         result.vcc_volts, result.gnd_volts)
        object.__setattr__(self, "_starts", starts)

    def band_test(self, pad_id: str, contacts: Mapping[str, ContactState]) -> dict:
        """pad_id's supply-sense reading on contacts against its band: the
        pad_id, reading, window and passed of one pad of the self test.

        Behind a closed needle the solve starts from the state that pad_id's
        fresh-contact band test ends at, a function of the dummy alone; on
        fresh contacts it reads what the solve from rest reads, bit for bit.
        Behind an open needle it solves from rest and reads 0.0."""
        return self._band_test(pad_id, contacts)[0]

    def _band_test(self, pad_id: str, contacts: Mapping[str, ContactState]) -> tuple:
        """(band_test's dict, the SolveResult it reads)."""
        start = None if contacts.get(pad_id, GOOD_CONTACT).is_open else self._starts.get(pad_id)
        result = solve_dc(
            self.uut,
            contacts,
            {pad_id: Stimulus("voltage", self.drive_volts, self.drive_ohms)},
            start=start,
        )
        rail = result.vcc_volts if "VCC" in self.uut.pad(pad_id).rails() else result.gnd_volts
        reading = rail + 0.0  # a rail at -0.0 reads 0.0
        lo, hi = self.bands[pad_id]
        return {"pad_id": pad_id, "reading": reading, "window": (lo, hi),
                "passed": lo <= reading <= hi}, result


def dummy_self_test(dummy: DummyUutSpec, bench_contacts: Mapping[str, ContactState]) -> VcitVerdict:
    """Per-pad signature-band battery over the mounted dummy.

    Passes iff every pad's supply-sense reading is inside its band; worn or
    open needles pull readings below band.
    """
    pads = tuple(dummy.band_test(pid, bench_contacts) for pid, _ in dummy.uut.pads)
    return VcitVerdict(passed=all(pad["passed"] for pad in pads), detail={"pads": pads})


# --- diagnosis and session --------------------------------------------------

@dataclass(frozen=True, slots=True)
class SessionPlan:
    vcit_plan: VcitPlan
    needle_log: NeedleLog = NeedleLog()
    dummy: Optional[DummyUutSpec] = None
    functional_outcome: str = "pass"  # scripted stub; real content is out of scope
    failed_pads: tuple = ()
    forced_vcit: Optional[str] = None
    forced_dummy: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        if self.functional_outcome not in ("pass", "fail"):
            raise ValueError("functional_outcome must be 'pass' or 'fail'")


def diagnose_functional_failure(
    plan: SessionPlan, bench: Bench, operator: OperatorPort, log: EventLog, port=None
) -> Verdict:
    """Separate a true UUT failure from a probing (NTF) failure.

    VCIT pass -> the product really failed.  VCIT fail with recently
    replaced needles -> the UUT interface is bad.  Otherwise the operator
    mounts the dummy: a failed dummy self test proves worn probing (NTF,
    with the replacement actions recorded); a passing one clears the
    probing and leaves the UUT interface as the fault.

    The plan's forced_vcit / forced_dummy override the measured outcomes for
    scripted scenario enumeration; when absent they come from the bench.  A
    measured battery that runs no check passes, after a vcit-plan-empty
    warning.
    """
    if plan.forced_vcit is not None:
        vcit_pass = plan.forced_vcit == "pass"
    else:
        battery = run_vcit_battery(bench, plan.vcit_plan, pads=plan.failed_pads, port=port)
        if battery.detail["empty"]:
            log.append(VCIT_DIAGNOSIS, "vcit-plan-empty", "warning")
        vcit_pass = battery.passed
    log.append(VCIT_DIAGNOSIS, "vcit-check", "pass" if vcit_pass else "fail")
    if vcit_pass:
        return Verdict(UUT_FAIL_FUNCTIONAL, evidence=("vcit-pass-on-failed-pads",))

    fresh = plan.needle_log.replaced_within_window
    log.append(VCIT_DIAGNOSIS, "needle-window", "fresh" if fresh else "stale")
    if fresh:
        return Verdict(UUT_FAIL_INTERFACE, evidence=("vcit-fail", "needles-recently-replaced"))

    log.append(AWAIT_DUMMY_MOUNT, "prompt:mount-dummy", "issued")
    response = operator.ask("mount-dummy")
    log.append(AWAIT_DUMMY_MOUNT, "response:mount-dummy", response)
    if response != "confirmed":
        raise OperatorAborted("operator declined to mount the dummy UUT")

    if plan.forced_dummy is not None:
        dummy_pass = plan.forced_dummy == "pass"
    else:
        if plan.dummy is None:
            raise FixtureError("diagnosis reached the dummy self test but no dummy is configured")
        dummy_pass = dummy_self_test(plan.dummy, bench.contacts).passed
    log.append(DUMMY_SELF_TEST, "dummy-self-test", "pass" if dummy_pass else "fail")
    if dummy_pass:
        return Verdict(UUT_FAIL_INTERFACE, evidence=("vcit-fail", "dummy-self-test-pass"))

    for action in NTF_ACTIONS:
        log.append(NEEDLE_REPLACEMENT, "action", action)
    return Verdict(NTF_DETECTED, evidence=("vcit-fail", "dummy-self-test-fail") + NTF_ACTIONS)


def run_session(plan: SessionPlan, bench: Bench, operator: OperatorPort, port=None):
    """Drive one full test session; returns (Verdict, events).

    Deterministic for identical plan, bench, and scripted operator: the log
    has no wall-clock content, only ordered indices.  A failed pad the UUT
    does not have raises UnknownPad before the log starts.
    """
    for pid in plan.failed_pads:
        bench.uut.pad(pid)
    log = EventLog()
    log.append(IDLE, "session-start", f"seed={plan.seed}")

    setup = run_setup_integrity(bench, plan.vcit_plan, log=log, port=port)
    if not setup.passed:
        verdict = Verdict(FIXTURE_FAULT, evidence=("setup-integrity-fail",))
        _finish(log, verdict)
        return verdict, log.events

    log.append(FUNCTIONAL_RUN, "functional-stub", plan.functional_outcome)
    if plan.functional_outcome == "pass":
        verdict = Verdict(PASS)
        _finish(log, verdict)
        return verdict, log.events

    try:
        verdict = diagnose_functional_failure(plan, bench, operator, log, port=port)
    except OperatorAborted:
        verdict = Verdict(FIXTURE_FAULT, evidence=("operator-aborted",))
    _finish(log, verdict)
    return verdict, log.events


def _finish(log: EventLog, verdict: Verdict):
    log.append(CLEANUP, "cleanup", "done")
    log.append(TERMINAL, "verdict", verdict.kind)


def replay_verdict(events: Sequence[SessionEvent]) -> str:
    """Re-derive the terminal verdict kind from outcome events alone.

    This is the pure reducer over the append-only log; it never reads the
    recorded terminal verdict, so it independently audits the session.
    """
    vcit_failed = False
    for ev in events:
        if ev.action == "setup-integrity" and ev.outcome == "fail":
            return FIXTURE_FAULT
        if ev.action == "functional-stub" and ev.outcome == "pass":
            return PASS
        if ev.action == "vcit-check":
            if ev.outcome == "pass":
                return UUT_FAIL_FUNCTIONAL
            vcit_failed = True
        if ev.action == "needle-window" and ev.outcome == "fresh" and vcit_failed:
            return UUT_FAIL_INTERFACE
        if ev.action == "response:mount-dummy" and ev.outcome != "confirmed":
            return FIXTURE_FAULT
        if ev.action == "dummy-self-test":
            return UUT_FAIL_INTERFACE if ev.outcome == "pass" else NTF_DETECTED
    raise ValueError("event log has no decisive outcome")


# --- scenario scripts -------------------------------------------------------
#
# Structured text, one "key: value" per line, '#' comments.  Keys:
#
#   functional: pass|fail        functional-stub outcome
#   failed-pads: p1 p2           pads implicated in the functional failure
#   needles: fresh|stale         overrides the fixture needle log
#   force-vcit: pass|fail        overrides the measured VCIT outcome
#   force-dummy: pass|fail       overrides the measured dummy self test
#   operator.<tag>: confirmed|aborted
#   seed: <int>

@dataclass(frozen=True, slots=True)
class Scenario:
    functional: str = "pass"
    failed_pads: tuple = ()
    needles: Optional[str] = None
    force_vcit: Optional[str] = None
    force_dummy: Optional[str] = None
    operator_responses: Mapping[str, str] = field(default_factory=dict)
    seed: int = 0

    def needle_log(self, log: NeedleLog) -> NeedleLog:
        """log under the needles override: fresh needles were replaced in
        the current cycle, stale ones window_cycles + 1 cycles before it."""
        if self.needles == "fresh":
            return replace(log, last_replacement_cycle=log.current_cycle)
        if self.needles == "stale":
            return replace(log, current_cycle=log.last_replacement_cycle + log.window_cycles + 1)
        return log


def _one_of(*choices):
    """A converter for a scenario value that must be one of choices."""
    def one_of(key, value):
        if value not in choices:
            raise FixtureError(f"{key} must be {'|'.join(choices)}, got {value!r}")
        return value
    return one_of


def _seed(key, value):
    try:
        return _read_number(value, int)
    except ValueError:
        raise FixtureError(f"bad seed: {value!r}") from None


# Each scenario key and the converter of its value; the field is the key
# with "_" for "-".  Every "operator.<tag>" key adds one operator response.
_SCENARIO_TABLE = {
    "functional": _one_of("pass", "fail"),
    "failed-pads": lambda key, value: tuple(value.split()),
    "needles": _one_of("fresh", "stale"),
    "force-vcit": _one_of("pass", "fail"),
    "force-dummy": _one_of("pass", "fail"),
    "seed": _seed,
}
_OPERATOR_RESPONSE = _one_of("confirmed", "aborted")


def parse_scenario(text: str) -> Scenario:
    fields: dict = {}
    responses: dict = {}
    seen = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        if not colon:
            raise FixtureError(f"bad scenario line: {raw!r}")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise FixtureError(f"scenario key {key!r} given twice")
        seen.add(key)
        if key.startswith("operator."):
            responses[key[len("operator."):]] = _OPERATOR_RESPONSE(key, value)
        elif key in _SCENARIO_TABLE:
            fields[key.replace("-", "_")] = _SCENARIO_TABLE[key](key, value)
        else:
            raise FixtureError(f"unknown scenario key: {key!r}")
    return Scenario(operator_responses=responses, **fields)
