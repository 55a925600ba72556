"""Seeded inputs, op runners and output checks for the three workloads.

Each workload turns ``--seed`` into an endless, deterministic stream of ops
(the same seed always gives the same stream) and hands the program only
generated inputs: fixture JSON text, ``Bench`` objects, scenario text and
bus command bytes.  Op classes come in shuffled blocks with fixed class
counts, so every run of every seed sees the same class mix and the latency
quantiles stay put while the per-op parameters vary.
"""

from __future__ import annotations

import json
import math
import random

from vcit import bus, checks, circuit, executive, fixture, prober

# Why each workload exists, how it loads the program, and at what rate.
WORKLOADS = {
    "session-mix": {
        "why": "production-line path: one full NTF session per op on the shipped 3-pad DC fixture;"
               " cost is Newton iterations, per-call overhead and repeated constant samples",
        "loop": "closed",
        "clients": 1,
        "transport": "in-process",
    },
    "wide-board": {
        "why": "128-pad board with shunt capacitance: per-pad stamping and the dense linear solve"
               " dominate, and every sample is a transient step",
        "loop": "closed",
        "clients": 1,
        "transport": "in-process",
    },
    "bus-tcp": {
        "why": "vcit serve over TCP: transport, codec and the farm lock, with a STATUS control"
               " plane polled beside the WAVEFORM/ARM/TRIG/READ data plane",
        "loop": "closed data plane (connection A) + open-loop STATUS (connection B)",
        "clients": 2,
        "status_rate_hz": 5.0,
        "transport": "tcp 127.0.0.1, vcit serve --probers 2 in a subprocess",
    },
}

# Every timed run holds at least MIN_OPS ops, so that ten ops lie beyond the
# p90.  record.json holds the outcome code of each of these first ops for
# every seed in RECORD_SEEDS, and every run of an in-process workload
# compares its own codes with it.
MIN_OPS = 100
RECORD_SEEDS = range(64)

# One letter per verdict kind in the outcome codes.
VERDICT_CODES = {
    executive.PASS: "P",
    executive.UUT_FAIL_FUNCTIONAL: "F",
    executive.UUT_FAIL_INTERFACE: "I",
    executive.NTF_DETECTED: "N",
    executive.FIXTURE_FAULT: "X",
}


def shuffled_blocks(rng, block):
    """Endless stream of op classes: each block holds ``block`` in a new order."""
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


def wear_ohms(rng, open_p):
    """Needle contact resistance: log-uniform 1 mOhm .. 1 kOhm, or open."""
    if rng.random() < open_p:
        return 1e7  # above the default 1 MOhm open threshold
    return 10.0 ** rng.uniform(-3.0, 3.0)


# --- session-mix --------------------------------------------------------------

# One block of 20 sessions.  Diagnosis paths are a third of the block so that
# they, not the pass path, form the p90 tail.
SESSION_BLOCK = (
    ("pass",) * 6
    + ("measured-diagnosis",) * 6
    + ("dummy",) * 5
    + ("fresh", "abort", "force-pass")
)
SESSION_PADS = ("p1", "p2", "p3")

# Verdicts each scenario class can end in; a setup-integrity failure (worn or
# open needles) turns any class into a fixture fault.
SESSION_EXPECT = {
    "pass": {executive.PASS},
    "measured-diagnosis": {executive.UUT_FAIL_FUNCTIONAL},
    "dummy": {executive.NTF_DETECTED, executive.UUT_FAIL_INTERFACE},
    "fresh": {executive.UUT_FAIL_INTERFACE},
    "abort": {executive.FIXTURE_FAULT},
    "force-pass": {executive.UUT_FAIL_FUNCTIONAL},
}


def _scenario_text(rng, cls, index):
    lines = [f"seed: {index}"]
    if cls == "pass":
        lines.append("functional: pass")
        return "\n".join(lines) + "\n"
    failed = sorted(rng.sample(SESSION_PADS, rng.randint(1, 3)))
    lines += ["functional: fail", "failed-pads: " + " ".join(failed)]
    if cls == "measured-diagnosis":
        pass
    elif cls == "force-pass":
        lines.append("force-vcit: pass")
    else:
        lines.append("force-vcit: fail")
        if cls == "fresh":
            lines.append("needles: fresh")
        else:
            lines.append("needles: stale")
            response = "aborted" if cls == "abort" else "confirmed"
            lines.append(f"operator.mount-dummy: {response}")
    return "\n".join(lines) + "\n"


class SessionMix:
    name = "session-mix"

    def __init__(self, seed):
        self.fx = fixture.load_default_fixture()
        self.rng = random.Random(f"session-mix:{seed}")
        self.classes = shuffled_blocks(self.rng, SESSION_BLOCK)
        self.ops = []

    def op(self, i):
        while len(self.ops) <= i:
            cls = next(self.classes)
            contacts = {
                pid: circuit.ContactState(resistance=wear_ohms(self.rng, 0.02), wear_rate=0.05)
                for pid in SESSION_PADS
            }
            bench = circuit.Bench(uut=self.fx.bench.uut, contacts=contacts)
            self.ops.append((cls, _scenario_text(self.rng, cls, len(self.ops)), bench))
        return self.ops[i]

    def run(self, op):
        """One session from scenario text to its terminal verdict."""
        _, text, bench = op
        scenario = executive.parse_scenario(text)
        log = self.fx.needle_log
        if scenario.needles == "fresh":
            log = executive.NeedleLog(log.current_cycle, log.current_cycle, log.window_cycles)
        elif scenario.needles == "stale":
            log = executive.NeedleLog(
                log.last_replacement_cycle,
                log.last_replacement_cycle + log.window_cycles + 1,
                log.window_cycles,
            )
        plan = executive.SessionPlan(
            vcit_plan=self.fx.vcit_plan,
            needle_log=log,
            dummy=self.fx.dummy,
            functional_outcome=scenario.functional,
            failed_pads=scenario.failed_pads,
            forced_vcit=scenario.force_vcit,
            forced_dummy=scenario.force_dummy,
            seed=scenario.seed,
        )
        operator = executive.ScriptedOperator(scenario.operator_responses)
        return executive.run_session(plan, bench, operator)

    def check(self, op, result):
        """Problems with one session's outcome; an empty list means correct."""
        cls, _, bench = op
        verdict, events = result
        problems = []
        if executive.replay_verdict(events) != verdict.kind:
            problems.append("replay_verdict disagrees with the returned verdict")
        if events[-1].outcome != verdict.kind:
            problems.append("log does not end in the verdict")
        setup_failed = any(e.action == "setup-integrity" and e.outcome == "fail" for e in events)
        if setup_failed:
            if verdict.kind != executive.FIXTURE_FAULT:
                problems.append("failed setup did not end in a fixture fault")
        elif verdict.kind not in SESSION_EXPECT[cls]:
            problems.append(f"class {cls} ended in {verdict.kind}")
        contacts = bench.contacts.values()
        # An open needle collapses the rail-sense reading, so setup must fail;
        # needles under 1 ohm must pass the shipped setup battery.
        if any(c.is_open for c in contacts) and not setup_failed:
            problems.append("open needle passed setup integrity")
        if all(c.resistance < 1.0 for c in contacts) and setup_failed:
            problems.append("fresh needles failed setup integrity")
        return problems

    @staticmethod
    def summary(result):
        """Outcome code: the verdict letter."""
        return VERDICT_CODES[result[0].kind]


# --- wide-board ---------------------------------------------------------------

WIDE_PADS = 128
WIDE_CAPACITIVE = 32
WIDE_LIMITS = {"max_abs_voltage": 2.0, "max_abs_current": 0.05}
# One block of 20 checks as (class, pad kind, mode).  Cost follows the
# Newton iteration count, which follows the highest node voltage, so each
# class is held to a voltage range and the per-block counts are fixed: the
# rail-sense groups are the cheapest quarter, the single-level checks (pad
# node at 0.6-1.2 V) the middle half around p50, and the 2- and 3-level
# differential checks and the one check driven past the current limit the top
# quarter, with p90 in the middle of the three-level checks.
WIDE_BLOCK = (
    (("rail-sense", "esd-pair", "current"),) * 5
    + (("single", "esd-pair", "current"),) * 3
    + (("single", "series-diode", "current"), ("single", "resistive", "current"),
       ("single", "esd-pair", "voltage"), ("single", "series-diode", "voltage"),
       ("single", "led", "voltage"), ("single", "open", "voltage"),
       ("single", "open", "voltage"),
       ("diff-2", "esd-pair", "current"), ("diff-3", "series-diode", "current"),
       ("trip", "esd-pair", "current"))
    + (("diff-3", "esd-pair", "current"),) * 2
)
SINGLE_SAMPLES = 2
DIFF_SAMPLES = 2
BLOCK = 20  # ops per block in both in-process workloads

_ESD = {"saturation_current": 1e-14, "ideality": 1.0}
_SERIES = {"saturation_current": 1e-14, "ideality": 1.0}
_LED = {"saturation_current": 1e-18, "ideality": 2.0}


def wide_board_json(rng) -> str:
    """A seeded 128-pad fixture: ESD pairs, series diodes of both polarities,
    LEDs, resistors and open pads; a quarter of the pads carry capacitance."""
    kinds = (
        ["esd-pair"] * 64 + ["series-diode"] * 24 + ["led"] * 12 + ["resistive"] * 20 + ["open"] * 8
    )
    rng.shuffle(kinds)
    capacitive = set(rng.sample(range(WIDE_PADS), WIDE_CAPACITIVE))
    pads, contacts = [], {}
    for i, kind in enumerate(kinds):
        pid = f"u{i:03d}"
        pad = {"id": pid, "kind": kind}
        if kind == "esd-pair":
            pad["to_vcc"] = dict(_ESD)
            pad["to_gnd"] = dict(_ESD)
        elif kind == "series-diode":
            pad["diode"] = dict(_SERIES)
            pad["polarity"] = rng.choice((1, -1))
        elif kind == "led":
            pad["diode"] = dict(_LED)
            pad["color"] = rng.choice(("red", "green"))
        elif kind == "resistive":
            pad["ohms"] = round(10.0 ** rng.uniform(2.0, 3.3), 3)
        if i in capacitive:
            pad["capacitance"] = 10.0 ** rng.uniform(-9.0, -7.0)
        pads.append(pad)
        contacts[pid] = {"resistance": wear_ohms(rng, 0.03), "wear_rate": 0.05}
    return json.dumps(
        {
            "pads": pads,
            "contacts": contacts,
            "rails": {"vcc_path_ohms": 25.0, "gnd_path_ohms": 0.0},
            "protection": WIDE_LIMITS,
        }
    )


# Steady-reading windows per pad kind for a forward current through a clean
# needle; contact wear adds I*R and pushes worn needles out of them.
_CURRENT_WINDOWS = {
    "esd-pair": (0.55, 0.95),
    "series-diode": (0.55, 0.85),
    "resistive": (0.15, 1.3),
}


class WideBoard:
    name = "wide-board"

    def __init__(self, seed):
        self.rng = random.Random(f"wide-board:{seed}")
        self.doc = wide_board_json(self.rng)
        self.fx = fixture.load_fixture(self.doc)
        pads = json.loads(self.doc)["pads"]
        self.pads = {p["id"]: p for p in pads}
        self.by_kind = {}
        for p in pads:
            self.by_kind.setdefault(p["kind"], []).append(p["id"])
        self.classes = shuffled_blocks(self.rng, WIDE_BLOCK)
        self.ops = []

    def _single(self, kind, mode):
        """A single-level check that puts the pad node at 0.6-1.2 V, inside
        the solver's reach and below every protection limit."""
        rng = self.rng
        pid = rng.choice(self.by_kind[kind])
        pad = self.pads[pid]
        sign = pad.get("polarity", rng.choice((1, -1)))
        source = 0.0
        if mode == "voltage":
            # Through 100-1000 ohm a diode clamps the node near its forward
            # drop; an open pad or a dark LED follows the source level.
            level = sign * rng.uniform(0.6, 1.2)
            source = rng.choice((100.0, 1000.0))
            window = (0.2, 1.2) if level > 0 else (-1.2, -0.2)
        else:
            if kind == "resistive":
                level = rng.uniform(0.6, 1.2) / pad["ohms"]
            else:
                level = sign * rng.uniform(2e-4, 3e-3)
            lo, hi = _CURRENT_WINDOWS[kind]
            window = (lo, hi) if level > 0 else (-hi, -lo)
        return executive.PadCheck(
            pad_id=pid, mode=mode, level=level, window=window,
            samples=SINGLE_SAMPLES, dt=1e-4, source_ohms=source,
        )

    def _trip(self):
        """Past the 50 mA limit into one ESD pad: pre-clamped, then railed."""
        pid = self.rng.choice(self.by_kind["esd-pair"])
        return executive.PadCheck(
            pad_id=pid, mode="current", level=self.rng.uniform(0.055, 0.07),
            window=_CURRENT_WINDOWS["esd-pair"], samples=SINGLE_SAMPLES, dt=1e-4,
        )

    def _diff(self, kind, levels):
        rng = self.rng
        pid = rng.choice(self.by_kind[kind])
        sign = self.pads[pid].get("polarity", 1)
        base = rng.uniform(1e-4, 3e-4)
        amps = [sign * base * 2.0 ** k for k in range(levels)]
        # Nominal step for a doubled current through a clean needle: Vt*ln 2,
        # plus the rail rise for an ESD pair; worn needles push it out.
        nominal = 0.02585 * math.log(2.0)
        windows = []
        for a, b in zip(amps, amps[1:]):
            step = nominal + (25.0 * abs(b - a) if kind == "esd-pair" else 0.0)
            lo, hi = sorted((sign * step * 0.8, sign * step * 1.25))
            windows.append((lo, hi))
        waveforms = tuple(
            prober.StimulusWaveform(
                mode="current", samples=(a,) * DIFF_SAMPLES, dt=1e-4, target_pads=(pid,)
            )
            for a in amps
        )
        return waveforms, tuple(windows)

    def op(self, i):
        while len(self.ops) <= i:
            cls, kind, mode = next(self.classes)
            rng = self.rng
            if cls == "rail-sense":
                group = tuple(sorted(rng.sample(self.by_kind["esd-pair"], rng.randint(8, 16))))
                total = rng.uniform(0.008, 0.012)  # lifts VCC by 0.2-0.3 V
                band = (0.8 * 25.0 * total, 1.2 * 25.0 * total)
                spec = executive.RailSenseCheck(pads=group, amperes=total / len(group), band=band)
            elif cls == "single":
                spec = self._single(kind, mode)
            elif cls == "trip":
                spec = self._trip()
            else:
                spec = self._diff(kind, int(cls[-1]))
            self.ops.append((cls, spec))
        return self.ops[i]

    def run(self, op):
        """One check up to its VcitVerdict; returns (verdict, trip flags)."""
        cls, spec = op
        if cls.startswith("diff"):
            waveforms, windows = spec
            captures = [prober.execute(w, self.fx.limits, self.fx.bench)[0] for w in waveforms]
            verdict = checks.differential_test(captures, windows)
            return verdict, tuple(c.protection_tripped for c in captures)
        plan = executive.VcitPlan(checks=(spec,), limits=self.fx.limits)
        verdict = executive.run_vcit_battery(self.fx.bench, plan)
        trips = tuple(d.get("protection_tripped", False) for d in verdict.detail["checks"])
        return verdict, trips

    def check(self, op, result):
        cls, spec = op
        verdict, _ = result
        limits = self.fx.limits
        problems = []
        if cls == "rail-sense":
            detail = verdict.detail["checks"][0]
            reading = detail["reading"]
            opened = any(self.fx.bench.contact(p).is_open for p in spec.pads)
            # The interlock chain reads zero when any injected needle is open;
            # otherwise the injected current must raise the VCC rail.
            if opened != (reading == 0.0) or reading < 0.0:
                problems.append(f"rail-sense reading {reading!r} vs open={opened}")
        elif cls in ("single", "trip"):
            detail = verdict.detail["checks"][0]
            lo, hi = spec.window
            if (lo <= detail["reading"] <= hi) != verdict.passed:
                problems.append("single-level verdict disagrees with its window")
            if abs(detail["reading"]) > limits.max_abs_voltage + spec.source_ohms * limits.max_abs_current:
                problems.append("reading beyond the protection clamp")
        else:
            if len(verdict.detail["deltas"]) != len(spec[1]):
                problems.append("differential test returned the wrong number of deltas")
        return problems

    @staticmethod
    def summary(result):
        """Outcome code: P or F for the verdict, then t or . per capture for
        its protection-trip flag."""
        verdict, trips = result
        return ("P" if verdict.passed else "F") + "".join("t" if t else "." for t in trips)


# --- bus-tcp --------------------------------------------------------------------

BUS_PADS = ("p1", "p2", "p3")


def bus_waveform(rng):
    """8-64 samples that change every step, in current or voltage mode, on
    1-3 pads; about a quarter of the waveforms leave the protection limits."""
    n = rng.randint(8, 64)
    mode = rng.choice(("current", "current", "voltage"))
    pads = tuple(sorted(rng.sample(BUS_PADS, rng.randint(1, 3))))
    dt = rng.choice((1e-4, 5e-4, 1e-3))
    span = 3e-3 if mode == "current" else 0.6
    samples = [rng.uniform(-span, span) for _ in range(n)]
    if rng.random() < 0.25:
        # Past 50 mA in current mode; past a forward-biased ESD clamp in
        # voltage mode.  A positive current clamped at 50 mA on two or more
        # pads lifts VCC beyond what 200 Newton iterations reach, so the
        # solver fails there; such spikes go to single-pad waveforms only.
        spike = 0.06 if mode == "current" else 0.8
        signs = (1.0, -1.0) if mode == "voltage" or len(pads) == 1 else (-1.0,)
        for k in rng.sample(range(n), rng.randint(1, 3)):
            samples[k] = rng.choice(signs) * spike * rng.uniform(1.0, 1.8)
    return prober.StimulusWaveform(mode=mode, samples=tuple(samples), dt=dt, target_pads=pads)


def cycle_commands(waveform):
    """The WAVEFORM/ARM/TRIG/READ cycle for one waveform, as bus commands."""
    samples = tuple(repr(s) for s in waveform.samples)
    args = (str(len(samples)), waveform.mode, repr(waveform.dt), *waveform.target_pads)
    return (
        bus.BusCommand("WAVEFORM", args, payload=samples),
        bus.BusCommand("ARM"),
        bus.BusCommand("TRIG"),
        bus.BusCommand("READ"),
    )


def expected_block(waveform, limits, bench):
    """The READ block the server must send: format_capture of in-process execute."""
    lines = []
    for capture in prober.execute(waveform, limits, bench):
        lines.extend(prober.format_capture(capture).splitlines())
    return tuple(lines)


def reply_bytes(command, reply):
    """Bytes on the wire for one command and its OK reply."""
    status = "OK" + (f" {reply.payload}" if reply.payload else "")
    n = len(command.encode()) + len(status) + 1
    if command.verb in ("READ", "STATUS"):
        n += sum(len(line) + 1 for line in reply.block) + 2
    return n
