"""Acceptance gate: the eight headline behaviors, each printed as one
pass/fail line.  Every expected value here comes from an oracle that does not
share code with the implementation (closed forms, brute-force enumeration,
direct summation, transcript comparison)."""

import itertools
import math
import socket
import threading
import time

import numpy as np
import pytest

from vcit.bus import BusServer, ProberFarm, run_script
from vcit.checks import (
    CorrelationRef,
    HalfSpaceRegion,
    MeasurementVector,
    correlation_score,
    correlation_test,
    differential_test,
    shape_test,
)
from vcit.circuit import (
    Bench,
    ContactState,
    DiodeModel,
    OpenPad,
    PadCircuit,
    SeriesDiode,
    Stimulus,
    UutModel,
    solve_dc,
    solve_rail_sense,
    wear_step,
)
from vcit.executive import (
    FIXTURE_FAULT,
    NTF_ACTIONS,
    NTF_DETECTED,
    UUT_FAIL_FUNCTIONAL,
    UUT_FAIL_INTERFACE,
    NeedleLog,
    RailSenseCheck,
    ScriptedOperator,
    SessionPlan,
    dummy_self_test,
    replay_verdict,
    run_session,
)
from vcit.fixture import load_default_fixture
from vcit.prober import ProtectionLimits, StimulusWaveform, execute


def criterion(n):
    """Print the per-criterion verdict line, FAIL included, then re-raise."""

    def wrap(fn):
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n}: FAIL")
                raise
            print(f"ACCEPTANCE {n}: PASS")

        run.__name__ = fn.__name__
        return run

    return wrap


@criterion(1)
def test_acceptance_1_rail_sense_open_detection():
    """Group injection reads in-band on a healthy fixture and collapses to
    under 10 mV when any single needle is open; well under a second."""
    start = time.perf_counter()
    fixture = load_default_fixture()
    uut = fixture.bench.uut
    (rs,) = [c for c in fixture.vcit_plan.checks if isinstance(c, RailSenseCheck)]
    assert rs == RailSenseCheck(pads=("p1", "p2", "p3"), amperes=0.005, band=(0.1, 0.5), rail="VCC")
    inject = {pid: rs.amperes for pid in rs.pads}

    good = solve_rail_sense(uut, fixture.bench.contacts, inject, rs.rail)
    lo, hi = rs.band
    assert lo <= good <= hi

    for pid in rs.pads:
        contacts = dict(fixture.bench.contacts)
        contacts[pid] = ContactState(2e6)
        broken = solve_rail_sense(uut, contacts, inject, rs.rail)
        assert abs(broken) < 10e-3

    assert time.perf_counter() - start < 1.0


@criterion(2)
def test_acceptance_2_solver_against_closed_form():
    """1000 randomized single-diode fixtures: needle voltage matches the
    inverted diode law within 1e-6 V and an independently recomputed KCL
    residual stays under 1e-9 A; all within 10 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    gmin = 1e-12
    for _ in range(1000):
        sat = float(rng.uniform(1e-15, 1e-12))
        ideality = float(rng.uniform(1.0, 2.0))
        contact = float(rng.uniform(0.0, 1.0))
        amps = float(rng.uniform(1e-4, 1e-2))
        uut = UutModel(pads=(("p", PadCircuit(SeriesDiode(DiodeModel(sat, ideality)))),))
        contacts = {"p": ContactState(contact)}
        result = solve_dc(uut, contacts, {"p": Stimulus("current", amps)})

        nvt = ideality * 0.02585
        vp = result["p"].pad_volts
        # closed form including the conditioning leak at the pad node
        i_diode = amps - gmin * vp - gmin * vp  # junction leak + node leak
        expected_pad = nvt * math.log1p(i_diode / sat)
        assert abs(vp - expected_pad) < 1e-6
        assert abs(result["p"].volts - (expected_pad + amps * contact)) < 1e-6

        # independent KCL: diode current + leaks must equal the injection
        residual = sat * math.expm1(vp / nvt) + gmin * vp + gmin * vp - amps
        assert abs(residual) < 1e-9
    assert time.perf_counter() - start < 10.0


@criterion(3)
def test_acceptance_3_differential_diode_signature():
    """Doubling the injected current moves a diode pad by exactly nVt*ln 2,
    and the differential verdict ignores any common-mode offset."""
    uut = UutModel(pads=(("p", PadCircuit(SeriesDiode(DiodeModel(1e-14)))),))
    bench = Bench(uut, {"p": ContactState(0.0)})
    limits = ProtectionLimits(2.0, 0.05)
    captures = [
        execute(StimulusWaveform("current", (level,) * 4, 1e-3, ("p",)), limits, bench)[0]
        for level in (1e-3, 2e-3)
    ]
    expected = 0.02585 * math.log(2.0)
    verdict = differential_test(captures, ((expected - 1e-6, expected + 1e-6),))
    assert verdict.passed
    assert abs(verdict.detail["deltas"][0] - expected) < 1e-6

    from vcit.prober import CaptureRecord

    shifted = [
        CaptureRecord(
            pad_id=c.pad_id,
            dt=c.dt,
            applied=c.applied,
            measured_voltage=tuple(v + 0.05 for v in c.measured_voltage),
            measured_current=c.measured_current,
        )
        for c in captures
    ]
    verdict2 = differential_test(shifted, ((expected - 1e-6, expected + 1e-6),))
    assert verdict2.passed
    assert abs(verdict2.detail["deltas"][0] - verdict.detail["deltas"][0]) < 1e-12


@criterion(4)
def test_acceptance_4_region_membership_vs_brute_force():
    """10,000 random polytope/point pairs: region membership agrees with a
    brute-force check of every hyperplane, with zero disagreements, in
    under 5 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    disagreements = 0
    for _ in range(10_000):
        dim = int(rng.integers(1, 6))
        k = int(rng.integers(1, 8))
        normals = rng.normal(size=(dim, k))
        normals /= np.linalg.norm(normals, axis=0)
        distances = rng.uniform(-1.0, 2.0, size=k)
        x = rng.uniform(-3.0, 3.0, size=dim)

        region = HalfSpaceRegion(normals, distances)
        vec = MeasurementVector(tuple(float(v) for v in x))
        got = shape_test(vec, region).passed
        want = all(float(np.dot(normals[:, j], x)) <= distances[j] for j in range(k))
        disagreements += got != want
    assert disagreements == 0
    assert time.perf_counter() - start < 5.0


@criterion(5)
def test_acceptance_5_correlation_conventions():
    """Correlation stays in [-1, 1] over 10,000 random pairs, is exactly 1
    for positive-affine copies, vanishes for orthogonal signals, and an open
    contact in the powered test scores 0 and fails."""
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        n = int(rng.integers(2, 24))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        if float(np.var(b)) == 0.0:
            continue
        ref = CorrelationRef(tuple(float(v) for v in b), 0.0)
        score = correlation_score(a, ref)
        assert -1.0 <= score <= 1.0

    base = tuple(float(v) for v in rng.normal(size=64))
    ref = CorrelationRef(base, 0.9)
    assert correlation_score(tuple(3.7 * v + 11.0 for v in base), ref) == 1.0

    n = 1000
    sin = [math.sin(2 * math.pi * k / n) for k in range(n)]
    cos = [math.cos(2 * math.pi * k / n) for k in range(n)]
    assert abs(correlation_score(sin, CorrelationRef(tuple(cos), 0.0))) <= 1e-9

    uut = UutModel(
        pads=(("in", PadCircuit(OpenPad())),),
        powered=True,
        consumption_map=((0.0, 0.0), (2.0, 2e-3)),
    )
    waveform = StimulusWaveform("voltage", (0.0, 0.5, 1.0, 1.5, 2.0), 1e-3, ("in",))
    ref = CorrelationRef(tuple(1e-3 * v for v in waveform.samples), 0.9)
    good = correlation_test(Bench(uut, {"in": ContactState(0.1)}), waveform, ref)
    assert good.passed and good.detail["score"] == 1.0
    open_needle = correlation_test(Bench(uut, {"in": ContactState(2e6)}), waveform, ref)
    assert not open_needle.passed
    assert open_needle.detail["score"] == 0.0


@criterion(6)
def test_acceptance_6_diagnosis_decision_table():
    """All eight diagnosis branches land on the documented verdicts, the NTF
    branch records the three maintenance actions, and replaying the event
    log re-derives every verdict."""
    fixture = load_default_fixture()
    fresh = NeedleLog(100, 100, 500)
    stale = NeedleLog(0, 900, 500)

    def run(vcit, needles, dummy, operator=None):
        plan = SessionPlan(
            vcit_plan=fixture.vcit_plan,
            needle_log=fresh if needles == "fresh" else stale,
            dummy=fixture.dummy,
            functional_outcome="fail",
            failed_pads=("p1",),
            forced_vcit=vcit,
            forced_dummy=dummy,
        )
        return run_session(plan, fixture.bench, operator or ScriptedOperator())

    for vcit, needles, dummy in itertools.product(
        ("pass", "fail"), ("fresh", "stale"), ("pass", "fail")
    ):
        verdict, events = run(vcit, needles, dummy)
        if vcit == "pass":
            want = UUT_FAIL_FUNCTIONAL
        elif needles == "fresh":
            want = UUT_FAIL_INTERFACE
        elif dummy == "pass":
            want = UUT_FAIL_INTERFACE
        else:
            want = NTF_DETECTED
        assert verdict.kind == want, (vcit, needles, dummy)
        assert replay_verdict(events) == want

        prompts = [e for e in events if e.action == "prompt:mount-dummy"]
        assert bool(prompts) == (vcit == "fail" and needles == "stale")

    verdict, events = run("fail", "stale", "fail")
    actions = tuple(e.outcome for e in events if e.action == "action")
    assert actions == NTF_ACTIONS

    verdict, events = run(
        "fail", "stale", "fail", ScriptedOperator({"mount-dummy": "aborted"})
    )
    assert verdict.kind == FIXTURE_FAULT
    assert replay_verdict(events) == FIXTURE_FAULT


@criterion(7)
def test_acceptance_7_protocol_conformance():
    """A conformance corpus produces byte-identical transcripts over the
    in-process loopback and a real TCP socket; rejected commands never
    change prober state; an uploaded waveform echoes back byte-exact."""
    corpus = [
        b"HELLO\nQUIT\n",
        b"LIST\nSELECT 2\nSTATUS\nQUIT\n",
        (
            b"HELLO\nSELECT 0\nLIMITS 2.0 0.05\n"
            b"WAVEFORM 4 current 0.001 p1 p2\n0.001\n0.002\n0.003\n0.004\n.\n"
            b"ARM\nTRIG\nREAD\nSTATUS\nQUIT\n"
        ),
        b"SELECT 99\nFROB\nARM\nTRIG\nREAD\nSTATUS\nQUIT\n",
        b"SELECT 0\nWAVEFORM 3 current 0.001 p1\n0.001\n0.002\n.\nHELLO\nQUIT\n",
        b"\nSELECT 0\nLIMITS 0 0\nSTATUS\nQUIT\n",
    ]

    def over_tcp(script):
        farm = ProberFarm(load_default_fixture().bench, 3)
        server = BusServer(("127.0.0.1", 0), farm)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.server_address) as sock:
                sock.sendall(script)
                out = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        return b"".join(out)
                    out.append(data)
        finally:
            server.shutdown()
            server.server_close()

    for script in corpus:
        local = run_script(ProberFarm(load_default_fixture().bench, 3), script)
        assert local == over_tcp(script), script

    # waveform byte-exact echo through STATUS
    samples = [b"0.0015", b"-0.002", b"1e-05"]
    script = (
        b"SELECT 1\nWAVEFORM 3 current 0.0005 p3\n"
        + b"\n".join(samples)
        + b"\n.\nSTATUS\nQUIT\n"
    )
    lines = run_script(ProberFarm(load_default_fixture().bench, 3), script).splitlines()
    assert b"waveform=3 current 0.0005 p3" in lines
    idx = lines.index(b"waveform=3 current 0.0005 p3")
    assert lines[idx + 1 : idx + 4] == samples

    # ERR atomicity: a rejected re-upload leaves the staged state untouched
    farm = ProberFarm(load_default_fixture().bench, 3)
    stage = b"SELECT 0\nLIMITS 2.0 0.05\nWAVEFORM 1 current 0.001 p1\n0.001\n.\nARM\n"
    clean = run_script(farm, stage + b"STATUS\nQUIT\n")
    farm = ProberFarm(load_default_fixture().bench, 3)
    noisy = run_script(
        farm,
        stage
        + b"WAVEFORM 9 current 0.001 p1\n0.001\n.\nSELECT -3\nTRIG now\n"
        + b"STATUS\nQUIT\n",
    )
    # the final STATUS block (between its OK and the ".") must match
    def status_block(transcript):
        lines = transcript.decode().splitlines()
        end = len(lines) - 1 - lines[::-1].index(".")
        start = end
        while lines[start - 1] != "OK" and not lines[start - 1].startswith("OK "):
            start -= 1
        return lines[start:end]

    assert status_block(clean) == status_block(noisy)


@criterion(8)
def test_acceptance_8_wear_monotonicity():
    """As needles wear, the dummy-UUT drive reading decreases monotonically
    and the self test flips from pass to fail exactly once, landing on fail
    once any contact is open."""
    fixture = load_default_fixture()
    dummy = fixture.dummy
    base = {pid: ContactState(0.1, wear_rate=0.05, open_threshold=1e6) for pid, _ in dummy.uut.pads}

    cycle_points = [0, 100, 1000, 5000, 20_000, 100_000, 10**6, 3 * 10**7]
    readings = []
    verdicts = []
    for cycles in cycle_points:
        contacts = {pid: wear_step(c, cycles) for pid, c in base.items()}
        readings.append(dummy.band_test("p1", contacts)["reading"])
        verdicts.append(dummy_self_test(dummy, contacts).passed)

    for a, b in zip(readings, readings[1:]):
        assert b < a  # strictly decreasing with wear

    flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
    assert verdicts[0] is True
    assert verdicts[-1] is False
    assert flips == 1  # pass -> fail exactly once, never back

    open_contacts = {pid: ContactState(2e6) for pid in base}
    assert not dummy_self_test(dummy, open_contacts).passed
