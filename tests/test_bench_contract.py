"""What the benchmark under perfbench/ relies on in vcit: the bindings its
tracer patches, small runs of its in-process workloads under its own
checks and against its recorded outcome codes, its loopback bus cycle, and
the needle-log override its session workload restates.  perfbench/ is read
here, never changed."""

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402
from vcit import bus, executive  # noqa: E402
from vcit.fixture import load_default_fixture  # noqa: E402


def test_every_spanned_binding_is_callable():
    for owner, attr, name in spans.SPANNED:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"


@pytest.mark.parametrize("workload", [workloads.SessionMix, workloads.WideBoard])
def test_workload_ops_pass_their_checks(workload):
    wl = workload(1)
    for i in range(3):
        op = wl.op(i)
        assert wl.check(op, wl.run(op)) == [], (wl.name, i)


@pytest.mark.parametrize("workload", [workloads.SessionMix, workloads.WideBoard])
def test_first_ops_reproduce_the_record(workload):
    """Every benchmark run compares the outcome codes (verdict, and trip
    flags on wide-board) of its first MIN_OPS ops with record.json; a
    changed verdict or trip flag fails here first."""
    record = json.loads((PERFBENCH / "record.json").read_text(encoding="utf-8"))
    wl = workload(0)
    codes = []
    for i in range(workloads.MIN_OPS):
        op = wl.op(i)
        result = wl.run(op)
        assert wl.check(op, result) == [], (wl.name, i)
        codes.append(wl.summary(result))
    assert codes == record[wl.name]["0"].split()


def test_law_counter_sees_the_diode_law():
    """LawCounter patches DiodeModel.current and .conductance on the class,
    so the solver must call the law through them, not inline it."""
    wl = workloads.WideBoard(1)
    op = wl.op(0)
    with spans.LawCounter() as counter:
        wl.run(op)
    assert counter.metrics()["circuit.diode_law.calls"] > 0


def test_loopback_cycle_reads_the_expected_block():
    fx = load_default_fixture()
    waveform = workloads.bus_waveform(random.Random(0))
    lim = fx.limits
    commands = (
        bus.BusCommand("SELECT", ("0",)),
        bus.BusCommand("LIMITS", (repr(lim.max_abs_voltage), repr(lim.max_abs_current))),
        *workloads.cycle_commands(waveform),
    )
    transcript = bus.run_script(bus.ProberFarm(fx.bench, 1), b"".join(c.encode() for c in commands))
    n = len(waveform.target_pads)
    head = f"OK\nOK\nOK\nOK\nOK {n}\nOK {n}\n"
    lines = transcript.decode("ascii")
    assert lines.startswith(head) and lines.endswith("\n.\n")
    block = tuple(lines[len(head):-len(".\n")].splitlines())
    assert block == workloads.expected_block(waveform, lim, fx.bench)


@pytest.mark.parametrize("log", [None, executive.NeedleLog(300, 420, 100)], ids=["default", "worn"])
@pytest.mark.parametrize("needles", ["fresh", "stale", None])
def test_scenario_needle_log_is_the_session_workloads(monkeypatch, needles, log):
    """Scenario.needle_log and SessionMix.run's own override agree, on the
    default fixture's log and on one between replacements."""
    wl = workloads.SessionMix(0)
    if log is not None:
        wl.fx = replace(wl.fx, needle_log=log)
    plans = []
    monkeypatch.setattr(executive, "run_session", lambda plan, *rest: plans.append(plan))
    text = "" if needles is None else f"needles: {needles}\n"
    wl.run((None, text, wl.fx.bench))
    assert plans[0].needle_log == executive.parse_scenario(text).needle_log(wl.fx.needle_log)
