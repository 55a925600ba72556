"""Session state-machine tests: setup integrity, dummy-UUT self test, the
functional-failure diagnosis branches, and log replay."""

import itertools
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcit.circuit import Bench, ContactState, DiodeModel, EsdPair, PadCircuit, Stimulus, UutModel, solve_dc
from vcit.errors import FixtureError, OperatorAborted, UnknownPad
from vcit.executive import (
    AWAIT_DUMMY_MOUNT,
    FIXTURE_FAULT,
    NTF_ACTIONS,
    NTF_DETECTED,
    PASS,
    UUT_FAIL_FUNCTIONAL,
    UUT_FAIL_INTERFACE,
    DummyUutSpec,
    EventLog,
    NeedleLog,
    PadCheck,
    RailSenseCheck,
    Scenario,
    ScriptedOperator,
    SessionEvent,
    SessionPlan,
    VcitPlan,
    diagnose_functional_failure,
    dummy_self_test,
    parse_scenario,
    replay_verdict,
    run_session,
    run_setup_integrity,
    run_vcit_battery,
)
from vcit.fixture import load_default_fixture
from vcit.prober import MAX_WAVEFORM_SAMPLES, StimulusWaveform


@pytest.fixture
def fixture():
    return load_default_fixture()


def bench_with_open(fixture, pad_id):
    contacts = dict(fixture.bench.contacts)
    contacts[pad_id] = ContactState(2e6)
    return Bench(fixture.bench.uut, contacts)


FRESH = NeedleLog(last_replacement_cycle=100, current_cycle=100, window_cycles=500)
STALE = NeedleLog(last_replacement_cycle=0, current_cycle=900, window_cycles=500)
EVENTS = st.builds(SessionEvent, st.integers(0, 2**63), st.text(), st.text(), st.text())


class TestNeedleLog:
    def test_window_boundary_is_fresh(self):
        log = NeedleLog(last_replacement_cycle=0, current_cycle=500, window_cycles=500)
        assert log.replaced_within_window

    def test_past_window_is_stale(self):
        log = NeedleLog(last_replacement_cycle=0, current_cycle=501, window_cycles=500)
        assert not log.replaced_within_window

    @pytest.mark.parametrize("last, current, window", [(0, 10, -1), (10, 9, 500), (-900, -800, 500)])
    def test_invalid_rejected(self, last, current, window):
        with pytest.raises(ValueError):
            NeedleLog(last_replacement_cycle=last, current_cycle=current, window_cycles=window)

    @pytest.mark.parametrize(
        "needles, expected",
        [("fresh", NeedleLog(420, 420, 100)), ("stale", NeedleLog(300, 401, 100)),
         (None, NeedleLog(300, 420, 100))],
    )
    def test_scenario_override(self, needles, expected):
        log = Scenario(needles=needles).needle_log(NeedleLog(300, 420, 100))
        assert log == expected
        assert log.replaced_within_window == (needles == "fresh")


class TestSetupIntegrity:
    def test_healthy_bench_passes(self, fixture):
        log = EventLog()
        verdict = run_setup_integrity(fixture.bench, fixture.vcit_plan, log=log)
        assert verdict.passed
        assert log.events[-1].outcome == "pass"

    def test_open_contact_fails_and_identifies(self, fixture):
        bench = bench_with_open(fixture, "p2")
        verdict = run_setup_integrity(bench, fixture.vcit_plan)
        assert not verdict.passed
        failed = verdict.detail["failed"]
        assert any(d.get("pad_id") == "p2" for d in failed if "pad_id" in d)

    def test_empty_plan_warns_and_passes(self, fixture):
        log = EventLog()
        verdict = run_setup_integrity(fixture.bench, VcitPlan(checks=()), log=log)
        assert verdict.passed
        assert verdict.detail["empty"]
        assert any(e.action == "setup-plan-empty" for e in log.events)

    def test_battery_pad_restriction(self, fixture):
        bench = bench_with_open(fixture, "p2")
        # only p1's checks run: its single-level check passes, but the
        # rail-sense check includes p2, so the restricted battery still fails
        verdict = run_vcit_battery(bench, fixture.vcit_plan, pads=["p1"])
        assert not verdict.passed
        kinds = [d["check"] for d in verdict.detail["checks"]]
        assert "rail-sense" in kinds

    def test_rail_sense_check_reading_in_band(self, fixture):
        verdict = run_vcit_battery(
            fixture.bench,
            VcitPlan(checks=(RailSenseCheck(("p1", "p2", "p3"), 5e-3, (0.1, 0.5)),)),
        )
        assert verdict.passed

    @pytest.mark.parametrize("pads, kept", [
        ([], []), (["p2"], [0, 2]), (["p3", "p1"], [0, 1, 3]), (["p1", "p2", "p3"], [0, 1, 2, 3]),
    ])
    def test_battery_keeps_the_checks_on_the_failed_pads(self, fixture, pads, kept):
        # Every check names its pads, a single-level check its one pad.
        checks = fixture.vcit_plan.checks
        assert [c.pads for c in checks] == [("p1", "p2", "p3"), ("p1",), ("p2",), ("p3",)]
        verdict = run_vcit_battery(fixture.bench, fixture.vcit_plan, pads=pads)
        ran = [d.get("pads") or (d["pad_id"],) for d in verdict.detail["checks"]]
        assert ran == [checks[i].pads for i in kept]
        assert verdict.detail["empty"] == (not kept)


class TestPadCheck:
    @pytest.mark.parametrize("samples", [0, -1, MAX_WAVEFORM_SAMPLES + 1, 1_165_191_242])
    def test_sample_count_out_of_range(self, samples):
        # Rejected before waveform() would build (level,) * samples.
        with pytest.raises(ValueError, match=f"samples must be 1 to {MAX_WAVEFORM_SAMPLES}"):
            PadCheck("p1", "current", 1e-3, (0.3, 1.0), samples=samples)

    @pytest.mark.parametrize(
        "field, value, why",
        [
            ("mode", "bogus", "mode must be"),
            ("dt", 0.0, "dt must be finite and > 0"),
            ("source_ohms", -1.0, "source_ohms must be finite and >= 0"),
            ("level", math.nan, "levels must be finite"),
        ],
    )
    def test_a_check_without_a_valid_waveform_is_refused(self, field, value, why):
        # Refused when built, by any caller, not only by load_fixture.
        fields = dict(pad_id="p1", mode="current", level=1e-3, window=(0.3, 1.0))
        with pytest.raises(ValueError, match=why):
            PadCheck(**{**fields, field: value})

    @pytest.mark.parametrize("samples", [1, MAX_WAVEFORM_SAMPLES])
    def test_sample_count_at_the_bounds(self, samples):
        check = PadCheck("p1", "current", 1e-3, (0.3, 1.0), samples=samples)
        assert check.waveform().samples == (1e-3,) * samples
        assert check.pads == ("p1",)

    def test_the_waveform_is_built_once(self, fixture, monkeypatch):
        # Once when the check is made, and never again however often it runs.
        built = []
        post_init = StimulusWaveform.__post_init__
        monkeypatch.setattr(StimulusWaveform, "__post_init__", lambda w: built.append(w) or post_init(w))
        check = PadCheck("p1", "current", 1e-3, (0.3, 1.0))
        assert check.waveform() is check.waveform()
        verdicts = [run_vcit_battery(fixture.bench, VcitPlan(checks=(check,))) for _ in range(3)]
        assert len(built) == 1 and built[0] is check.waveform()
        assert verdicts[0] == verdicts[1] == verdicts[2]

    def test_a_replaced_check_has_a_waveform_of_its_own(self):
        check = PadCheck("p1", "current", 1e-3, (0.3, 1.0), samples=3)
        other = replace(check, level=2e-3)
        assert other.waveform() is not check.waveform()
        assert other.waveform() == replace(check.waveform(), samples=(2e-3,) * 3)
        assert check.waveform().samples == (1e-3,) * 3

    def test_the_kept_waveform_is_not_compared_hashed_or_shown(self):
        check = PadCheck("p1", "current", 1e-3, (0.3, 1.0))
        again = PadCheck("p1", "current", 1e-3, (0.3, 1.0))
        assert check.waveform() is not again.waveform()
        assert check == again and hash(check) == hash(again)
        assert repr(check) == ("PadCheck(pad_id='p1', mode='current', level=0.001, window=(0.3, 1.0), "
                               "samples=4, dt=0.001, source_ohms=0.0)")
        assert check != replace(check, dt=2e-3)


class TestDummyUut:
    def test_default_dummy_passes_fresh(self, fixture):
        assert dummy_self_test(fixture.dummy, fixture.bench.contacts).passed

    def test_worn_contacts_fail(self, fixture):
        worn = {pid: ContactState(500.0) for pid in fixture.bench.contacts}
        verdict = dummy_self_test(fixture.dummy, worn)
        assert not verdict.passed

    def test_zero_pads_rejected_at_load(self):
        with pytest.raises(FixtureError):
            DummyUutSpec(uut=UutModel(pads=()), bands={})

    def test_missing_band_rejected(self, fixture):
        with pytest.raises(FixtureError):
            DummyUutSpec(uut=fixture.dummy.uut, bands={"p1": (0.1, 0.5)})

    def test_inconsistent_band_rejected(self, fixture):
        bands = {pid: (0.9, 1.0) for pid, _ in fixture.dummy.uut.pads}
        with pytest.raises(FixtureError, match=r"^dummy pad 'p1': fresh-contact reading 0\.12397 V "
                                               r"outside its band \[0\.9, 1\]$"):
            DummyUutSpec(uut=fixture.dummy.uut, bands=bands)

    def test_self_test_reports_each_pad_against_its_band(self, fixture):
        contacts = dict(fixture.bench.contacts, p2=ContactState(5000.0))
        verdict = dummy_self_test(fixture.dummy, contacts)
        pads = verdict.detail["pads"]
        assert [p["pad_id"] for p in pads] == ["p1", "p2", "p3"]
        assert [p["passed"] for p in pads] == [True, False, True]
        assert not verdict.passed
        for p in pads:
            lo, hi = p["window"]
            assert (lo, hi) == fixture.dummy.bands[p["pad_id"]]
            assert p["passed"] == (lo <= p["reading"] <= hi)
            drive = Stimulus("voltage", fixture.dummy.drive_volts, fixture.dummy.drive_ohms)
            result = solve_dc(fixture.dummy.uut, contacts, {p["pad_id"]: drive})
            assert p["reading"] == result.vcc_volts  # each shipped dummy pad senses VCC


def forced_plan(fixture, *, vcit, needles, dummy, functional="fail"):
    return SessionPlan(
        vcit_plan=fixture.vcit_plan,
        needle_log=FRESH if needles == "fresh" else STALE,
        dummy=fixture.dummy,
        functional_outcome=functional,
        failed_pads=("p1",),
        forced_vcit=vcit,
        forced_dummy=dummy,
    )


# The full diagnosis decision table.  The dummy column is irrelevant when the
# VCIT battery passes or the needles are fresh; enumerating it anyway pins
# down that irrelevance.
BRANCHES = [
    (vcit, needles, dummy)
    for vcit, needles, dummy in itertools.product(
        ("pass", "fail"), ("fresh", "stale"), ("pass", "fail")
    )
]


def expected_kind(vcit, needles, dummy):
    if vcit == "pass":
        return UUT_FAIL_FUNCTIONAL
    if needles == "fresh":
        return UUT_FAIL_INTERFACE
    return UUT_FAIL_INTERFACE if dummy == "pass" else NTF_DETECTED


class TestDiagnosisBranches:
    @pytest.mark.parametrize("vcit,needles,dummy", BRANCHES)
    def test_verdict_table(self, fixture, vcit, needles, dummy):
        plan = forced_plan(fixture, vcit=vcit, needles=needles, dummy=dummy)
        verdict, events = run_session(plan, fixture.bench, ScriptedOperator())
        assert verdict.kind == expected_kind(vcit, needles, dummy)
        assert replay_verdict(events) == verdict.kind

    @pytest.mark.parametrize("vcit,needles,dummy", BRANCHES)
    def test_prompt_only_when_dummy_needed(self, fixture, vcit, needles, dummy):
        plan = forced_plan(fixture, vcit=vcit, needles=needles, dummy=dummy)
        _, events = run_session(plan, fixture.bench, ScriptedOperator())
        prompts = [e for e in events if e.action == "prompt:mount-dummy"]
        needed = vcit == "fail" and needles == "stale"
        assert bool(prompts) == needed
        if needed:
            # every prompt is followed by its logged response
            responses = [e for e in events if e.action == "response:mount-dummy"]
            assert len(responses) == len(prompts) == 1
            assert responses[0].index == prompts[0].index + 1

    def test_ntf_actions_logged_in_order(self, fixture):
        plan = forced_plan(fixture, vcit="fail", needles="stale", dummy="fail")
        verdict, events = run_session(plan, fixture.bench, ScriptedOperator())
        assert verdict.kind == NTF_DETECTED
        actions = tuple(e.outcome for e in events if e.action == "action")
        assert actions == NTF_ACTIONS
        for action in NTF_ACTIONS:
            assert action in verdict.evidence

    def test_operator_abort_is_fixture_fault(self, fixture):
        plan = forced_plan(fixture, vcit="fail", needles="stale", dummy="fail")
        operator = ScriptedOperator({"mount-dummy": "aborted"})
        verdict, events = run_session(plan, fixture.bench, operator)
        assert verdict.kind == FIXTURE_FAULT
        assert "operator-aborted" in verdict.evidence
        assert replay_verdict(events) == FIXTURE_FAULT

    @pytest.mark.parametrize("failed_pads, checked", [((), False), (("p1",), False), (("p2",), True)],
                             ids=["no-failed-pads", "unchecked-pad", "checked-pad"])
    def test_a_battery_that_runs_no_check_warns(self, fixture, failed_pads, checked):
        # The one check left watches p2, so a failure on p1 alone runs none.
        plan = SessionPlan(vcit_plan=replace(fixture.vcit_plan, checks=fixture.vcit_plan.checks[2:3]),
                           needle_log=STALE, dummy=fixture.dummy, functional_outcome="fail",
                           failed_pads=failed_pads)
        verdict, events = run_session(plan, fixture.bench, ScriptedOperator())
        assert verdict.kind == UUT_FAIL_FUNCTIONAL and replay_verdict(events) == UUT_FAIL_FUNCTIONAL
        actions = [(e.phase, e.action, e.outcome) for e in events if e.phase == "VcitDiagnosis"]
        warned = [("VcitDiagnosis", "vcit-plan-empty", "warning")]
        assert actions == ([] if checked else warned) + [("VcitDiagnosis", "vcit-check", "pass")]

    def test_a_forced_outcome_runs_no_battery_and_does_not_warn(self, fixture):
        plan = replace(forced_plan(fixture, vcit="pass", needles="stale", dummy=None),
                       vcit_plan=VcitPlan(checks=()))
        _, events = run_session(plan, fixture.bench, ScriptedOperator())
        assert [e.action for e in events].count("vcit-plan-empty") == 0

    def test_measured_branches_without_forcing(self, fixture):
        # worn bench: setup would fail, so diagnose directly
        log = EventLog()
        bench = bench_with_open(fixture, "p1")
        plan = SessionPlan(vcit_plan=fixture.vcit_plan, needle_log=STALE, dummy=fixture.dummy,
                           functional_outcome="fail", failed_pads=("p1",))
        verdict = diagnose_functional_failure(plan, bench, ScriptedOperator(), log)
        # open needle: VCIT fails, dummy (measured on the same worn
        # contacts) fails too -> NTF
        assert verdict.kind == NTF_DETECTED


class TestSession:
    def test_functional_pass(self, fixture):
        plan = SessionPlan(vcit_plan=fixture.vcit_plan, dummy=fixture.dummy)
        verdict, events = run_session(plan, fixture.bench, ScriptedOperator())
        assert verdict.kind == PASS
        assert replay_verdict(events) == PASS

    def test_setup_failure_blocks_functional_run(self, fixture):
        bench = bench_with_open(fixture, "p3")
        plan = SessionPlan(vcit_plan=fixture.vcit_plan, dummy=fixture.dummy)
        verdict, events = run_session(plan, bench, ScriptedOperator())
        assert verdict.kind == FIXTURE_FAULT
        assert not any(e.action == "functional-stub" for e in events)
        assert replay_verdict(events) == FIXTURE_FAULT

    def test_log_is_strictly_ordered_and_terminal(self, fixture):
        plan = forced_plan(fixture, vcit="fail", needles="stale", dummy="fail")
        _, events = run_session(plan, fixture.bench, ScriptedOperator())
        assert [e.index for e in events] == list(range(len(events)))
        assert events[-1].phase == "Terminal"
        assert events[-1].action == "verdict"

    def test_determinism(self, fixture):
        plan = forced_plan(fixture, vcit="fail", needles="stale", dummy="fail")
        a = run_session(plan, fixture.bench, ScriptedOperator())
        b = run_session(plan, fixture.bench, ScriptedOperator())
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_kept_logs_share_equal_events(self, fixture):
        plan = forced_plan(fixture, vcit="fail", needles="stale", dummy="fail")
        _, a = run_session(plan, fixture.bench, ScriptedOperator())
        _, b = run_session(replace(plan, seed=plan.seed + 1), fixture.bench, ScriptedOperator())
        assert a[0] != b[0]  # the seed label differs
        assert all(x is y for x, y in zip(a[1:], b[1:]))

    def test_event_json_round_trip(self, fixture):
        plan = forced_plan(fixture, vcit="fail", needles="stale", dummy="fail")
        _, events = run_session(plan, fixture.bench, ScriptedOperator())
        lines = [e.to_json() for e in events]
        restored = [SessionEvent.from_json(ln) for ln in lines]
        assert restored == events
        assert replay_verdict(restored) == NTF_DETECTED

    @given(EVENTS)
    @settings(max_examples=200, deadline=None)
    def test_event_json_round_trip_property(self, event):
        assert SessionEvent.from_json(event.to_json()) == event

    @given(EVENTS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_event_json_raises(self, event, data):
        line = event.to_json()
        d = json.loads(line)
        key = data.draw(st.sampled_from(sorted(d)))
        wrong = st.sampled_from([-1, True, 1.0, "0", None, []]) if key == "index" else st.sampled_from(
            [0, False, None, [], {}])
        mutated = data.draw(st.sampled_from([
            line[:data.draw(st.integers(0, len(line) - 1))],  # cut short
            json.dumps({k: v for k, v in d.items() if k != key}),  # a key missing
            json.dumps({**d, "extra": ""}),  # a key too many
            json.dumps({**d, key: data.draw(wrong)}),  # a value of the wrong type or sign
            json.dumps(list(d.values())),  # not an object
        ]))
        with pytest.raises(FixtureError):
            SessionEvent.from_json(mutated)

    @pytest.mark.parametrize(
        "line",
        ["", "not json", "[]", "{}", "null", "1", "[" * 100000,
         '{"index": "x", "phase": 1, "action": null, "outcome": []}',
         '{"index": true, "phase": "p", "action": "a", "outcome": "o"}',
         '{"index": 1.0, "phase": "p", "action": "a", "outcome": "o"}',
         '{"index": -1, "phase": "p", "action": "a", "outcome": "o"}',
         '{"index": 0, "phase": "p", "action": "a"}',
         '{"index": 0, "phase": "p", "action": "a", "outcome": "o", "extra": ""}'],
        ids=["empty", "not-json", "array", "empty-object", "null", "number", "deep", "wrong-types",
             "index-bool", "index-float", "index-negative", "key-missing", "key-extra"],
    )
    def test_malformed_event_line_raises(self, line):
        with pytest.raises(FixtureError):
            SessionEvent.from_json(line)

    def test_unknown_failed_pad_rejected_before_the_log(self, fixture):
        # Filtering the battery by a pad the UUT lacks would leave no checks,
        # and an empty battery passes.
        plan = forced_plan(fixture, vcit=None, needles="stale", dummy=None)
        plan = replace(plan, failed_pads=("p1", "ghost"))
        with pytest.raises(UnknownPad, match="ghost"):
            run_session(plan, fixture.bench, ScriptedOperator())

    def test_replay_rejects_undecided_log(self):
        with pytest.raises(ValueError):
            replay_verdict([SessionEvent(0, "Idle", "session-start", "seed=0")])


class TestScenarioParsing:
    def test_full_scenario(self):
        text = """
        # maintenance drill
        functional: fail
        failed-pads: p1 p2
        needles: stale
        force-vcit: fail
        force-dummy: fail
        operator.mount-dummy: confirmed
        seed: 7
        """
        s = parse_scenario(text)
        assert s == Scenario(
            functional="fail",
            failed_pads=("p1", "p2"),
            needles="stale",
            force_vcit="fail",
            force_dummy="fail",
            operator_responses={"mount-dummy": "confirmed"},
            seed=7,
        )

    def test_defaults(self):
        assert parse_scenario("") == Scenario()

    @pytest.mark.parametrize(
        "line",
        [
            "functional: maybe",
            "needles: rusty",
            "force-vcit: dunno",
            "operator.mount-dummy: shrug",
            "seed: seven",
            "unknown-key: 1",
            "no colon here",
        ],
    )
    def test_bad_lines_rejected(self, line):
        with pytest.raises(FixtureError):
            parse_scenario(line)

    @pytest.mark.parametrize("key, first, second", [("functional", "fail", "pass"),
                                                    ("operator.mount-dummy", "aborted", "confirmed")])
    def test_key_given_twice_rejected(self, key, first, second):
        # Otherwise the last line would win silently.
        with pytest.raises(FixtureError, match=f"'{key}' given twice"):
            parse_scenario(f"{key}: {first}\n{key}: {second}\n")

    @given(st.lists(st.tuples(
        st.sampled_from(["functional", "failed-pads", "needles", "force-vcit", "force-dummy",
                         "seed", "operator.mount-dummy", "operator.", "# functional"])
        | st.text("aefst:#.-7 \t\né", max_size=8),
        st.sampled_from([":", ": ", " ", ":: ", "\n"]),
        st.sampled_from(["pass", "fail", "fresh", "stale", "confirmed", "aborted", "7", "p1 p2", ""])
        | st.text("aefst:#.-7 \t\né", max_size=8),
    ), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_key_lines_parse_or_raise_fixture_error(self, lines):
        try:
            scenario = parse_scenario("\n".join(key + sep + value for key, sep, value in lines))
        except FixtureError:
            return
        assert isinstance(scenario, Scenario)


def test_scripted_operator_default_and_override():
    op = ScriptedOperator({"mount-dummy": "aborted"})
    assert op.ask("mount-dummy") == "aborted"
    assert op.ask("anything-else") == "confirmed"
    assert ScriptedOperator().ask("mount-dummy") == "confirmed"


# --- the session layer against its decision table ---------------------------

FX = load_default_fixture()
FX_PADS = tuple(pid for pid, _ in FX.bench.uut.pads)
# Half the needles fresh, the others from slightly worn to open
# (open_threshold is 1e6 ohm), so that most benches pass setup.
NEEDLE_OHMS = st.just(0.1) | st.sampled_from([2.0, 40.0, 300.0, 3000.0, 2e6])
FORCED = st.sampled_from([None, "pass", "fail"])


@st.composite
def sessions(draw):
    """(plan, bench, operator) on the default fixture's UUT: worn or open
    needles, any needle log, any failed pads, measured or forced outcomes
    and any operator response to the dummy prompt."""
    bench = Bench(FX.bench.uut, {pid: ContactState(draw(NEEDLE_OHMS)) for pid in FX_PADS})
    last, age, window = (draw(st.integers(0, 2000)) for _ in range(3))
    plan = SessionPlan(
        vcit_plan=FX.vcit_plan,
        needle_log=NeedleLog(last, last + age, window),
        dummy=FX.dummy,
        functional_outcome=draw(st.sampled_from(["pass", "fail"])),
        failed_pads=tuple(draw(st.lists(st.sampled_from(FX_PADS), unique=True))),
        forced_vcit=draw(FORCED),
        forced_dummy=draw(FORCED),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    response = st.sampled_from(["confirmed", "aborted"])
    responses = draw(st.dictionaries(st.just("mount-dummy"), response))
    return plan, bench, ScriptedOperator(responses)


def expected_diagnosis(plan, bench, operator):
    """(verdict kind, whether the dummy prompt is issued) of the diagnosis,
    by the decision table of expected_kind."""
    vcit = plan.forced_vcit
    if vcit is None:
        battery = run_vcit_battery(bench, plan.vcit_plan, pads=plan.failed_pads)
        vcit = "pass" if battery.passed else "fail"
    needles = "fresh" if plan.needle_log.replaced_within_window else "stale"
    if vcit == "pass" or needles == "fresh":
        return expected_kind(vcit, needles, None), False
    if operator.ask("mount-dummy") != "confirmed":
        return FIXTURE_FAULT, True
    dummy = plan.forced_dummy
    if dummy is None:
        dummy = "pass" if dummy_self_test(plan.dummy, bench.contacts).passed else "fail"
    return expected_kind(vcit, needles, dummy), True


def prompted(events) -> bool:
    return any(e.action == "prompt:mount-dummy" for e in events)


@given(sessions())
@settings(max_examples=100, deadline=None)
def test_session_follows_the_decision_table(case):
    plan, bench, operator = case
    verdict, events = run_session(plan, bench, operator)
    if not run_setup_integrity(bench, plan.vcit_plan).passed:
        expected = FIXTURE_FAULT, False
    elif plan.functional_outcome == "pass":
        expected = PASS, False
    else:
        expected = expected_diagnosis(plan, bench, operator)
    assert (verdict.kind, prompted(events)) == expected
    assert replay_verdict(events) == verdict.kind
    assert (events[-1].action, events[-1].outcome) == ("verdict", verdict.kind)


@given(sessions())
@settings(max_examples=100, deadline=None)
def test_diagnosis_follows_the_decision_table(case):
    """The diagnosis on its own, so that a measured VCIT fail (which a
    passing setup battery rules out in a session) reaches the measured
    dummy self test."""
    plan, bench, operator = case
    log = EventLog()
    try:
        kind = diagnose_functional_failure(plan, bench, operator, log).kind
    except OperatorAborted:
        kind = FIXTURE_FAULT
    assert (kind, prompted(log.events)) == expected_diagnosis(plan, bench, operator)
    assert replay_verdict(log.events) == kind
