"""Command-line behavior: exit codes, session logs, checks, and the bus."""

import json
import socket
import threading

import pytest

from vcit.bus import ProberFarm, serve
from vcit.cli import main
from vcit.executive import (
    NTF_ACTIONS,
    PadCheck,
    SessionEvent,
    VcitPlan,
    replay_verdict,
    run_vcit_battery,
)
from vcit.fixture import load_default_fixture


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


NTF_SCENARIO = """
functional: fail
failed-pads: p1
needles: stale
force-vcit: fail
force-dummy: fail
operator.mount-dummy: confirmed
"""


class TestSession:
    def test_pass_by_default(self, capsys):
        assert main(["session"]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_ntf_scenario_exit_4(self, tmp_path, capsys):
        script = write(tmp_path, "ntf.scenario", NTF_SCENARIO)
        log = tmp_path / "session.log"
        assert main(["session", "--script", script, "--log", str(log)]) == 4
        assert "verdict: ntf-detected" in capsys.readouterr().out
        events = [SessionEvent.from_json(ln) for ln in log.read_text().splitlines()]
        actions = tuple(e.outcome for e in events if e.action == "action")
        assert actions == NTF_ACTIONS
        assert replay_verdict(events) == "ntf-detected"

    def test_functional_failure_exit_2(self, tmp_path):
        script = write(tmp_path, "s", "functional: fail\nfailed-pads: p1\nforce-vcit: pass\n")
        assert main(["session", "--script", script]) == 2

    def test_interface_failure_exit_3(self, tmp_path):
        script = write(
            tmp_path, "s", "functional: fail\nfailed-pads: p1\nneedles: fresh\nforce-vcit: fail\n"
        )
        assert main(["session", "--script", script]) == 3

    def test_operator_abort_exit_5(self, tmp_path):
        script = write(
            tmp_path,
            "s",
            "functional: fail\nfailed-pads: p1\nneedles: stale\n"
            "force-vcit: fail\noperator.mount-dummy: aborted\n",
        )
        assert main(["session", "--script", script]) == 5

    def test_dummy_pass_is_interface_exit_3(self, tmp_path):
        script = write(
            tmp_path,
            "s",
            "functional: fail\nfailed-pads: p1\nneedles: stale\n"
            "force-vcit: fail\nforce-dummy: pass\n",
        )
        assert main(["session", "--script", script]) == 3

    def test_missing_fixture_exit_1_and_no_log(self, tmp_path, capsys):
        log = tmp_path / "never.log"
        code = main(["session", "--fixture", str(tmp_path / "gone.json"), "--log", str(log)])
        assert code == 1
        assert not log.exists()
        assert "error:" in capsys.readouterr().err

    def test_bad_scenario_exit_1(self, tmp_path):
        script = write(tmp_path, "s", "needles: rusty\n")
        assert main(["session", "--script", script]) == 1

    def test_seed_recorded_in_log(self, tmp_path):
        log = tmp_path / "seeded.log"
        assert main(["session", "--seed", "42", "--log", str(log)]) == 0
        first = json.loads(log.read_text().splitlines()[0])
        assert first["outcome"] == "seed=42"


class TestSelftest:
    def test_default_fixture_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "self test: pass" in out
        assert out.count("in-band") == 3

    def test_worn_contacts_fail_exit_6(self, tmp_path, capsys):
        from vcit.fixture import default_fixture_path

        doc = json.loads(default_fixture_path().read_text(encoding="utf-8"))
        for c in doc["contacts"].values():
            c["resistance"] = 500.0
        fixture = write(tmp_path, "worn.json", json.dumps(doc))
        assert main(["selftest", "--fixture", fixture]) == 6
        assert "OUT-OF-BAND" in capsys.readouterr().out


class TestCheck:
    def test_single_level_pass(self, capsys):
        code = main(
            ["check", "single", "--pad", "p1", "--level", "0.001", "--window", "0.3,1.0"]
        )
        assert code == 0
        assert "check: pass" in capsys.readouterr().out

    def test_single_level_fail_exit_6(self):
        code = main(
            ["check", "single", "--pad", "p1", "--level", "0.001", "--window", "0.9,1.0"]
        )
        assert code == 6

    def test_single_reads_as_the_battery_does(self, capsys):
        fixture = load_default_fixture()
        check = PadCheck(pad_id="p2", mode="current", level=0.002, window=(0.0, 1.0))
        battery = run_vcit_battery(fixture.bench, VcitPlan(checks=(check,), limits=fixture.limits))
        expected = battery.detail["checks"][0]["reading"]
        main(["check", "single", "--pad", "p2", "--level", "0.002", "--window", "0.0,1.0"])
        assert f"  reading: {expected}\n" in capsys.readouterr().out

    def test_single_missing_args_exit_1(self, capsys):
        assert main(["check", "single", "--pad", "p1"]) == 1
        assert "requires" in capsys.readouterr().err

    def test_diff_pass(self):
        code = main(
            [
                "check", "diff", "--pad", "p1",
                "--levels", "0.001,0.002",
                "--windows", "0.042,0.044",
            ]
        )
        assert code == 0

    def test_diff_one_level_exit_1(self):
        code = main(["check", "diff", "--pad", "p1", "--levels", "0.001", "--windows", "0,1"])
        assert code == 1

    def test_corr_self_is_unity(self, tmp_path, capsys):
        f = write(tmp_path, "sig.txt", "0.1\n0.5\n0.2\n0.9\n")
        assert main(["check", "corr", "--file", f, "--threshold", "1.0"]) == 0
        assert "score: 1.0" in capsys.readouterr().out

    def test_corr_against_reference_fail(self, tmp_path):
        a = write(tmp_path, "a.txt", "0.0\n1.0\n0.0\n-1.0\n")
        b = write(tmp_path, "b.txt", "1.0\n0.0\n-1.0\n0.0\n")
        assert main(["check", "corr", "--file", a, "--ref-file", b, "--threshold", "0.9"]) == 6

    def test_corr_missing_file_exit_1(self):
        assert main(["check", "corr"]) == 1

    def test_shape_inside(self, capsys):
        assert main(["check", "shape", "--region", "unit-box", "--vector", "0.5,-0.5"]) == 0
        out = capsys.readouterr().out
        assert "check: pass" in out

    def test_shape_outside_exit_6(self):
        assert main(["check", "shape", "--region", "unit-box", "--vector", "2,0"]) == 6

    def test_shape_unknown_region_exit_1(self):
        assert main(["check", "shape", "--region", "nowhere", "--vector", "0,0"]) == 1

    def test_bad_vector_exit_1(self):
        assert main(["check", "shape", "--region", "unit-box", "--vector", "a,b"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["single", "--pad", "p1", "--level", "nan", "--window", "0.3,1.0"],
            ["single", "--pad", "p1", "--level", "0.001", "--window", "nan,1"],
            ["single", "--pad", "p1", "--level", "0.001", "--window", "1.0,0.3"],
            ["diff", "--pad", "p1", "--levels", "0.001,nan", "--windows", "0,1"],
            ["diff", "--pad", "p1", "--levels", "0.001,0.002", "--windows", "0,inf"],
            ["diff", "--pad", "p1", "--levels", "0.001,0.002,0.004", "--windows", "0,1"],
            ["shape", "--region", "unit-box", "--vector", "nan,0"],
            ["corr", "--file", "{flat}"],
            ["corr", "--file", "{ramp}", "--threshold", "nan"],
        ],
        ids=["level", "window", "window-reversed", "levels", "windows", "window-count",
             "vector", "constant-reference", "threshold"],
    )
    def test_bad_input_exit_1_without_verdict(self, tmp_path, capsys, argv):
        files = {"{flat}": write(tmp_path, "flat.txt", "1\n1\n1\n"),
                 "{ramp}": write(tmp_path, "ramp.txt", "0.1\n0.2\n0.3\n")}
        assert main(["check", *(files.get(a, a) for a in argv)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "check:" not in captured.out and "score:" not in captured.out


class TestBusIntegration:
    def serve_farm(self):
        farm = ProberFarm(load_default_fixture().bench, 2)
        server = serve(farm, ("127.0.0.1", 0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server

    def test_session_over_bus(self, capsys):
        server = self.serve_farm()
        try:
            host, port = server.server_address
            assert main(["session", "--bus", f"{host}:{port}"]) == 0
            assert "verdict: pass" in capsys.readouterr().out
        finally:
            server.shutdown()
            server.server_close()

    def test_serve_bind_failure_exit_1(self, capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        try:
            host, port = blocker.getsockname()
            assert main(["serve", "--bus", f"{host}:{port}"]) == 1
            assert "cannot bind" in capsys.readouterr().err
        finally:
            blocker.close()

    def test_bad_bus_address_exit_1(self, capsys):
        assert main(["session", "--bus", "not-an-address"]) == 1
        assert "host:port" in capsys.readouterr().err
