"""Command-line behavior: exit codes, session logs, checks, and the bus."""

import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import vcit
from vcit.bus import BusServer, ProberFarm
from vcit.cli import main
from vcit.executive import (
    NTF_ACTIONS,
    PadCheck,
    SessionEvent,
    VcitPlan,
    replay_verdict,
    run_vcit_battery,
)
from vcit.fixture import default_fixture_path, load_default_fixture


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

    @pytest.mark.parametrize(
        "edit, scenario, message",
        [
            (lambda doc: doc.update(setup_plna=doc.pop("setup_plan")), "", "'setup_plna'"),
            (lambda doc: doc.update(catalog=[]), "", "'catalog'"),
            (lambda doc: doc["setup_plan"][0].update(rail="vcc"), "",
             "setup_plan[0]: bad check: rail must be 'VCC' or 'GND'"),
            (lambda doc: doc["pads"].__setitem__(0, {"id": "p1", "kind": "resistive", "ohms": 100.0}),
             "", "setup_plan[0]: pad 'p1' has no element to rail VCC"),
            (lambda doc: None, "functional: fail\nfailed-pads: ghost\n", "no such pad: 'ghost'"),
            (lambda doc: doc["setup_plan"][1].update(window=[0.3]), "",
             "setup_plan[1].window: expected two finite numbers, got [0.3]"),
            (lambda doc: None, "functional: fail\nfunctional: pass\n", "'functional' given twice"),
        ],
        ids=["misspelt-key", "leftover-catalog", "rail-lowercase", "rail-unreachable",
             "unknown-failed-pad", "window-one-entry", "scenario-key-twice"],
    )
    def test_bad_input_exit_1_before_the_session(self, tmp_path, capsys, edit, scenario, message):
        doc = json.loads(default_fixture_path().read_text(encoding="utf-8"))
        edit(doc)
        fixture = write(tmp_path, "fixture.json", json.dumps(doc))
        script = write(tmp_path, "s.scenario", scenario)
        log = tmp_path / "session.log"
        argv = ["session", "--fixture", fixture, "--script", script, "--log", str(log)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err
        assert "verdict:" not in captured.out
        assert not log.exists()

    @pytest.mark.parametrize("option", ["--script", "--fixture"])
    def test_file_that_is_not_utf8_exit_1(self, tmp_path, capsys, option):
        path = tmp_path / "binary"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["session", option, str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_nanoamp_level_reads_the_converged_pad(self, capsys):
        # 0.5 nA into p1: the pad sits at 0.2796 V, inside the window.
        assert main(["check", "single", "--pad", "p1", "--level", "5e-10",
                     "--window", "0.2,0.4"]) == 0
        assert "  reading: 0.2796" in capsys.readouterr().out

    def test_ideal_voltage_drive_without_contacts(self, tmp_path, capsys):
        # With no contacts entry each needle is 0 Ohm, so the drive pins p1.
        doc = json.loads(default_fixture_path().read_text(encoding="utf-8"))
        del doc["contacts"]
        fixture = write(tmp_path, "no-contacts.json", json.dumps(doc))
        assert main(["check", "single", "--fixture", fixture, "--pad", "p1", "--mode", "voltage",
                     "--level", "0.5", "--window", "0.4,0.6"]) == 0
        assert "  reading: 0.5\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "single", "--pad", "p1", "--mode", "bogus"], "invalid choice"),
            (["check"], "required"),
            (["check", "single", "--pad", "p1", "--bogus"], "unrecognized arguments"),
        ],
        ids=["bad-choice", "missing-required", "unknown-option"],
    )
    def test_usage_error_exit_1(self, capsys, argv, message):
        assert main(argv) == 1  # not 2, the code of a functional UUT fail
        captured = capsys.readouterr()
        assert message in captured.err and "usage:" in captured.err
        assert captured.out == ""

    def test_help_exit_0(self, capsys):
        assert main(["check", "--help"]) == 0
        assert "usage:" in capsys.readouterr().out

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
        assert main(["check", "corr", "--file", f, "--ref-file", f, "--threshold", "1.0"]) == 0
        assert "score: 1.0" in capsys.readouterr().out

    def test_corr_against_reference_fail(self, tmp_path):
        a = write(tmp_path, "a.txt", "0.0\n1.0\n0.0\n-1.0\n")
        b = write(tmp_path, "b.txt", "1.0\n0.0\n-1.0\n0.0\n")
        assert main(["check", "corr", "--file", a, "--ref-file", b, "--threshold", "0.9"]) == 6

    def test_corr_missing_file_exit_1(self):
        assert main(["check", "corr"]) == 1

    def test_corr_without_reference_exit_1(self, tmp_path, capsys):
        # Against itself any non-constant trace would score 1.0 and pass.
        f = write(tmp_path, "sig.txt", "0.1\n0.5\n0.2\n0.9\n")
        assert main(["check", "corr", "--file", f, "--threshold", "0.99"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "--ref-file" in captured.err
        assert "score:" not in captured.out

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
            ["corr", "--file", "{ramp}", "--ref-file", "{flat}"],
            ["corr", "--file", "{ramp}", "--ref-file", "{ramp}", "--threshold", "nan"],
            ["corr", "--file", "{ramp}", "--ref-file", "{rounded}"],
            ["single", "--pad", "p1", "--level", "-x", "--window", "-0.9,-0.4"],
            ["single", "--pad", "p1", "--level", "-nan", "--window", "-0.9,-0.4"],
            ["single", "--pad", "p1", "--level", "-1e-3", "--window", "-0.9,-x"],
            ["single", "--pad", "p1", "--level", "-1e-3", "--window", "-0.4,-0.9"],
            ["diff", "--pad", "p1", "--levels", "-1e-3,-nan", "--windows", "-0.1,0.1"],
            ["diff", "--pad", "p1", "--levels", "-1e-3,-2e-3", "--windows", "-inf,0.1"],
            ["shape", "--region", "unit-box", "--vector", "-a,0"],
            ["corr", "--file", "{ramp}", "--ref-file", "{ramp}", "--threshold", "-x"],
            ["corr", "--file", "{ramp}", "--ref-file", "{ramp}", "--threshold", "-2"],
        ],
        ids=["level", "window", "window-reversed", "levels", "windows", "window-count",
             "vector", "constant-reference", "threshold", "reference-constant-up-to-rounding",
             "negative-level", "negative-level-nan", "negative-window",
             "negative-window-reversed", "negative-levels", "negative-windows",
             "negative-vector", "negative-threshold", "negative-threshold-range"],
    )
    def test_bad_input_exit_1_without_verdict(self, tmp_path, capsys, argv):
        files = {"{flat}": write(tmp_path, "flat.txt", "1\n1\n1\n"),
                 "{ramp}": write(tmp_path, "ramp.txt", "0.1\n0.2\n0.3\n"),
                 "{rounded}": write(tmp_path, "rounded.txt", "0.2\n0.2\n0.2\n")}
        assert main(["check", *(files.get(a, a) for a in argv)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "check:" not in captured.out and "score:" not in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["single", "--pad", "p1", "--level", "-1e-3", "--window", "-0.9,-0.4"],
            ["single", "--pad", "p1", "--level=-1e-3", "--window=-0.9,-0.4"],
            ["single", "--pad", "p1", "--mode", "voltage", "--level", "-.5", "--window", "-1,0"],
            ["diff", "--pad", "p1", "--levels", "-1e-3,-2e-3", "--windows", "-0.1,0.1"],
            ["diff", "--pad", "p1", "--levels", "-1e-3,-2e-3,-3e-3", "--windows", "-0.1,0;-1,1"],
            ["shape", "--region", "unit-box", "--vector", "-0.5,0.5"],
            ["corr", "--file", "{ramp}", "--ref-file", "{ramp}", "--threshold", "-0.5"],
        ],
        ids=["level-window", "joined", "voltage-level", "levels-windows", "windows-list",
             "vector", "threshold"],
    )
    def test_negative_numbers_as_separate_arguments(self, tmp_path, capsys, argv):
        files = {"{ramp}": write(tmp_path, "ramp.txt", "0.1\n0.2\n0.3\n")}
        assert main(["check", *(files.get(a, a) for a in argv)]) in (0, 6)
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(("check: ", "score: "))

    def test_reverse_current_reads_as_the_battery_does(self, capsys):
        fixture = load_default_fixture()
        check = PadCheck(pad_id="p1", mode="current", level=-1e-3, window=(-0.9, -0.4))
        battery = run_vcit_battery(fixture.bench, VcitPlan(checks=(check,), limits=fixture.limits))
        expected = battery.detail["checks"][0]["reading"]
        assert expected < 0.0  # the pad's GND diode conducts
        assert main(["check", "single", "--pad", "p1", "--level", "-1e-3",
                     "--window", "-0.9,-0.4"]) == 0
        assert f"  reading: {expected}\n" in capsys.readouterr().out


class TestBusIntegration:
    def serve_farm(self):
        farm = ProberFarm(load_default_fixture().bench, 2)
        server = BusServer(("127.0.0.1", 0), farm)
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--bus", "127.0.0.1:70000"], "port in 0-65535"),
            (["session", "--bus", "127.0.0.1:99999"], "port in 0-65535"),
            (["session", "--bus", "127.0.0.1:\u00b2"], "port in 0-65535"),
            (["serve", "--bus", "127.0.0.1:0", "--probers", "0"], "--probers must be at least 1"),
            (["serve", "--bus", "127.0.0.1:0", "--probers", "-2"], "--probers must be at least 1"),
        ],
        ids=["serve-port-too-large", "session-port-too-large", "port-not-ascii", "no-probers",
             "negative-probers"],
    )
    def test_bad_port_or_farm_size_exit_1(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


def vcit_process(argv, stderr):
    """A fresh interpreter that imports vcit from this tree and names every
    module it imports (-X importtime) on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(vcit.__file__).resolve().parents[1]))
    return subprocess.Popen(
        [sys.executable, "-X", "importtime", "-u", *argv], env=env, text=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr,
    )


def numpy_modules(importtime_log: str) -> list:
    names = (ln.rsplit("|", 1)[-1].strip() for ln in importtime_log.splitlines()
             if ln.startswith("import time:"))
    return [name for name in names if name.split(".")[0] == "numpy"]


class TestStandardLibraryOnly:
    """vcit runs on the standard library alone: importing numpy would take
    more than half of each cold start."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["-c", "import vcit"], id="import"),
            pytest.param(["-m", "vcit.cli", "check", "shape", "--region", "unit-box",
                          "--vector", "0.5,-0.5"], id="check-shape"),
        ],
    )
    def test_runs_without_numpy(self, argv, tmp_path):
        with open(tmp_path / "stderr", "w+") as stderr:
            proc = vcit_process(argv, stderr)
            proc.communicate(timeout=60)
            stderr.seek(0)
            log = stderr.read()
        assert proc.returncode == 0, log
        assert "import time:" in log
        assert numpy_modules(log) == []

    def test_serve_listens_without_numpy(self, tmp_path):
        with open(tmp_path / "stderr", "w+") as stderr:
            proc = vcit_process(["-m", "vcit.cli", "serve", "--bus", "127.0.0.1:0"], stderr)
            watchdog = threading.Timer(60.0, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline()
            finally:
                watchdog.cancel()
                proc.terminate()
                proc.communicate(timeout=30)
            stderr.seek(0)
            log = stderr.read()
        assert line.startswith("listening on 127.0.0.1:"), log
        assert numpy_modules(log) == []

    def test_every_module_imports_the_standard_library_alone(self):
        # The tests above watch numpy on three paths; this watches every
        # module for anything outside the standard library.  Only what the
        # imports add counts: a .pth file may load more at start-up.
        code = """if True:
            import sys
            before = set(sys.modules)
            import importlib, pkgutil, vcit
            for module in pkgutil.iter_modules(vcit.__path__):
                importlib.import_module(f"vcit.{module.name}")
            print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
        """
        proc = vcit_process(["-c", code], subprocess.DEVNULL)
        loaded = proc.communicate(timeout=60)[0].split()
        assert proc.returncode == 0
        assert "vcit" in loaded
        assert [name for name in loaded if name != "vcit" and name not in sys.stdlib_module_names] == []
