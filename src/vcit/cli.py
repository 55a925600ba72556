"""Operator-facing command line: run sessions and self tests, execute single
checks, and serve or address a prober farm.

Exit codes (total function of the outcome):

    0  Pass / check passed
    1  configuration, usage, or I/O error
    2  UutFail (functional)
    3  UutFail (interface)
    4  NtfDetected
    5  FixtureFault
    6  standalone check or self test failed
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import bus as busmod
from . import executive as ex
from .checks import (
    CorrelationRef,
    MeasurementVector,
    VcitVerdict,
    correlation_score,
    differential_test,
    shape_test,
    single_level_test,
)
from .errors import VcitError
from .executive import (
    NeedleLog,
    PadCheck,
    ScriptedOperator,
    SessionPlan,
    dummy_self_test,
    parse_scenario,
    run_session,
)
from .fixture import default_fixture_path, load_fixture
from .prober import StimulusWaveform, execute

BUS_ENV_VAR = "VCIT_BUS"

VERDICT_EXIT_CODES = {
    ex.PASS: 0,
    ex.UUT_FAIL_FUNCTIONAL: 2,
    ex.UUT_FAIL_INTERFACE: 3,
    ex.NTF_DETECTED: 4,
    ex.FIXTURE_FAULT: 5,
}
EXIT_CONFIG_ERROR = 1
EXIT_CHECK_FAILED = 6


class ConsoleOperator:
    """Live confirm/abort prompts on the terminal."""

    def ask(self, prompt_tag: str) -> str:
        while True:
            answer = input(f"[{prompt_tag}] confirm? [y/n] ").strip().lower()
            if answer in ("y", "yes"):
                return "confirmed"
            if answer in ("n", "no"):
                return "aborted"


def _parse_bus(address: str):
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise VcitError(f"bus address must be host:port, got {address!r}")
    return host, int(port)


def _write_log(path, events):
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(ev.to_json() + "\n")


def _load(args):
    path = Path(args.fixture) if args.fixture else default_fixture_path()
    return load_fixture(path)


def cmd_session(args) -> int:
    fixture = _load(args)
    operator = ConsoleOperator() if args.interactive else ScriptedOperator()
    scenario = None
    if args.script:
        scenario = parse_scenario(Path(args.script).read_text(encoding="utf-8"))
        operator = ScriptedOperator(scenario.operator_responses)

    needle_log = fixture.needle_log
    if scenario is not None and scenario.needles is not None:
        if scenario.needles == "fresh":
            needle_log = NeedleLog(
                last_replacement_cycle=needle_log.current_cycle,
                current_cycle=needle_log.current_cycle,
                window_cycles=needle_log.window_cycles,
            )
        else:
            needle_log = NeedleLog(
                last_replacement_cycle=needle_log.last_replacement_cycle,
                current_cycle=needle_log.last_replacement_cycle + needle_log.window_cycles + 1,
                window_cycles=needle_log.window_cycles,
            )

    plan = SessionPlan(
        vcit_plan=fixture.vcit_plan,
        needle_log=needle_log,
        dummy=fixture.dummy,
        functional_outcome=scenario.functional if scenario else "pass",
        failed_pads=scenario.failed_pads if scenario else (),
        forced_vcit=scenario.force_vcit if scenario else None,
        forced_dummy=scenario.force_dummy if scenario else None,
        seed=args.seed if args.seed is not None else (scenario.seed if scenario else 0),
    )

    port = None
    connection = None
    if args.bus:
        host, tcp_port = _parse_bus(args.bus)
        connection = busmod.BusConnection.connect(host, tcp_port)
        reply = busmod.client_call(busmod.BusCommand("HELLO"), connection)
        if reply.payload != busmod.PROTOCOL_VERSION:
            raise VcitError(f"unexpected bus protocol: {reply.payload!r}")
        port = busmod.RemoteProber(connection, fixture.limits, 0)

    try:
        verdict, events = run_session(plan, fixture.bench, operator, port=port)
    finally:
        if connection is not None:
            connection.close()
    if args.log:
        _write_log(args.log, events)
    print(f"verdict: {verdict.kind}")
    for item in verdict.evidence:
        print(f"  evidence: {item}")
    return VERDICT_EXIT_CODES[verdict.kind]


def cmd_selftest(args) -> int:
    fixture = _load(args)
    if fixture.dummy is None:
        raise VcitError("fixture has no dummy UUT configured")
    verdict = dummy_self_test(fixture.dummy, fixture.bench.contacts)
    for pad in verdict.detail["pads"]:
        lo, hi = pad["window"]
        state = "in-band" if lo <= pad["reading"] <= hi else "OUT-OF-BAND"
        print(f"{pad['pad_id']}: {pad['reading']:.6g} V  band [{lo:g}, {hi:g}]  {state}")
    print(f"self test: {'pass' if verdict.passed else 'fail'}")
    return 0 if verdict.passed else EXIT_CHECK_FAILED


def _csv_floats(text: str):
    try:
        values = tuple(float(v) for v in text.split(",") if v != "")
    except ValueError:
        raise VcitError(f"bad number list: {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise VcitError(f"non-finite number in list: {text!r}")
    return values


def _print_verdict(verdict: VcitVerdict) -> int:
    print(f"check: {'pass' if verdict.passed else 'fail'}")
    for key, value in verdict.detail.items():
        print(f"  {key}: {value}")
    return 0 if verdict.passed else EXIT_CHECK_FAILED


def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise VcitError(f"check {args.check!r} requires --{name}")


def cmd_check(args) -> int:
    try:
        return _check(args)
    except ValueError as exc:  # a check rejected the numbers it was given
        raise VcitError(f"check {args.check!r}: {exc}") from None


def _check(args) -> int:
    if args.check == "corr":
        _require(args, ["file"])
        samples = _csv_floats(Path(args.file).read_text(encoding="utf-8").replace("\n", ","))
        ref_samples = samples
        if args.ref_file:
            ref_samples = _csv_floats(Path(args.ref_file).read_text(encoding="utf-8").replace("\n", ","))
        ref = CorrelationRef(reference_samples=ref_samples, dt=1e-3, threshold=args.threshold)
        score = correlation_score(samples, ref)
        print(f"score: {score!r}")
        return 0 if score >= args.threshold else EXIT_CHECK_FAILED

    fixture = _load(args)
    if args.check == "shape":
        _require(args, ["region", "vector"])
        if args.region not in fixture.regions:
            raise VcitError(f"fixture has no region named {args.region!r}")
        values = _csv_floats(args.vector)
        x = MeasurementVector(values=values, labels=tuple(f"m{i}" for i in range(len(values))))
        return _print_verdict(shape_test(x, fixture.regions[args.region]))

    if args.check == "single":
        _require(args, ["pad", "level", "window"])
        window = _csv_floats(args.window)
        check = PadCheck(pad_id=args.pad, mode=args.mode, level=args.level, window=window)
        capture = execute(check.waveform(), fixture.limits, fixture.bench)[0]
        return _print_verdict(single_level_test(capture, check.window))

    if args.check == "diff":
        _require(args, ["pad", "levels", "windows"])
        levels = _csv_floats(args.levels)
        if len(levels) < 2:
            raise VcitError("diff needs at least two levels")
        windows = [_csv_floats(w) for w in args.windows.split(";")]
        captures = []
        for level in levels:
            waveform = StimulusWaveform(
                mode=args.mode, samples=(level,) * 4, dt=1e-3, target_pads=(args.pad,)
            )
            captures.append(execute(waveform, fixture.limits, fixture.bench)[0])
        return _print_verdict(differential_test(captures, windows))

    raise VcitError(f"unknown check: {args.check!r}")


def cmd_serve(args) -> int:
    fixture = _load(args)
    address = args.bus or "127.0.0.1:7605"
    host, port = _parse_bus(address)
    farm = busmod.ProberFarm(fixture.bench, args.probers)
    try:
        server = busmod.serve(farm, (host, port))
    except OSError as exc:
        print(f"error: cannot bind {address}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    bound = server.server_address
    print(f"listening on {bound[0]}:{bound[1]} ({args.probers} probers)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcit",
        description="Probing-integrity test engine over a simulated bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bus=True):
        p.add_argument("--fixture", help="fixture description file (default: shipped fixture)")
        if bus:
            p.add_argument("--bus", default=os.environ.get(BUS_ENV_VAR),
                           help=f"prober bus address host:port (env {BUS_ENV_VAR})")

    p = sub.add_parser("session", help="run a full test session")
    common(p)
    p.add_argument("--log", help="session log output path")
    p.add_argument("--seed", type=int, default=None,
                   help="session label written to the log; feeds no computation")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--script", help="scenario script with operator responses")
    group.add_argument("--interactive", action="store_true", help="prompt the operator live")
    p.set_defaults(func=cmd_session)

    p = sub.add_parser("selftest", help="run the dummy-UUT self test standalone")
    common(p, bus=False)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("check", help="run one integrity check")
    p.add_argument("check", choices=["single", "diff", "corr", "shape"])
    common(p, bus=False)
    p.add_argument("--pad", help="target pad id (single/diff)")
    p.add_argument("--mode", default="current", choices=["current", "voltage"])
    p.add_argument("--level", type=float, help="stimulus level (single)")
    p.add_argument("--levels", help="comma-separated stimulus levels (diff)")
    p.add_argument("--window", help="lo,hi window (single)")
    p.add_argument("--windows", help="semicolon-separated lo,hi windows (diff)")
    p.add_argument("--file", help="sample file, one value per line (corr)")
    p.add_argument("--ref-file", help="reference sample file (corr; defaults to --file)")
    p.add_argument("--threshold", type=float, default=0.9, help="correlation threshold")
    p.add_argument("--region", help="named fixture region (shape)")
    p.add_argument("--vector", help="comma-separated measurement vector (shape)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("serve", help="serve the prober farm on the bus")
    common(p)
    p.add_argument("--probers", type=int, default=3, help="farm size")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VcitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
