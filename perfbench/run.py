"""vcit benchmark: time to verdict, wide-board checks and bus round trips.

Usage (from the repository root):

    python3 perfbench/run.py --workload session-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
instrumentation: a closed loop of seeded ops for ``--seconds`` (and at least
MIN_OPS ops), every output checked after the timed interval.  ``--trace 1``
runs a fixed seeded op list untraced, then with spans on each layer's public
functions, then with the diode law and linear solve counted, and reports the
per-layer metrics; a layer the workload never reaches reports 0.  The solver
scaling probe runs untraced.  Human-readable lines come first; the last line
of standard output is the JSON result.  Details and spans go to
perfbench/out/.

The program under test is the ``vcit`` package in ``src/`` of the checkout;
it is driven only through its public functions and never edited.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

HARD_CAP_S = 100.0   # a timed loop never runs longer than this (runs must end in 180 s)
SETUPS = 3           # set-ups before an in-process loop; one more follows each block
BUS_SETUPS = 5       # server spawns before the bus-tcp loop, and again after it
BLAS_THREADS = "1"   # make_record.py uses the same
STATUS_PERIOD_S = 0.2
UNLOADED_STATUS_POLLS = 30
TRACE_OPS = {"session-mix": 120, "wide-board": 40, "bus-tcp": 40}
SCALING = ((3, 20), (30, 8), (300, 3))  # (pads, repeats)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import vcit from src/ of this checkout, and only from there."""
    if not (SRC / "vcit" / "__init__.py").is_file():
        fail(f"no vcit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import vcit

    if Path(vcit.__file__).resolve().parent != (SRC / "vcit").resolve():
        fail(f"vcit imported from {vcit.__file__}, not from {SRC}")


def peak_rss_mb(children=False):
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if children:
        mb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return mb


def machine():
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """OpenBLAS thread count as the loaded library reports it."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def quantile_ms(values, q):
    """Quantile of seconds, in ms; q=0.5 is the median, q=0.9 the p90.
    No values give 0: a layer that was never called took no time."""
    if len(values) < 2:
        return values[0] * 1e3 if values else 0.0
    if q == 0.5:
        return statistics.median(values) * 1e3
    return statistics.quantiles(values, n=10, method="inclusive")[round(q * 10) - 1] * 1e3


def load_record():
    path = HERE / "record.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


# --- in-process workloads (session-mix, wide-board) ------------------------------------

def inproc_setup(cls, seed, pool):
    """One set-up: fixture load plus generation of the input pool.
    Returns (workload, seconds)."""
    start = time.perf_counter()
    w = cls(seed)
    w.op(pool - 1)
    return w, time.perf_counter() - start


def inproc_loop(w, seconds=None, count=None, tracer=None, after_op=None, after_block=None):
    """Closed loop, one client: run ops until the time and count rules are met,
    ending on a whole block so that every run has the exact class mix.
    ``after_op`` runs after each op and ``after_block`` after each block,
    outside the op times.  Returns (ops, results, latencies, perf_counter
    time at the start of each op, wall seconds); an exception is a result."""
    from workloads import BLOCK, MIN_OPS

    ops, results, lat, starts = [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        if i % BLOCK == 0 and i and after_block is not None:
            after_block()
        elapsed = time.perf_counter() - start
        if count is not None:
            if i >= count:
                break
        elif (elapsed >= seconds and i >= MIN_OPS and i % BLOCK == 0) or elapsed >= HARD_CAP_S:
            break
        op = w.op(i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = w.run(op)
        except Exception as exc:  # a raising op is counted as failed, not fatal
            result = exc
        t1 = time.perf_counter()
        ops.append(op)
        results.append(result)
        lat.append(t1 - t0)
        starts.append(t0)
        if after_op is not None:
            after_op()
        i += 1
    return ops, results, lat, starts, time.perf_counter() - start


def inproc_verify(w, ops, results, record, seed):
    """Check every output, and compare the outcome code of each op with the
    record for this seed where it has one.  Returns (failed op count, problem
    lines, outcome codes)."""
    failed, problems, codes = 0, [], []
    want = record.get(w.name, {}).get(str(seed), "").split()
    for i, (op, result) in enumerate(zip(ops, results)):
        if isinstance(result, Exception):
            found = [f"raised {type(result).__name__}: {result}"]
            codes.append("E")
        else:
            found = w.check(op, result)
            codes.append(w.summary(result))
        if i < len(want) and codes[i] != want[i]:
            found.append(f"outcome {codes[i]} != record {want[i]} for seed {seed}")
        if found:
            failed += 1
            problems.extend(f"op {i}: {p}" for p in found)
    return failed, problems, codes


def run_inproc_e2e(name, seed, seconds):
    """Every op and set-up time is taken at nominal host speed (hostspeed.py),
    from the reference kernel run after each of them; the figures are over
    the whole run."""
    from hostspeed import HostSpeed
    from workloads import SessionMix, WideBoard

    cls = SessionMix if name == "session-mix" else WideBoard
    pool = 1500 if name == "session-mix" else 300
    speed = HostSpeed()
    setups, setup_starts = [], []

    def setup():
        setup_starts.append(time.perf_counter())
        w, took = inproc_setup(cls, seed, pool)
        setups.append(took)
        speed.sample()
        return w

    speed.sample()
    for _ in range(SETUPS):
        w = setup()
    w.run(w.op(0))  # warm-up: first-call imports and caches
    ops, results, lat, starts, wall = inproc_loop(
        w, seconds=seconds, after_op=speed.sample, after_block=setup)
    failed, problems, codes = inproc_verify(w, ops, results, load_record(), seed)
    nominal = speed.nominal(lat, starts)
    nominal_setups = speed.nominal(setups, setup_starts)
    metrics = {
        "setup_s": statistics.median(nominal_setups),
        "op_p50_ms": quantile_ms(nominal, 0.5),
        "op_p90_ms": quantile_ms(nominal, 0.9),
        "ops_per_s": len(nominal) / sum(nominal) if nominal else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"ops": len(ops), "wall_s": wall, "codes": " ".join(codes), "problems": problems[:20],
              "setup_times_s": setups, "latencies_s": lat, "reference_s": speed.took,
              "raw": {"setup_s": statistics.median(setups), "op_p50_ms": quantile_ms(lat, 0.5),
                      "op_p90_ms": quantile_ms(lat, 0.9), "ops_per_s": len(lat) / sum(lat) if lat else 0.0}}
    return metrics, len(ops), failed, problems, detail


# --- bus-tcp ------------------------------------------------------------------------

class BusRig:
    """vcit serve in a subprocess plus the two client connections."""

    def __init__(self, seed):
        import random

        from vcit import fixture
        from workloads import bus_waveform

        self.fx = fixture.load_default_fixture()
        rng = random.Random(f"bus-tcp:{seed}")
        self.waveforms = [bus_waveform(rng) for _ in range(600)]
        self.proc = None
        self.conns = []
        self.stderr = None

    def start(self):
        """Spawn the server; returns (seconds to its listening line,
        seconds to the first OK to HELLO)."""
        from vcit import bus

        OUT.mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stderr = open(OUT / "serve.stderr", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "vcit.cli", "serve",
             "--bus", "127.0.0.1:0", "--probers", "2"],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=self.stderr,
            stdin=subprocess.DEVNULL,
        )
        line = self.proc.stdout.readline().decode("ascii", errors="replace")
        ready = time.perf_counter() - start
        if not line.startswith("listening on "):
            raise RuntimeError(f"vcit serve did not start: {line!r}")
        port = int(line.split()[2].rsplit(":", 1)[1])
        a = bus.BusConnection.connect("127.0.0.1", port)
        self.conns.append(a)
        hello = bus.client_call(bus.BusCommand("HELLO"), a)
        hello_s = time.perf_counter() - start
        if hello.payload != bus.PROTOCOL_VERSION:
            raise RuntimeError(f"unexpected HELLO reply {hello!r}")
        b = bus.BusConnection.connect("127.0.0.1", port)
        self.conns.append(b)
        lim = self.fx.limits
        limits = (repr(lim.max_abs_voltage), repr(lim.max_abs_current))
        for index, conn in enumerate((a, b)):
            bus.client_call(bus.BusCommand("SELECT", (str(index),)), conn)
            bus.client_call(bus.BusCommand("LIMITS", limits), conn)
        return ready, hello_s

    def stop(self):
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
        if self.stderr is not None:
            self.stderr.close()
            self.stderr = None

    def status_expected(self):
        lim = self.fx.limits
        return ("selected=1", "armed=0", "captures=0",
                f"limits={lim.max_abs_voltage!r} {lim.max_abs_current!r}", "waveform=none")

    def cycle(self, waveform):
        """One WAVEFORM/ARM/TRIG/READ cycle on connection A.
        Returns (seconds, TRIG reply, READ reply, bytes on the wire)."""
        from vcit import bus
        from workloads import cycle_commands, reply_bytes

        a = self.conns[0]
        start = time.perf_counter()
        commands = cycle_commands(waveform)
        replies = [bus.client_call(command, a) for command in commands]
        took = time.perf_counter() - start
        nbytes = sum(reply_bytes(c, r) for c, r in zip(commands, replies))
        return took, replies[2], replies[3], nbytes

    def status_once(self):
        from vcit import bus

        return bus.client_call(bus.BusCommand("STATUS"), self.conns[1])

    def drive(self, seconds=None, count=None, tracer=None, after_cycle=None):
        """Connection A runs cycles in a closed loop while connection B polls
        STATUS every STATUS_PERIOD_S (open loop, timed from when each poll
        was due).  ``after_cycle`` runs after each cycle, outside its time.
        Returns (cycles, polls, wall seconds, perf_counter time at the start
        of each cycle)."""
        from vcit.errors import VcitError
        from workloads import MIN_OPS

        stop = threading.Event()
        polls = []  # (seconds from due, seconds late at send, reply or exception)

        def poller():
            due = time.perf_counter()
            while not stop.is_set():
                if tracer is not None:
                    tracer.op = f"status-{len(polls)}"
                now = time.perf_counter()
                if now < due and stop.wait(due - now):
                    break
                sent = time.perf_counter()
                try:
                    reply = self.status_once()
                except (VcitError, OSError) as exc:
                    reply = exc
                polls.append((time.perf_counter() - due, sent - due, reply))
                due += STATUS_PERIOD_S

        thread = threading.Thread(target=poller, name="status-poller")
        thread.start()
        cycles = []  # (index, seconds, TRIG reply, READ reply, bytes) or (index, exc)
        starts = []
        start = time.perf_counter()
        try:
            i = 0
            while True:
                now = time.perf_counter()
                if count is not None:
                    if i >= count:
                        break
                elif (now - start >= seconds and i >= MIN_OPS) or now - start >= HARD_CAP_S:
                    break
                waveform = self.waveforms[i % len(self.waveforms)]
                if tracer is not None:
                    tracer.op = f"cycle-{i}"
                starts.append(time.perf_counter())
                try:
                    cycles.append((i,) + self.cycle(waveform))
                except (VcitError, OSError) as exc:
                    cycles.append((i, exc))
                if after_cycle is not None:
                    after_cycle()
                i += 1
        finally:
            wall = time.perf_counter() - start
            stop.set()
            thread.join(timeout=30)
        if thread.is_alive():
            raise RuntimeError("status poller did not stop")
        return cycles, polls, wall, starts

    def verify(self, cycles, polls):
        """READ blocks must equal format_capture of in-process execute on the
        same waveform and fixture; STATUS must show slot 1 untouched."""
        from workloads import expected_block

        problems, failed_cycles = [], 0
        oracle = {}
        for entry in cycles:
            i = entry[0]
            if len(entry) == 2:
                failed_cycles += 1
                problems.append(f"cycle {i}: {type(entry[1]).__name__}: {entry[1]}")
                continue
            _, _, trig, read, _ = entry
            waveform = self.waveforms[i % len(self.waveforms)]
            key = i % len(self.waveforms)
            if key not in oracle:
                oracle[key] = expected_block(waveform, self.fx.limits, self.fx.bench)
            n = str(len(waveform.target_pads))
            if read.block != oracle[key] or trig.payload != n or read.payload != n:
                failed_cycles += 1
                problems.append(f"cycle {i}: READ block differs from in-process execute")
        failed_polls = 0
        want = self.status_expected()
        for k, (_, _, reply) in enumerate(polls):
            if isinstance(reply, Exception) or reply.block != want:
                failed_polls += 1
                problems.append(f"status {k}: unexpected reply {reply!r}")
        return failed_cycles, failed_polls, problems, oracle


def bus_setup(seed, keep=True):
    """BUS_SETUPS set-ups (inputs, oracle fixture, server spawn to HELLO).
    With ``keep`` the last rig stays up.  Returns (rig or None, set-up
    seconds, serve-ready seconds)."""
    setups, readies = [], []
    rig = None
    for k in range(BUS_SETUPS):
        start = time.perf_counter()
        rig = BusRig(seed)
        try:
            ready, _ = rig.start()
        except BaseException:
            rig.stop()
            raise
        setups.append(time.perf_counter() - start)
        readies.append(ready)
        if not keep or k < BUS_SETUPS - 1:
            rig.stop()
    return (rig if keep else None), setups, readies


def run_bus_e2e(seed, seconds):
    """Cycle times are taken at nominal host speed, as on the in-process
    workloads, and the figures are over the whole run.  setup_s is the raw
    median spawn: a spawn's time does not follow the reference kernel's."""
    from hostspeed import HostSpeed

    speed = HostSpeed()
    rig, setups, readies = bus_setup(seed)
    speed.sample()
    try:
        rig.cycle(rig.waveforms[-1])  # warm-up
        cycles, polls, wall, starts = rig.drive(seconds=seconds, after_cycle=speed.sample)
    finally:
        rig.stop()
    # More set-ups after the loop, so that setup_s samples the machine at
    # both ends of the run.
    _, after, after_readies = bus_setup(seed, keep=False)
    setups += after
    readies += after_readies
    failed_cycles, failed_polls, problems, _ = rig.verify(cycles, polls)
    ok = [(c[1], t0) for c, t0 in zip(cycles, starts) if len(c) == 5]
    lat = [took for took, _ in ok]
    nominal = speed.nominal(lat, [t0 for _, t0 in ok])
    status = [p[0] for p in polls]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": quantile_ms(nominal, 0.5),
        "op_p90_ms": quantile_ms(nominal, 0.9),
        "ops_per_s": len(nominal) / sum(nominal) if nominal else 0.0,
        "peak_rss_mb": peak_rss_mb(children=True),
    }
    extra = {
        "status_p50_ms": (quantile_ms(status, 0.5), "ms"),
        "status_p90_ms": (quantile_ms(status, 0.9), "ms"),
        "status_late_p90_ms": (quantile_ms([p[1] for p in polls], 0.9), "ms"),
        "status_polls": (len(polls), "count"),
    }
    attempted = len(cycles) + len(polls)
    detail = {"cycles": len(cycles), "polls": len(polls), "wall_s": wall,
              "setup_times_s": setups, "serve_ready_s": readies, "problems": problems[:20],
              "latencies_s": lat, "reference_s": speed.took,
              "raw": {"setup_s": statistics.median(setups), "op_p50_ms": quantile_ms(lat, 0.5),
                      "op_p90_ms": quantile_ms(lat, 0.9), "ops_per_s": len(lat) / sum(lat) if lat else 0.0}}
    return metrics, attempted, failed_cycles + failed_polls, problems, detail, extra


# --- traced runs ----------------------------------------------------------------------

VERBS = ("WAVEFORM", "ARM", "TRIG", "READ", "STATUS")
# Metrics of the bus and the server; the in-process workloads never reach them.
BUS_METRICS = tuple(f"bus.client_call.{verb}.{q}" for verb in VERBS for q in ("p50_ms", "p90_ms")) + (
    "bus.bytes_per_cycle", "bus.err_replies", "bus.loopback_cycle_p50_ms", "bus.transport_ms",
    "bus.status_unloaded_p50_ms", "bus.status_p50_ms", "bus.status_p90_ms",
    "bus.status_late_p90_ms", "cli.serve_ready_s")


def session_counts(results):
    """Verdict counts and replay mismatches of run_session results."""
    from vcit import executive

    sessions = [r for r in results if not isinstance(r, Exception)]
    kinds = [verdict.kind for verdict, _ in sessions]
    m = {f"executive.verdicts.{kind}": kinds.count(kind) for kind in executive.VERDICT_KINDS}
    m["executive.replay_mismatch"] = sum(
        1 for verdict, events in sessions if executive.replay_verdict(events) != verdict.kind)
    return m


def paired_passes(w, count, tracer):
    """Run each op of a fixed list twice, untraced and under ``tracer``,
    alternating which goes first, so that both latencies of an op see the
    same machine.  Returns (ops, traced results, traced latencies, untraced
    latencies, ops whose two results differ)."""
    ops, results, lat, base, differ = [], [], [], [], []
    for i in range(count):
        op = w.op(i)
        tracer.op = i
        got = {}
        for traced in ((True, False) if i % 2 else (False, True)):
            if traced:
                tracer.__enter__()
            t0 = time.perf_counter()
            try:
                result = w.run(op)
            except Exception as exc:  # a raising op is counted as failed, not fatal
                result = exc
            took = time.perf_counter() - t0
            if traced:
                tracer.__exit__(None, None, None)
            got[traced] = result
            (lat if traced else base).append(took)
        ops.append(op)
        results.append(got[True])
        if not isinstance(got[True], Exception) and not isinstance(got[False], Exception) \
                and w.summary(got[True]) != w.summary(got[False]):
            differ.append(i)
    return ops, results, lat, base, differ


def traced_inproc(name, seed):
    """A fixed op list run untraced and with spans, op by op in pairs, then
    once more with the diode law and linear solve counted.  Returns (layer
    metrics, attempted, failed, problems, tracers)."""
    from spans import LawCounter, Tracer
    from workloads import SessionMix, WideBoard

    cls = SessionMix if name == "session-mix" else WideBoard
    count = TRACE_OPS[name]
    setup_tracer = Tracer()
    with setup_tracer:
        w = cls(seed)
    w.op(count - 1)
    w.run(w.op(0))  # warm-up
    tracer = Tracer()
    ops, results, lat, base, differ = paired_passes(w, count, tracer)
    laws = LawCounter()
    with laws:
        inproc_loop(w, count=count)
    failed, problems, _ = inproc_verify(w, ops, results, load_record(), seed)
    if differ:
        failed += len(differ)
        problems.append(f"ops {differ[:10]} changed their outcome under tracing")
    m = tracer.layer_metrics()
    m.update(laws.metrics())
    m["fixture.load_fixture.busy_s"] = setup_tracer.layer_metrics()["fixture.load_fixture.busy_s"]
    m.update(session_counts(results if name == "session-mix" else []))
    m.update(dict.fromkeys(BUS_METRICS, 0.0))
    m["trace.overhead_frac"] = quantile_ms(lat, 0.5) / quantile_ms(base, 0.5) - 1.0
    return m, count, failed, problems, [tracer]


def traced_bus(seed):
    """The bus loop run twice, untraced and with client-side spans; then the
    same waveforms through an in-process loopback farm, and the oracle's
    in-process execute once with spans and once with the diode law counted.
    Returns (layer metrics, attempted, failed, problems, tracers)."""
    from spans import LawCounter, Tracer
    from vcit import bus
    from vcit.errors import VcitError
    from workloads import cycle_commands

    count = TRACE_OPS["bus-tcp"]
    setup_tracer = Tracer()
    with setup_tracer:
        rig, _, readies = bus_setup(seed)
    problems, failed = [], 0
    client = Tracer()
    try:
        rig.cycle(rig.waveforms[-1])  # warm-up
        loaded, loaded_polls, _, _ = rig.drive(count=count)
        with client:
            traced, traced_polls, _, _ = rig.drive(count=count, tracer=client)
        unloaded = []
        for _ in range(UNLOADED_STATUS_POLLS):
            t0 = time.perf_counter()
            rig.status_once()
            unloaded.append(time.perf_counter() - t0)
    except (VcitError, OSError) as exc:
        problems.append(f"bus: {exc}")
        failed += 1
        loaded = traced = loaded_polls = traced_polls = unloaded = []
    finally:
        rig.stop()
    err_replies = attempted = 0
    for cycles, polls in ((loaded, loaded_polls), (traced, traced_polls)):
        err_replies += sum(1 for c in cycles if len(c) == 2 and isinstance(c[1], bus.BusError))
        err_replies += sum(1 for p in polls if isinstance(p[2], bus.BusError))
        attempted += len(cycles) + len(polls)
        fc, fp, found, _ = rig.verify(cycles, polls)
        failed += fc + fp
        problems.extend(found)

    # Loopback: the same command bytes through run_script on an in-process farm.
    lim = rig.fx.limits
    prefix = bus.BusCommand("SELECT", ("0",)).encode() + bus.BusCommand(
        "LIMITS", (repr(lim.max_abs_voltage), repr(lim.max_abs_current))).encode()
    farm = bus.ProberFarm(rig.fx.bench, 2)
    loop_lat = []
    for i in range(count):
        waveform = rig.waveforms[i]
        script = prefix + b"".join(c.encode() for c in cycle_commands(waveform))
        t0 = time.perf_counter()
        transcript = bus.run_script(farm, script)
        loop_lat.append(time.perf_counter() - t0)
        n = len(waveform.target_pads)
        want = f"OK\nOK\nOK\nOK\nOK {n}\nOK {n}\n".encode()
        if not transcript.startswith(want) or not transcript.endswith(b".\n"):
            failed += 1
            problems.append(f"loopback cycle {i}: unexpected transcript")

    # The server runs in another process, so the circuit and prober figures
    # of this workload come from the oracle's in-process execute of the same
    # waveforms.
    tracer = Tracer()
    with tracer:
        rig.verify(loaded, [])
    laws = LawCounter()
    with laws:
        rig.verify(loaded, [])
    m = tracer.layer_metrics()
    m.update(laws.metrics())
    m["fixture.load_fixture.busy_s"] = setup_tracer.layer_metrics()["fixture.load_fixture.busy_s"]
    m.update(session_counts([]))
    verbs = client.verb_latencies()
    for verb in VERBS:
        m[f"bus.client_call.{verb}.p50_ms"] = quantile_ms(verbs.get(verb, []), 0.5)
        m[f"bus.client_call.{verb}.p90_ms"] = quantile_ms(verbs.get(verb, []), 0.9)
    ok = [c for c in loaded if len(c) == 5]
    tcp_p50 = quantile_ms([c[1] for c in ok], 0.5)
    m["bus.bytes_per_cycle"] = statistics.mean(c[4] for c in ok) if ok else 0.0
    m["bus.err_replies"] = err_replies
    m["bus.loopback_cycle_p50_ms"] = quantile_ms(loop_lat, 0.5)
    m["bus.transport_ms"] = tcp_p50 - m["bus.loopback_cycle_p50_ms"]
    m["bus.status_unloaded_p50_ms"] = quantile_ms(unloaded, 0.5)
    m["bus.status_p50_ms"] = quantile_ms([p[0] for p in loaded_polls], 0.5)
    m["bus.status_p90_ms"] = quantile_ms([p[0] for p in loaded_polls], 0.9)
    m["bus.status_late_p90_ms"] = quantile_ms([p[1] for p in loaded_polls], 0.9)
    m["cli.serve_ready_s"] = statistics.median(readies)
    m["_tcp_cycle_p50_ms"] = tcp_p50
    m["trace.overhead_frac"] = (quantile_ms([c[1] for c in traced if len(c) == 5], 0.5) / tcp_p50 - 1.0
                                if tcp_p50 else 0.0)
    return m, attempted, failed, problems, [client, tracer]


def scaling_probe():
    """Untraced solve_dc on 3-, 30- and 300-pad ESD-pair boards, 1 mA into
    the first pad: median ms and Newton iterations per size, and the largest
    KCL residual of the probe's solves."""
    import kcl
    from vcit import circuit

    esd = circuit.EsdPair(circuit.DiodeModel(1e-14), circuit.DiodeModel(1e-14))
    m, worst = {}, 0.0
    for n, repeats in SCALING:
        uut = circuit.UutModel(tuple((f"p{i}", circuit.PadCircuit(esd)) for i in range(n)))
        contacts = {f"p{i}": circuit.ContactState(0.1) for i in range(n)}
        stimuli = {"p0": circuit.Stimulus("current", 1e-3)}
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = circuit.solve_dc(uut, contacts, stimuli)
            times.append(time.perf_counter() - t0)
        m[f"circuit.solve_dc_ms.n{n}"] = statistics.median(times) * 1e3
        m[f"circuit.newton_iters.n{n}"] = result.iterations
        worst = max(worst, kcl.residual(uut, contacts, stimuli, result))
    return m, worst


def run_traced(name, seed, per_layer_names):
    traced = traced_bus if name == "bus-tcp" else functools.partial(traced_inproc, name)
    m, attempted, failed, problems, tracers = traced(seed)
    probe, probe_residual = scaling_probe()
    m.update(probe)
    m["circuit.residual_max_a"] = max(m["circuit.residual_max_a"], probe_residual)
    if not m["circuit.residual_max_a"] < 1e-9:
        problems.append(f"KCL residual {m['circuit.residual_max_a']!r} A >= 1e-9 A")
        failed += 1
    if m["circuit.nonconvergence"] or m["executive.replay_mismatch"] or m["bus.err_replies"]:
        problems.append("non-convergence, replay mismatch or ERR reply in the traced run")
        failed += 1
    missing = [k for k in per_layer_names if m.get(k) is None]
    if missing:
        fail(f"traced run did not produce {missing}")
    OUT.mkdir(exist_ok=True)
    for k, tracer in enumerate(tracers):
        tracer.dump(OUT / f"{name}-s{seed}-spans{k}.jsonl")
    detail = {"problems": problems[:20],
              "internal": {k: v for k, v in m.items() if k.startswith("_")}}
    return {k: m[k] for k in per_layer_names}, attempted, failed, problems, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("session-mix", "wide-board", "bus-tcp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn SIGTERM into SystemExit so that finally blocks stop the server child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    # One BLAS thread, set before numpy loads, here and in the server child.
    # Two threads spin against each other and against any other load on a
    # small machine, and the thread count changes the rounding of the
    # solves, which record.json must not depend on.
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    import_program()
    from workloads import WORKLOADS

    if args.workload == "bus-tcp":
        # One CPU for this process, its threads and the server child, so that
        # the reference kernel of hostspeed.py runs where the server computes.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    extra = {}
    if args.trace:
        metrics, attempted, failed, problems, detail = run_traced(args.workload, args.seed, list(units))
    elif args.workload == "bus-tcp":
        metrics, attempted, failed, problems, detail, extra = run_bus_e2e(args.seed, args.seconds)
    else:
        metrics, attempted, failed, problems, detail = run_inproc_e2e(
            args.workload, args.seed, args.seconds)
    missing = set(units) - set(metrics)
    if missing:
        fail(f"run did not produce {sorted(missing)}")
    for name in units:
        if not math.isfinite(metrics[name]):
            problems.append(f"metric {name} is {metrics[name]!r}")
            metrics[name] = 0.0

    detail.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "meta": WORKLOADS[args.workload], "machine": machine(),
                   "metrics": metrics, "extra": {k: v[0] for k, v in extra.items()},
                   "attempted": attempted, "failed": failed})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8")

    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} attempted={attempted} failed={failed}")
    print(f"{'error_rate':40s} {failed / max(attempted, 1):.6g} ratio")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{name:40s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
