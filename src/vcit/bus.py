"""The prober control bus: N probers behind a line-delimited ASCII protocol.

One command per line, verb first, space-separated arguments.  Every command
yields exactly one reply.  Replies are `OK [payload]` or `ERR <code> <msg>`;
READ and STATUS replies carry a block of payload lines terminated by a lone
"." line.  WAVEFORM uploads a declared-count block of one-sample-per-line
decimal text, also "."-terminated.  The full byte-level grammar is in the
README.

An ERR reply never changes farm state: commands validate completely before
mutating.  Farm state is shared across connections with per-command mutual
exclusion; the selected-prober index is per connection.
"""

from __future__ import annotations

import io
import socket
import socketserver
import threading
from dataclasses import dataclass, field
from typing import Optional

from .circuit import Bench
from .errors import BusError, ProtocolError, SimulationFailure, UnknownPad, VcitError
from .prober import (
    ProtectionLimits,
    StimulusWaveform,
    execute,
    format_capture,
    parse_captures,
    waveform_from_fields,
)

PROTOCOL_VERSION = "VCIT/1"

ERR_MALFORMED = 400
ERR_UNKNOWN_VERB = 404
ERR_SEQUENCE = 409
ERR_OUT_OF_RANGE = 416
ERR_EXECUTION = 500

# Longest command or sample line read, in bytes with its newline, and the
# most samples one WAVEFORM block may carry.  A longer line or block is
# still consumed to its end, then answered with one ERR 400; nothing of it
# is stored.
MAX_LINE_BYTES = 4096
MAX_WAVEFORM_SAMPLES = 4096

_BLOCK_VERBS = ("READ", "STATUS")
_VERBS = ("HELLO", "LIST", "SELECT", "WAVEFORM", "LIMITS", "ARM", "TRIG", "READ", "STATUS", "QUIT")


@dataclass(frozen=True, slots=True)
class BusCommand:
    verb: str
    args: tuple = ()
    payload: tuple = ()  # sample lines for WAVEFORM

    def encode(self) -> bytes:
        line = " ".join([self.verb, *self.args]).strip()
        out = line + "\n"
        if self.verb == "WAVEFORM":
            out += "".join(s + "\n" for s in self.payload) + ".\n"
        return out.encode("ascii")


@dataclass(frozen=True, slots=True)
class BusReply:
    ok: bool
    payload: str = ""
    block: tuple = ()
    code: Optional[int] = None


class _Slot:
    """One prober's staged state."""

    def __init__(self):
        self.waveform: Optional[StimulusWaveform] = None
        self.raw_samples: tuple = ()
        self.raw_header: str = ""
        self.limits: Optional[ProtectionLimits] = None
        self.armed: bool = False
        self.captures: Optional[tuple] = None

    def status_lines(self, index: int) -> list:
        lines = [
            f"selected={index}",
            f"armed={1 if self.armed else 0}",
            f"captures={0 if self.captures is None else len(self.captures)}",
        ]
        if self.limits is None:
            lines.append("limits=none")
        else:
            lines.append(f"limits={self.limits.max_abs_voltage!r} {self.limits.max_abs_current!r}")
        if self.waveform is None:
            lines.append("waveform=none")
        else:
            lines.append(f"waveform={self.raw_header}")
            lines.extend(self.raw_samples)
        return lines


class ProberFarm:
    """N probers sharing one simulated bench."""

    def __init__(self, bench: Bench, count: int):
        if count < 1:
            raise ValueError("farm needs at least one prober")
        self.bench = bench
        self.slots = [_Slot() for _ in range(count)]
        self.lock = threading.Lock()

    def __len__(self):
        return len(self.slots)


class _Session:
    def __init__(self):
        self.selected: Optional[int] = None


def _err(code: int, message: str) -> BusReply:
    return BusReply(ok=False, payload=message, code=code)


def _handle(farm: ProberFarm, session: _Session, verb: str, args: list, payload) -> BusReply:
    if verb == "HELLO":
        return BusReply(ok=True, payload=PROTOCOL_VERSION)
    if verb == "LIST":
        return BusReply(ok=True, payload=str(len(farm)))
    if verb == "QUIT":
        return BusReply(ok=True)
    if verb == "SELECT":
        if len(args) != 1:
            return _err(ERR_MALFORMED, "SELECT takes one index")
        try:
            index = int(args[0])
        except ValueError:
            return _err(ERR_MALFORMED, f"bad index {args[0]!r}")
        if not 0 <= index < len(farm):
            return _err(ERR_OUT_OF_RANGE, f"index {index} outside [0, {len(farm)})")
        session.selected = index
        return BusReply(ok=True)

    if session.selected is None:
        return _err(ERR_SEQUENCE, f"{verb} requires a prior SELECT")
    slot = farm.slots[session.selected]

    if verb == "WAVEFORM":
        if len(args) < 4:
            return _err(ERR_MALFORMED, "WAVEFORM takes: count mode dt pads...")
        try:
            count = int(args[0])
        except ValueError:
            return _err(ERR_MALFORMED, f"bad WAVEFORM count {args[0]!r}")
        if count != len(payload):
            return _err(ERR_MALFORMED, f"declared {count} samples, got {len(payload)}")
        try:
            waveform = waveform_from_fields(args[1], args[2], args[3:], payload)
        except ProtocolError as exc:
            return _err(ERR_MALFORMED, str(exc))
        slot.waveform = waveform
        slot.raw_samples = tuple(payload)
        slot.raw_header = " ".join(args)
        slot.armed = False
        return BusReply(ok=True)

    if verb == "LIMITS":
        if len(args) != 2:
            return _err(ERR_MALFORMED, "LIMITS takes: max_abs_voltage max_abs_current")
        try:
            limits = ProtectionLimits(float(args[0]), float(args[1]))
        except ValueError as exc:
            return _err(ERR_MALFORMED, str(exc))
        slot.limits = limits
        slot.armed = False
        return BusReply(ok=True)

    if verb == "ARM":
        if args:
            return _err(ERR_MALFORMED, "ARM takes no arguments")
        if slot.waveform is None or slot.limits is None:
            return _err(ERR_SEQUENCE, "ARM requires a staged waveform and limits")
        slot.armed = True
        return BusReply(ok=True)

    if verb == "TRIG":
        if args:
            return _err(ERR_MALFORMED, "TRIG takes no arguments")
        if not slot.armed:
            return _err(ERR_SEQUENCE, "TRIG requires a prior ARM")
        try:
            captures = execute(slot.waveform, slot.limits, farm.bench)
        except (UnknownPad, SimulationFailure) as exc:
            return _err(ERR_EXECUTION, str(exc))
        slot.captures = tuple(captures)
        slot.armed = False
        return BusReply(ok=True, payload=str(len(captures)))

    if verb == "READ":
        if args:
            return _err(ERR_MALFORMED, "READ takes no arguments")
        if slot.captures is None:
            return _err(ERR_SEQUENCE, "READ requires a prior TRIG")
        block = []
        for capture in slot.captures:
            block.extend(format_capture(capture).splitlines())
        return BusReply(ok=True, payload=str(len(slot.captures)), block=tuple(block))

    if verb == "STATUS":
        if args:
            return _err(ERR_MALFORMED, "STATUS takes no arguments")
        return BusReply(ok=True, block=tuple(slot.status_lines(session.selected)))

    return _err(ERR_UNKNOWN_VERB, f"unknown verb {verb!r}")


def _write_reply(wfile, verb: str, reply: BusReply):
    if reply.ok:
        line = "OK" + (f" {reply.payload}" if reply.payload else "")
    else:
        line = f"ERR {reply.code} {reply.payload}"
    wfile.write((line + "\n").encode("ascii"))
    if reply.ok and verb in _BLOCK_VERBS:
        for ln in reply.block:
            wfile.write((ln + "\n").encode("ascii"))
        wfile.write(b".\n")
    wfile.flush()


def _read_bounded_line(rfile):
    """(line, problem) for the next line of at most MAX_LINE_BYTES; a longer
    line is read to its end and comes back cut, with a problem set."""
    raw = rfile.readline(MAX_LINE_BYTES)
    problem = None
    if len(raw) == MAX_LINE_BYTES and not raw.endswith(b"\n"):
        problem = f"line longer than {MAX_LINE_BYTES} bytes"
        while True:
            rest = rfile.readline(MAX_LINE_BYTES)
            if not rest or rest.endswith(b"\n"):
                break
    if problem is None and not raw.isascii():
        # Replies and the STATUS echo are ASCII, so nothing non-ASCII may be
        # echoed or stored.
        problem = "non-ASCII byte in command"
    return raw, problem


def serve_connection(farm: ProberFarm, rfile, wfile):
    """Process one connection's command stream until QUIT or EOF.

    rfile/wfile are binary file-like objects.  Identical command scripts
    yield identical reply transcripts regardless of transport.
    """
    session = _Session()
    while True:
        raw, problem = _read_bounded_line(rfile)
        if not raw:
            return
        parts = raw.decode("ascii", errors="replace").split()
        if not parts:
            _write_reply(wfile, "", _err(ERR_MALFORMED, problem or "empty command line"))
            continue
        verb, args = parts[0], parts[1:]
        payload = None
        if verb == "WAVEFORM":
            # Consume the sample block up front so a rejected upload leaves
            # the stream aligned on the next command.
            payload = []
            while True:
                sample_raw, sample_problem = _read_bounded_line(rfile)
                if not sample_raw:
                    return
                sample = sample_raw.decode("ascii", errors="replace").rstrip("\r\n")
                if sample == ".":
                    break
                if len(payload) == MAX_WAVEFORM_SAMPLES:
                    sample_problem = f"more than {MAX_WAVEFORM_SAMPLES} samples"
                problem = problem or sample_problem
                if problem is None:
                    payload.append(sample)
        if problem is not None:
            _write_reply(wfile, verb, _err(ERR_MALFORMED, problem))
            continue
        if verb not in _VERBS:
            _write_reply(wfile, verb, _err(ERR_UNKNOWN_VERB, f"unknown verb {verb!r}"))
            continue
        with farm.lock:
            reply = _handle(farm, session, verb, args, payload)
        _write_reply(wfile, verb, reply)
        if verb == "QUIT" and reply.ok:
            return


def run_script(farm: ProberFarm, script: bytes) -> bytes:
    """In-process loopback transport: feed a raw command script, return the
    reply transcript."""
    rfile = io.BytesIO(script)
    wfile = io.BytesIO()
    serve_connection(farm, rfile, wfile)
    return wfile.getvalue()


class BusServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, farm: ProberFarm):
        self.farm = farm
        super().__init__(address, _BusHandler)


class _BusHandler(socketserver.StreamRequestHandler):
    def handle(self):
        serve_connection(self.server.farm, self.rfile, self.wfile)


def serve(farm: ProberFarm, address) -> BusServer:
    """Bind a stream-socket server for the farm; caller runs serve_forever()."""
    return BusServer(address, farm)


# --- client side ------------------------------------------------------------

class BusConnection:
    """Client end of a bus connection over binary streams."""

    def __init__(self, rfile, wfile, sock: Optional[socket.socket] = None):
        self.rfile = rfile
        self.wfile = wfile
        self._sock = sock

    @classmethod
    def connect(cls, host: str, port: int) -> "BusConnection":
        sock = socket.create_connection((host, port))
        return cls(sock.makefile("rb"), sock.makefile("wb"), sock)

    def close(self):
        try:
            self.rfile.close()
            self.wfile.close()
        finally:
            if self._sock is not None:
                self._sock.close()

    def _read_line(self) -> str:
        raw = self.rfile.readline()
        if not raw:
            raise ProtocolError("connection closed mid-reply")
        return raw.decode("ascii").rstrip("\r\n")


def client_call(command: BusCommand, connection: BusConnection) -> BusReply:
    """Send one command, await exactly one reply.

    ERR replies surface as BusError; transport or framing problems as
    ProtocolError.
    """
    connection.wfile.write(command.encode())
    connection.wfile.flush()
    status = connection._read_line()
    if status.startswith("ERR "):
        parts = status.split(" ", 2)
        try:
            code = int(parts[1])
        except (IndexError, ValueError):
            raise ProtocolError(f"unparseable reply: {status!r}") from None
        raise BusError(code, parts[2] if len(parts) > 2 else "")
    if status != "OK" and not status.startswith("OK "):
        raise ProtocolError(f"unparseable reply: {status!r}")
    payload = status[3:] if status.startswith("OK ") else ""
    block = []
    if command.verb in _BLOCK_VERBS:
        while True:
            line = connection._read_line()
            if line == ".":
                break
            block.append(line)
    return BusReply(ok=True, payload=payload, block=tuple(block))


class RemoteProber:
    """Prober port driving one farm slot over the bus; drop-in for the
    executive's local prober."""

    def __init__(self, connection: BusConnection, limits: ProtectionLimits, index: int = 0):
        self.connection = connection
        self.limits = limits
        self.index = index
        client_call(BusCommand("SELECT", (str(index),)), connection)
        client_call(
            BusCommand("LIMITS", (repr(limits.max_abs_voltage), repr(limits.max_abs_current))),
            connection,
        )

    def execute(self, waveform: StimulusWaveform) -> list:
        if waveform.source_ohms != 0.0:
            raise ProtocolError("bus waveforms carry no source resistance")
        samples = tuple(repr(s) for s in waveform.samples)
        args = (str(len(samples)), waveform.mode, repr(waveform.dt), *waveform.target_pads)
        client_call(BusCommand("WAVEFORM", args, payload=samples), self.connection)
        client_call(BusCommand("ARM"), self.connection)
        client_call(BusCommand("TRIG"), self.connection)
        reply = client_call(BusCommand("READ"), self.connection)
        return parse_captures(reply.block)
