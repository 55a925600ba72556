"""Bus protocol tests: loopback scripts, transport equivalence (in-process
vs TCP), error atomicity, and the remote prober port."""

import io
import socket
import threading
import tracemalloc
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from vcit.bus import (
    ERR_EXECUTION,
    ERR_MALFORMED,
    MAX_LINE_BYTES,
    MAX_WAVEFORM_SAMPLES,
    ERR_OUT_OF_RANGE,
    ERR_SEQUENCE,
    ERR_UNKNOWN_VERB,
    PROTOCOL_VERSION,
    BusCommand,
    BusConnection,
    BusServer,
    ProberFarm,
    RemoteProber,
    client_call,
    run_script,
)
from vcit.errors import BusError, ProtocolError
from vcit.fixture import load_default_fixture
from vcit.prober import (
    CaptureRecord,
    ProtectionLimits,
    StimulusWaveform,
    execute,
    format_capture,
    parse_captures,
)


@pytest.fixture
def farm():
    return ProberFarm(load_default_fixture().bench, 3)


@pytest.fixture(scope="module")
def bench():
    return load_default_fixture().bench


# Over-limit input: each gets one ERR 400, its block consumed to ".".
LONG_LINE = b"LIMITS 2.0 " + b"0" * MAX_LINE_BYTES + b"5\n"
LONG_HEADER = b"WAVEFORM 1 current 0.001 p1" + b" " * MAX_LINE_BYTES + b"\n0.002\n.\n"
LONG_SAMPLE = b"WAVEFORM 1 current 0.001 p1\n0.00" + b"0" * MAX_LINE_BYTES + b"2\n.\n"
LONG_BLOCK = (
    f"WAVEFORM {MAX_WAVEFORM_SAMPLES + 1} current 0.001 p1\n".encode()
    + b"0.002\n" * (MAX_WAVEFORM_SAMPLES + 1)
    + b".\n"
)

FULL_SCRIPT = (
    b"HELLO\n"
    b"LIST\n"
    b"SELECT 0\n"
    b"LIMITS 2.0 0.05\n"
    b"WAVEFORM 3 current 0.001 p1\n"
    b"0.001\n0.001\n0.001\n.\n"
    b"ARM\n"
    b"STATUS\n"
    b"TRIG\n"
    b"READ\n"
    b"QUIT\n"
)


class TestLoopback:
    def test_hello(self, farm):
        assert run_script(farm, b"HELLO\nQUIT\n") == b"OK VCIT/1\nOK\n"

    def test_list(self, farm):
        assert run_script(farm, b"LIST\nQUIT\n") == b"OK 3\nOK\n"

    def test_full_sequence(self, farm):
        out = run_script(farm, FULL_SCRIPT).decode("ascii").splitlines()
        assert out[0] == f"OK {PROTOCOL_VERSION}"
        assert out[1] == "OK 3"
        assert out[2:5] == ["OK", "OK", "OK"]  # SELECT, LIMITS, WAVEFORM
        assert out[5] == "OK"  # ARM
        # STATUS block: armed, staged waveform echoed verbatim
        status_end = out.index(".", 6)
        status = out[7:status_end]
        assert "armed=1" in status
        assert "waveform=3 current 0.001 p1" in status
        assert status[-3:] == ["0.001", "0.001", "0.001"]
        assert out[status_end + 1] == "OK 1"  # TRIG: one capture
        read_line = out[status_end + 2]
        assert read_line == "OK 1"
        assert out[status_end + 3].startswith("capture p1 0.001 3 0 -")

    def test_select_out_of_range(self, farm):
        out = run_script(farm, b"SELECT 99\nQUIT\n")
        assert out.startswith(f"ERR {ERR_OUT_OF_RANGE} ".encode())

    def test_unknown_verb(self, farm):
        out = run_script(farm, b"FROB\nQUIT\n")
        assert out.startswith(f"ERR {ERR_UNKNOWN_VERB} ".encode())

    def test_malformed_select(self, farm):
        out = run_script(farm, b"SELECT a b\nQUIT\n")
        assert out.startswith(f"ERR {ERR_MALFORMED} ".encode())

    def test_commands_before_select_sequenced(self, farm):
        # A SELECT is asked for first, even of a command with stray arguments.
        for verb in (b"ARM", b"TRIG", b"READ", b"STATUS", b"LIMITS 1 1", b"ARM x", b"TRIG x",
                     b"READ x", b"STATUS x"):
            out = run_script(farm, verb + b"\nQUIT\n")
            assert out.startswith(f"ERR {ERR_SEQUENCE} ".encode()), verb

    def test_trig_before_arm(self, farm):
        script = (
            b"SELECT 0\nLIMITS 2.0 0.05\n"
            b"WAVEFORM 1 current 0.001 p1\n0.001\n.\n"
            b"TRIG\nQUIT\n"
        )
        out = run_script(farm, script).decode("ascii").splitlines()
        assert out[3].startswith(f"ERR {ERR_SEQUENCE} ")

    @staticmethod
    def last_block(transcript: bytes) -> list:
        """Lines of the final "."-terminated reply block in a transcript."""
        lines = transcript.decode("ascii").splitlines()
        end = len(lines) - 1 - lines[::-1].index(".")
        start = end
        while lines[start - 1] not in ("OK",) and not lines[start - 1].startswith("OK "):
            start -= 1
        return lines[start:end]

    def test_err_never_mutates_state(self, farm):
        stage = (
            b"SELECT 0\nLIMITS 2.0 0.05\n"
            b"WAVEFORM 1 current 0.001 p1\n0.001\n.\nARM\n"
        )
        before = self.last_block(run_script(farm, stage + b"STATUS\nQUIT\n"))
        farm2 = ProberFarm(load_default_fixture().bench, 3)
        # same staging, then a volley of rejected commands, then STATUS
        errs = (
            b"TRIG extra-arg\n"
            b"WAVEFORM 2 current 0.001 p1\n0.001\n.\n"       # count mismatch
            b"WAVEFORM 1 sideways 0.001 p1\n0.001\n.\n"      # bad mode
            b"LIMITS -1 0.05\n"
            b"SELECT 99\n"
            b"FROB\n"
        )
        after = self.last_block(run_script(farm2, stage + errs + b"STATUS\nQUIT\n"))
        assert before == after
        assert "armed=1" in after

    STAGE = b"SELECT 0\nLIMITS 2.0 0.05\nWAVEFORM 1 current 0.001 p1\n0.001\n.\nARM\n"

    @pytest.mark.parametrize(
        "bad",
        [
            b"\xff\n",
            b"WAVEFORM 1 current 0.001 p\xe9\n0.001\n.\n",
            b"WAVEFORM 1 current 0.001 p1\n0.0\xb91\n.\n",
            b"LIMITS inf inf\n",
            b"WAVEFORM 1 current inf p1\n0.001\n.\n",
            LONG_LINE,
            LONG_HEADER,
            LONG_SAMPLE,
            LONG_BLOCK,
            b"WAVEFORM 1 current fast p1\n0.001\n.\n",
            b"WAVEFORM 1 current 0.001 p1\n1e-3x\n.\n",
            b"WAVEFORM 1 current 0.001 p1\nnan\n.\n",
            b"WAVEFORM 0 current 0.001 p1\n.\n",
            b"WAVEFORM 1.0 current 0.001 p1\n0.001\n.\n",
            b"WAVEFORM 1 current 0.001\n0.001\n.\n",
            b"ARM x\n",
            b"TRIG x\n",
            b"READ x\n",
            b"STATUS x\n",
            b"LIMITS 1\n",
            b"SELECT a\n",
        ],
        ids=["non-ascii-line", "non-ascii-pad", "non-ascii-sample", "inf-limits", "inf-dt",
             "long-line", "long-waveform-header", "long-sample", "too-many-samples",
             "dt-not-number", "sample-not-number", "sample-nan", "no-samples", "count-not-int",
             "waveform-no-pads", "arm-arg", "trig-arg", "read-arg", "status-arg", "limits-one",
             "select-not-int"],
    )
    def test_rejected_command_one_ascii_err_state_kept(self, farm, bad):
        good = run_script(ProberFarm(load_default_fixture().bench, 3), self.STAGE + b"STATUS\nQUIT\n")
        out = run_script(farm, self.STAGE + bad + b"STATUS\nQUIT\n")
        staged = b"OK\n" * 4
        assert good.startswith(staged) and out.startswith(staged)
        err, rest = out[len(staged):].split(b"\n", 1)
        assert err.decode("ascii").startswith(f"ERR {ERR_MALFORMED} ")
        assert rest == good[len(staged):]  # one reply, and STATUS unchanged

    @given(
        st.sampled_from(["current", "voltage"]),
        st.floats(min_value=1e-9, max_value=10.0),
        st.lists(st.text("abcxyz019_-", min_size=1, max_size=6), min_size=1, max_size=3, unique=True),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_waveform_upload_matches_file_codec(self, bench, mode, dt, pads, samples):
        waveform = StimulusWaveform(mode, tuple(samples), dt, tuple(pads))
        texts = tuple(repr(s) for s in samples)
        upload = BusCommand("WAVEFORM", (str(len(texts)), mode, repr(dt), *pads), payload=texts)
        farm = ProberFarm(bench, 1)
        assert run_script(farm, b"SELECT 0\n" + upload.encode()) == b"OK\nOK\n"
        assert farm.slots[0].waveform == waveform

    @given(
        st.lists(
            st.sampled_from(
                [b"SELECT 0", b"WAVEFORM 1 current 0.001 p1", b"0.001", b".", b"LIMITS 2 0.05",
                 b"ARM", b"STATUS", b"READ"]
            )
            | st.binary(max_size=12).filter(lambda b: b"\n" not in b),
            max_size=10,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_get_ascii_replies(self, bench, lines):
        out = run_script(ProberFarm(bench, 1), b"".join(ln + b"\n" for ln in lines))
        assert out.isascii()

    def test_waveform_count_mismatch_rejected_stream_stays_aligned(self, farm):
        script = (
            b"SELECT 0\n"
            b"WAVEFORM 2 current 0.001 p1\n0.001\n.\n"
            b"HELLO\nQUIT\n"
        )
        out = run_script(farm, script).decode("ascii").splitlines()
        assert out[0] == "OK"
        assert out[1].startswith(f"ERR {ERR_MALFORMED} ")
        assert out[2] == f"OK {PROTOCOL_VERSION}"  # stream still aligned

    def test_longest_line_and_block_accepted(self, farm):
        sample = b"0.001" + b" " * (MAX_LINE_BYTES - 6) + b"\n"  # MAX_LINE_BYTES with its newline
        script = (
            f"SELECT 0\nWAVEFORM {MAX_WAVEFORM_SAMPLES} current 0.001 p1\n".encode()
            + sample * MAX_WAVEFORM_SAMPLES
            + b".\nQUIT\n"
        )
        assert run_script(farm, script) == b"OK\nOK\nOK\n"
        assert farm.slots[0].waveform.samples == (0.001,) * MAX_WAVEFORM_SAMPLES

    def test_trig_on_a_missing_pad_keeps_the_slot_armed(self, farm):
        stage = b"SELECT 0\nLIMITS 2.0 0.05\nWAVEFORM 1 current 0.001 zz\n0.001\n.\nARM\n"
        before = self.last_block(run_script(farm, stage + b"STATUS\nQUIT\n"))
        out = run_script(farm, b"SELECT 0\nTRIG\nSTATUS\nQUIT\n")
        assert out.startswith(b"OK\nERR 500 no such pad: 'zz'\n")
        after = self.last_block(out)
        assert after == before
        assert "armed=1" in after

    def test_farm_makes_a_slot_on_its_first_select(self, bench):
        tracemalloc.start()
        try:
            farm = ProberFarm(bench, 10**6)
            out = run_script(farm, b"LIST\nSELECT 999999\nSTATUS\nQUIT\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # a slot per prober up front would be ~137 MB
        assert out == (
            b"OK 1000000\nOK\nOK\n"
            b"selected=999999\narmed=0\ncaptures=0\nlimits=none\nwaveform=none\n.\nOK\n"
        )
        assert list(farm.slots) == [999999]

    def test_farm_needs_a_prober(self, bench):
        with pytest.raises(ValueError):
            ProberFarm(bench, 0)

    def test_selection_is_per_connection(self, farm):
        # connection A selects 1; a fresh connection still needs SELECT
        run_script(farm, b"SELECT 1\nQUIT\n")
        out = run_script(farm, b"STATUS\nQUIT\n")
        assert out.startswith(f"ERR {ERR_SEQUENCE} ".encode())

    def test_empty_line_malformed(self, farm):
        out = run_script(farm, b"\nQUIT\n")
        assert out.startswith(f"ERR {ERR_MALFORMED} ".encode())


class TestTcpTransport:
    def run_over_tcp(self, farm, script: bytes) -> bytes:
        server = BusServer(("127.0.0.1", 0), farm)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            with socket.create_connection((host, port)) as sock:
                sock.sendall(script)
                chunks = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    chunks.append(data)
            return b"".join(chunks)
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize(
        "script",
        [
            b"HELLO\nQUIT\n",
            FULL_SCRIPT,
            b"SELECT 99\nFROB\nSTATUS\nQUIT\n",
            b"SELECT 0\nWAVEFORM 2 current 0.001 p1\n0.001\n.\nHELLO\nQUIT\n",
            b"SELECT 0\n\xff\nWAVEFORM 1 current 0.001 p\xe9\n0.001\n.\nSTATUS\nQUIT\n",
            b"SELECT 0\n" + LONG_LINE + LONG_HEADER + LONG_SAMPLE + LONG_BLOCK + b"STATUS\nQUIT\n",
        ],
    )
    def test_transcripts_match_loopback_byte_for_byte(self, script):
        local = run_script(ProberFarm(load_default_fixture().bench, 3), script)
        remote = self.run_over_tcp(ProberFarm(load_default_fixture().bench, 3), script)
        assert local == remote


class TestClient:
    def client_pair(self, farm):
        server = BusServer(("127.0.0.1", 0), farm)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        conn = BusConnection.connect(host, port)
        return server, conn

    def test_call_ok_and_err(self, farm):
        server, conn = self.client_pair(farm)
        try:
            reply = client_call(BusCommand("HELLO"), conn)
            assert reply.ok and reply.payload == PROTOCOL_VERSION
            with pytest.raises(BusError) as exc:
                client_call(BusCommand("SELECT", ("99",)), conn)
            assert exc.value.code == ERR_OUT_OF_RANGE
        finally:
            conn.close()
            server.shutdown()
            server.server_close()

    def test_remote_prober_matches_local_execute(self, farm):
        fixture = load_default_fixture()
        limits = ProtectionLimits(2.0, 0.05)
        waveform = StimulusWaveform("current", (1e-3, 2e-3, 5e-3), 1e-3, ("p1", "p2"))
        local = execute(waveform, limits, fixture.bench)

        server, conn = self.client_pair(farm)
        try:
            prober = RemoteProber(conn, limits, index=0)
            remote = prober.execute(waveform)
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
        assert remote == local  # repr round trip preserves every float bit

    WAVEFORM = StimulusWaveform("current", (1e-3, 2e-3), 1e-3, ("p1", "p2"))
    SENT = WAVEFORM.samples

    @staticmethod
    def read_reply(*captures) -> bytes:
        """READ reply of captures given as (pad, applied) or (pad, applied, dt)."""
        block = "".join(
            format_capture(CaptureRecord(pid, dt, applied, (0.0,) * len(applied), (0.0,) * len(applied)))
            for pid, applied, dt in ((*c, 1e-3)[:3] for c in captures)
        )
        return f"OK {len(captures)}\n{block}.\n".encode("ascii")

    def scripted_execute(self, read_reply: bytes):
        """RemoteProber.execute of WAVEFORM against a server that answers
        SELECT, LIMITS, WAVEFORM, ARM and TRIG with OK, then READ with
        read_reply."""
        replies = b"OK\n" * 4 + b"OK 2\n" + read_reply
        connection = BusConnection(io.BytesIO(replies), io.BytesIO())
        return RemoteProber(connection, ProtectionLimits(2.0, 0.05)).execute(self.WAVEFORM)

    def test_remote_prober_accepts_read_matching_waveform(self):
        captures = self.scripted_execute(self.read_reply(("p1", self.SENT), ("p2", self.SENT)))
        assert [(c.pad_id, c.dt, c.applied) for c in captures] == [
            ("p1", 1e-3, self.SENT), ("p2", 1e-3, self.SENT)
        ]

    @pytest.mark.parametrize(
        "captures",
        [(), (("zz", SENT), ("p2", SENT)), (("p1", SENT[:1]), ("p2", SENT)),
         (("p2", SENT), ("p1", SENT)), (("p1", SENT),), (("p1", SENT), ("p2", SENT), ("p2", SENT)),
         (("p1", SENT), ("p2", (1e-3, 0.0020000000000000005))), (("p1", SENT, 2e-3), ("p2", SENT))],
        ids=["empty", "foreign-pad", "short", "swapped", "missing-pad", "extra-capture",
             "other-applied", "other-dt"],
    )
    def test_remote_prober_rejects_read_not_matching_waveform(self, captures):
        with pytest.raises(ProtocolError, match="READ reply"):
            self.scripted_execute(self.read_reply(*captures))

    def test_remote_prober_rejects_source_resistance(self, farm):
        server, conn = self.client_pair(farm)
        try:
            prober = RemoteProber(conn, ProtectionLimits(2.0, 0.05), index=0)
            with pytest.raises(ProtocolError):
                prober.execute(
                    StimulusWaveform("voltage", (1.0,), 1e-3, ("p1",), source_ohms=100.0)
                )
        finally:
            conn.close()
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize(
        "verb, reply",
        [("HELLO", b"OK \xff\n"), ("HELLO", b"OK " + b"x" * 5_000_000 + b"\n"),
         ("READ", b"OK 1\n" + b"x" * 5_000_000 + b"\n.\n"), ("HELLO", b"ERR x\n"),
         ("HELLO", b"HELLO\n"), ("READ", b"OK 1\ncapture p1 0.001 1 0 -\n")],
        ids=["non-ascii", "overlong", "overlong-block-line", "err-code-not-int", "neither-ok-nor-err",
             "eof-mid-reply"],
    )
    def test_reply_framing_errors_are_protocol_errors(self, verb, reply):
        rfile = io.BytesIO(reply)
        with pytest.raises(ProtocolError):
            client_call(BusCommand(verb), BusConnection(rfile, io.BytesIO()))
        assert rfile.tell() <= len(b"OK 1\n") + 2 * MAX_LINE_BYTES  # the bound, not the line

    def test_status_after_longest_waveform_header(self, farm):
        dt = "0.001" + "0" * (MAX_LINE_BYTES - len("WAVEFORM 1 current 0.001 p1\n"))
        waveform = BusCommand("WAVEFORM", ("1", "current", dt, "p1"), payload=("0.002",))
        assert waveform.encode().index(b"\n") + 1 == MAX_LINE_BYTES
        commands = (BusCommand("SELECT", ("0",)), waveform, BusCommand("STATUS"))
        transcript = run_script(farm, b"".join(c.encode() for c in commands))
        connection = BusConnection(io.BytesIO(transcript), io.BytesIO())
        replies = [client_call(c, connection) for c in commands]
        assert replies[2].block[-2:] == (f"waveform=1 current {dt} p1", "0.002")

    ROW = b"0.0 0.0 0.0\n"

    def test_read_block_longer_than_its_count_allows(self):
        # One capture is a header and at most MAX_WAVEFORM_SAMPLES rows: the
        # client stops one line past that, not at the 200 000th row.
        rfile = io.BytesIO(b"OK 1\n" + self.ROW * 200_000 + b".\n")
        most = 1 + MAX_WAVEFORM_SAMPLES
        with pytest.raises(ProtocolError, match=f"^READ reply block longer than {most} lines$"):
            client_call(BusCommand("READ"), BusConnection(rfile, io.BytesIO()))
        assert rfile.tell() == len(b"OK 1\n") + (most + 1) * len(self.ROW)

    @pytest.mark.parametrize("count", [1, 2])
    def test_longest_read_block_accepted(self, count):
        samples = (1e-3,) * MAX_WAVEFORM_SAMPLES
        captures = [CaptureRecord(f"p{i}", 1e-3, samples, samples, samples) for i in range(count)]
        reply = f"OK {count}\n{''.join(map(format_capture, captures))}.\n".encode("ascii")
        read = client_call(BusCommand("READ"), BusConnection(io.BytesIO(reply), io.BytesIO()))
        assert len(read.block) == count * (1 + MAX_WAVEFORM_SAMPLES)
        assert parse_captures(read.block) == captures

    @pytest.mark.parametrize("payload", [b"", b" 1", b"x", b"-1", b"+1", b"1.0", b"1_0", b"9" * 5000],
                             ids=["none", "space", "word", "negative", "plus", "float", "underscore",
                                  "too-many-digits"])
    def test_read_count_not_decimal(self, payload):
        reply = b"OK" + (b" " + payload if payload else b"") + b"\n" + self.ROW + b".\n"
        with pytest.raises(ProtocolError, match="^READ reply count is not a decimal count"):
            client_call(BusCommand("READ"), BusConnection(io.BytesIO(reply), io.BytesIO()))

    @pytest.mark.parametrize("extra", [0, 1], ids=["longest", "one-more"])
    def test_status_block_bound(self, extra):
        # Five lines and the staged waveform's samples.
        lines = 5 + MAX_WAVEFORM_SAMPLES + extra
        connection = BusConnection(io.BytesIO(b"OK\n" + b"0.002\n" * lines + b".\n"), io.BytesIO())
        if extra:
            with pytest.raises(ProtocolError, match=f"^STATUS reply block longer than {lines - 1} lines$"):
                client_call(BusCommand("STATUS"), connection)
        else:
            assert len(client_call(BusCommand("STATUS"), connection).block) == lines


def test_command_encoding():
    cmd = BusCommand("WAVEFORM", ("2", "current", "0.001", "p1"), payload=("0.001", "0.002"))
    assert cmd.encode() == b"WAVEFORM 2 current 0.001 p1\n0.001\n0.002\n.\n"
    assert BusCommand("HELLO").encode() == b"HELLO\n"


# --- a stateful model of the protocol ------------------------------------------

_MODEL_BENCH = load_default_fixture().bench
_MODEL_PROBERS = 3
WORD = st.text("abcxyz019.-_", min_size=1, max_size=6)
# Mostly no arguments, sometimes stray ones.
NO_ARGS = st.one_of(st.just([]), st.just([]), st.just([]), st.lists(WORD, min_size=1, max_size=2))
SELECT_OK = [["0"]] * 4 + [["1"], ["2"], ["+1"]]
SELECT_MALFORMED = [["x"], ["1.5"], [], ["0", "1"]]
SELECT_OUT = [["3"], ["-1"], ["99"]]
DT_OK, DT_BAD = ["0.001", "1e-4", "2.5e-3"], ["0", "-1e-3", "inf", "nan", "fast"]
SAMPLE_OK = ["0.001", "-0.002", "0", "-0.0", "0.5", "1e-5"]
SAMPLE_BAD = ["nan", "-inf", "1e-3x"]
# Sample lines refused as they are read, before any verb is looked at.
SAMPLE_UNREAD = ["0.0\xb91", "0.00" + "0" * MAX_LINE_BYTES + "2"]
WAVEFORM_FLAWS = ["mode", "count", "dt", "sample", "unread-sample", "no-samples", "no-pads", "same-pad"]
LIMIT_OK = [("2.0", "0.05"), ("1.5", "0.01"), ("0.5", "1e-3")]
LIMIT_BAD = [("2.0",), ("2.0", "0.05", "1"), ("x", "0.05"), ("0", "0.05"), ("2.0", "-1"), ("inf", "0.05"),
             ("2.0", "nan")]
# Lines that no verb gets to read, with the code of their one ERR reply.
GARBAGE = [(b"\n", ERR_MALFORMED), (b"  \t\r\n", ERR_MALFORMED), (b"HELLO \xff\n", ERR_MALFORMED),
           (b"SELECT 0\xc3\xa9\n", ERR_MALFORMED), (LONG_LINE, ERR_MALFORMED),
           (b"FROB 1\n", ERR_UNKNOWN_VERB), (b"hello\n", ERR_UNKNOWN_VERB)]


class _ModelSlot:
    """What a prober slot holds, as the reference model keeps it."""

    def __init__(self):
        self.header = None  # the WAVEFORM arguments, joined by spaces
        self.samples = ()  # the sample lines as sent
        self.waveform = None
        self.limits = None
        self.armed = False
        self.captures = None


def split_replies(transcript: bytes, verbs: list) -> list:
    """The transcript cut into one reply per command, given each command's
    verb: a status line, then for an OK to READ or STATUS its block through
    ".".  Fails when a command has no reply or a reply is left over."""
    lines = transcript.splitlines(keepends=True)
    replies = []
    for verb in verbs:
        reply = [lines.pop(0)]
        if verb in ("READ", "STATUS") and reply[0].startswith(b"OK"):
            while reply[-1] != b".\n":
                reply.append(lines.pop(0))
        replies.append(b"".join(reply))
    assert not lines
    return replies


def command(verb: str, args) -> bytes:
    return " ".join([verb, *args]).encode("ascii") + b"\n"


class BusProtocolModel(RuleBasedStateMachine):
    """Builds a command script of the ten verbs, valid and not, and after
    each command runs the script so far, then STATUS and QUIT, through
    run_script on a fresh farm.  Every command has exactly one ASCII reply,
    the earlier replies do not change, each reply and STATUS match a small
    model of the selected prober's slot, an ERR leaves STATUS byte for byte
    as it was, and READ reads what an in-process execute of the staged
    waveform gives."""

    def __init__(self):
        super().__init__()
        self.commands = []  # (raw bytes, verb)
        self.replies = []
        self.selected = None
        self.slots = {}
        self.status = self.expected_status()

    def expected_status(self) -> bytes:
        if self.selected is None:
            return b"ERR %d STATUS requires a prior SELECT\n" % ERR_SEQUENCE
        slot = self.slots[self.selected]
        lines = [f"selected={self.selected}", f"armed={int(slot.armed)}",
                 f"captures={0 if slot.captures is None else len(slot.captures)}",
                 "limits=none" if slot.limits is None
                 else f"limits={slot.limits.max_abs_voltage!r} {slot.limits.max_abs_current!r}",
                 "waveform=none" if slot.header is None else f"waveform={slot.header}", *slot.samples]
        return ("OK\n" + "".join(line + "\n" for line in lines) + ".\n").encode("ascii")

    def gate(self, verb: str, args) -> Optional[int]:
        """The ERR code a command on the selected slot gets before its own
        checks, or None."""
        if self.selected is None:
            return ERR_SEQUENCE
        if verb in ("ARM", "TRIG", "READ", "STATUS") and args:
            return ERR_MALFORMED
        return None

    def send(self, raw: bytes, verb: str, expected) -> Optional[_ModelSlot]:
        """Run the script with raw appended.  expected is the reply's bytes
        when it is an OK, or the code of its ERR.  Returns the model's
        selected slot after an OK, for the caller to update."""
        self.commands.append((raw, verb))
        script = b"".join(r for r, _ in self.commands) + b"STATUS\nQUIT\n"
        transcript = run_script(ProberFarm(_MODEL_BENCH, _MODEL_PROBERS), script)
        assert transcript.isascii()
        *earlier, reply, status, quit_reply = split_replies(
            transcript, [v for _, v in self.commands] + ["STATUS", "QUIT"])
        assert earlier == self.replies and quit_reply == b"OK\n"
        self.replies.append(reply)
        if isinstance(expected, int):
            assert reply.startswith(b"ERR %d " % expected) and reply.count(b"\n") == 1, reply[:200]
            assert status == self.status  # an ERR changes nothing
            return None
        assert reply == expected
        self.status = status
        return self.slots.get(self.selected)

    @invariant()
    def status_matches_the_model(self):
        assert self.status == self.expected_status()

    @initialize(args=st.sampled_from(SELECT_OK + [None]), steps=st.integers(0, 8),
                pads=st.sampled_from([["p1"], ["p2", "p3"], ["p3", "p1", "p2"]]))
    def start(self, args, steps, pads):
        """Most scripts start with a SELECT and the first steps of a run, so
        that ARM, TRIG and READ have something to act on; the longest go on
        to a TRIG on a pad the bench does not have."""
        if args is not None:
            self.select(args)
            run = [lambda: self.limits(LIMIT_OK[0]),
                   lambda: self.waveform("current", DT_OK[0], ["0.001", "0.5", "0.001"], pads, None, None),
                   lambda: self.arm([]), lambda: self.trig([]), lambda: self.read([]),
                   lambda: self.waveform("voltage", DT_OK[1], ["0.5"], ["p2", "ghost"], None, None),
                   lambda: self.arm([]), lambda: self.trig([])]
            for step in run[:steps]:
                step()

    @rule(verb=st.sampled_from(["HELLO", "LIST"]), args=st.lists(WORD, max_size=2))
    def hello_or_list(self, verb, args):
        # Neither reads its arguments.
        reply = PROTOCOL_VERSION if verb == "HELLO" else _MODEL_PROBERS
        self.send(command(verb, args), verb, f"OK {reply}\n".encode())

    @rule(args=st.sampled_from(SELECT_OK + SELECT_MALFORMED + SELECT_OUT))
    def select(self, args):
        if args in SELECT_MALFORMED:
            self.send(command("SELECT", args), "SELECT", ERR_MALFORMED)
        elif args in SELECT_OUT:
            self.send(command("SELECT", args), "SELECT", ERR_OUT_OF_RANGE)
        else:
            self.send(command("SELECT", args), "SELECT", b"OK\n")
            self.selected = int(args[0])
            self.slots.setdefault(self.selected, _ModelSlot())

    @rule(mode=st.sampled_from(["current", "voltage"]), dt=st.sampled_from(DT_OK),
          samples=st.lists(st.sampled_from(SAMPLE_OK), min_size=1, max_size=4),
          pads=st.lists(st.sampled_from(["p1", "p2", "p3"] * 3 + ["ghost"]), min_size=1, max_size=3,
                        unique=True),
          flaw=st.sampled_from([None] * len(WAVEFORM_FLAWS) + WAVEFORM_FLAWS), data=st.data())
    def waveform(self, mode, dt, samples, pads, flaw, data):
        """A valid upload, or one with a single flaw."""
        count = len(samples)
        if flaw == "mode":
            mode = "sideways"
        elif flaw == "count":
            count += data.draw(st.sampled_from([1, -1]))
        elif flaw == "dt":
            dt = data.draw(st.sampled_from(DT_BAD))
        elif flaw in ("sample", "unread-sample"):
            samples[data.draw(st.integers(0, count - 1))] = data.draw(
                st.sampled_from(SAMPLE_BAD if flaw == "sample" else SAMPLE_UNREAD))
        elif flaw == "no-samples":
            samples, count = [], 0
        elif flaw == "no-pads":
            pads = []
        elif flaw == "same-pad":
            pads = [*pads, pads[0]]
        args = [str(count), mode, dt, *pads]
        raw = command("WAVEFORM", args) + "".join(s + "\n" for s in samples).encode("latin-1") + b".\n"
        code = ERR_MALFORMED if flaw == "unread-sample" else self.gate("WAVEFORM", args)
        if code is None and flaw is not None:
            code = ERR_MALFORMED
        slot = self.send(raw, "WAVEFORM", b"OK\n" if code is None else code)
        if slot is not None:
            slot.header, slot.samples, slot.armed = " ".join(args), tuple(samples), False
            slot.waveform = StimulusWaveform(mode, tuple(map(float, samples)), float(dt), tuple(pads))

    @rule(args=st.sampled_from(LIMIT_OK * 3 + LIMIT_BAD))
    def limits(self, args):
        code = self.gate("LIMITS", args)
        if code is None and args not in LIMIT_OK:
            code = ERR_MALFORMED
        slot = self.send(command("LIMITS", args), "LIMITS", b"OK\n" if code is None else code)
        if slot is not None:
            slot.limits, slot.armed = ProtectionLimits(*map(float, args)), False

    @rule(args=NO_ARGS)
    def arm(self, args):
        code = self.gate("ARM", args)
        if code is None and None in (self.slots[self.selected].waveform, self.slots[self.selected].limits):
            code = ERR_SEQUENCE
        slot = self.send(command("ARM", args), "ARM", b"OK\n" if code is None else code)
        if slot is not None:
            slot.armed = True

    @rule(args=NO_ARGS)
    def trig(self, args):
        code = self.gate("TRIG", args)
        if code is None and not self.slots[self.selected].armed:
            code = ERR_SEQUENCE
        if code is None and "ghost" in self.slots[self.selected].waveform.target_pads:
            code = ERR_EXECUTION
        if code is not None:
            self.send(command("TRIG", args), "TRIG", code)
            return
        slot = self.slots[self.selected]
        captures = execute(slot.waveform, slot.limits, _MODEL_BENCH)
        self.send(command("TRIG", args), "TRIG", f"OK {len(captures)}\n".encode())
        slot.captures, slot.armed = captures, False

    @rule(args=NO_ARGS)
    def read(self, args):
        code = self.gate("READ", args)
        if code is None and self.slots[self.selected].captures is None:
            code = ERR_SEQUENCE
        if code is not None:
            self.send(command("READ", args), "READ", code)
            return
        captures = self.slots[self.selected].captures
        expected = f"OK {len(captures)}\n{''.join(map(format_capture, captures))}.\n".encode()
        self.send(command("READ", args), "READ", expected)

    @rule(args=NO_ARGS)
    def status(self, args):
        code = self.gate("STATUS", args)
        self.send(command("STATUS", args), "STATUS", self.expected_status() if code is None else code)

    @rule(line=st.sampled_from(GARBAGE))
    def garbage(self, line):
        raw, code = line
        self.send(raw, "", code)


BusProtocolModel.TestCase.settings = settings(max_examples=100, stateful_step_count=25, deadline=None)
TestBusProtocolModel = BusProtocolModel.TestCase
