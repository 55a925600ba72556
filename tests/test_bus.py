"""Bus protocol tests: loopback scripts, transport equivalence (in-process
vs TCP), error atomicity, and the remote prober port."""

import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcit.bus import (
    ERR_MALFORMED,
    MAX_LINE_BYTES,
    MAX_WAVEFORM_SAMPLES,
    ERR_OUT_OF_RANGE,
    ERR_SEQUENCE,
    ERR_UNKNOWN_VERB,
    PROTOCOL_VERSION,
    BusCommand,
    BusConnection,
    ProberFarm,
    RemoteProber,
    client_call,
    run_script,
    serve,
)
from vcit.errors import BusError, ProtocolError
from vcit.fixture import load_default_fixture
from vcit.prober import (
    ProtectionLimits,
    StimulusWaveform,
    execute,
    format_waveform,
    parse_waveform,
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
        for verb in (b"ARM", b"TRIG", b"READ", b"STATUS", b"LIMITS 1 1"):
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
        ],
        ids=["non-ascii-line", "non-ascii-pad", "non-ascii-sample", "inf-limits", "inf-dt",
             "long-line", "long-waveform-header", "long-sample", "too-many-samples"],
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
        assert farm.slots[0].waveform == parse_waveform(format_waveform(waveform)) == waveform

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
        server = serve(farm, ("127.0.0.1", 0))
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
        server = serve(farm, ("127.0.0.1", 0))
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


def test_command_encoding():
    cmd = BusCommand("WAVEFORM", ("2", "current", "0.001", "p1"), payload=("0.001", "0.002"))
    assert cmd.encode() == b"WAVEFORM 2 current 0.001 p1\n0.001\n0.002\n.\n"
    assert BusCommand("HELLO").encode() == b"HELLO\n"
