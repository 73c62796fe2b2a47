import json
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from fmqkd import channel
from fmqkd.channel import SocketEndpoint, connect
from fmqkd.cli import (
    EXIT_CHANNEL,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROTOCOL,
    main,
    parse_run_config,
)
from fmqkd.errors import ConfigError
from fmqkd.framing import QFrameWindowBack, QFrameWindowOut, SessionStart, encode_frame
from fmqkd.keyfile import read_key_file
from fmqkd.protocol import ProtocolVariant
from fmqkd.randomness import BitSource


BASE_CONFIG = """\
# reference-style run, shrunk for tests
variant = BB92
n_pulses = 20000
mu_pair = 0.2
seeds = 5, 6, 7
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_run_config_defaults_and_overrides(tmp_path):
    spec = parse_run_config(write_config(tmp_path))
    assert spec.session.n_pulses == 20000
    assert spec.session.variant is ProtocolVariant.BB92
    assert spec.session.setup.mu_pair == 0.2
    assert spec.session.setup.post_alice_loss_db == pytest.approx(10.0)
    assert spec.session.seeds.as_tuple() == (5, 6, 7)
    assert spec.channel_mode == "in_process"


def test_readme_run_config_example_parses_to_defaults(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Run config format", 1)[1].split("```\n", 2)[1]
    example = parse_run_config(write_config(tmp_path, block))
    assert example == parse_run_config(write_config(tmp_path, "", name="empty.cfg"))


def test_parse_run_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "bogus_key = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_run_config(path)
    assert ":6:" in str(err.value) and "bogus_key" in str(err.value)


def test_parse_run_config_rejects_bad_values(tmp_path):
    for line in ("variant = BB85", "seeds = 1,2", "channel = pigeon", "n_pulses = few",
                 "port = 0", "port = 65536"):
        path = write_config(tmp_path, BASE_CONFIG + line + "\n")
        with pytest.raises(ConfigError):
            parse_run_config(path)


def test_simulate_writes_report_and_keys(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "mu,measured_er,er_det_pred,er_opt_pred,sifted_bits,sift_rate_per_1000"
    row = report[1].split(",")
    assert row[0] == "0.2"
    assert float(row[2]) == pytest.approx(0.003479, abs=1e-5)
    assert float(row[3]) == pytest.approx(0.0014951, abs=1e-5)
    alice = read_key_file(out / "alice_key.qkdr")
    bob = read_key_file(out / "bob_key.qkdr")
    assert alice.size == bob.size == int(row[4])
    assert (out / "session.log").read_text().count("\n") == 1


def test_simulate_is_reproducible(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    for name in ("alice_key.qkdr", "bob_key.qkdr", "report.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_rejects_zero_pulses(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("n_pulses = 20000", "n_pulses = 0"))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_simulate_rejects_n_pulses_beyond_u64(tmp_path, capsys):
    text = BASE_CONFIG.replace("n_pulses = 20000", f"n_pulses = {2 ** 64}")
    code = main(["simulate", "--config", str(write_config(tmp_path, text)),
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "n_pulses" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["alice", "bob"])
def test_simulate_rejects_out_of_range_port(tmp_path, capsys, role):
    cfg = write_config(tmp_path, BASE_CONFIG + "channel = socket\nport = 70000\n")
    started = time.monotonic()
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--role", role])
    assert code == EXIT_CONFIG
    assert time.monotonic() - started < 2.0  # rejected before any connect retry
    err = capsys.readouterr().err
    assert str(cfg) in err and "port" in err


def test_simulate_role_needs_socket_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--role", "alice"])
    assert code == EXIT_CONFIG


def test_simulate_socket_config_needs_roles(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "channel = socket\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


def test_simulate_bob_connect_failure_is_channel_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "channel = socket\nport = 1\n")
    import fmqkd.cli as cli_mod
    import fmqkd.channel as chan_mod

    orig = chan_mod.connect

    def fast_fail(host, port, attempts=40, delay_s=0.25):
        return orig(host, port, attempts=1, delay_s=0.0)

    cli_mod.connect = fast_fail
    try:
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--role", "bob"])
    finally:
        cli_mod.connect = orig
    assert code == EXIT_CHANNEL


def test_keygen_single_block(tmp_path, capsys):
    out = tmp_path / "key.qkdr"
    assert main(["keygen", "--out", str(out), "--seed", "3"]) == EXIT_OK
    bits = read_key_file(out)
    assert bits.size == 65535
    # Seeded, so a second run is identical.
    out2 = tmp_path / "key2.qkdr"
    main(["keygen", "--out", str(out2), "--seed", "3"])
    assert out.read_bytes() == out2.read_bytes()


def test_keygen_multiple_blocks(tmp_path):
    out = tmp_path / "blocks"
    assert main(["keygen", "--out", str(out), "--bits", "1000", "--blocks", "3",
                 "--seed", "1"]) == EXIT_OK
    files = sorted(out.iterdir())
    assert [f.name for f in files] == ["block_000.qkdr", "block_001.qkdr", "block_002.qkdr"]
    blocks = [read_key_file(f) for f in files]
    assert all(b.size == 1000 for b in blocks)
    assert not np.array_equal(blocks[0], blocks[1])


def test_table_command_structure(tmp_path, capsys, monkeypatch):
    # Shrink the reference rows so the command runs in well under a second.
    import dataclasses

    import fmqkd.cli as cli_mod

    small = tuple(
        dataclasses.replace(row, desk_scale_pulses=40_000, sift_rate_tol=0.5)
        for row in cli_mod.REFERENCE_ROWS
    )
    monkeypatch.setattr(cli_mod, "REFERENCE_ROWS", small)
    out = tmp_path / "table.csv"
    assert main(["table1", "--out", str(out), "--seed", "27"]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == list(cli_mod.TABLE_COLUMNS)
    assert len(lines) == 3
    for line in lines[1:]:
        row = dict(zip(cli_mod.TABLE_COLUMNS, line.split(",")))
        assert row["sift_rate_pass"] in ("pass", "FAIL")
        assert float(row["er_det_pred"]) > 0.0
        # Predictions are recomputed, never copied from the reference column.
        assert row["er_det_pred"] != row["er_det_ref"]
    stdout = capsys.readouterr().out
    assert stdout.count("mu=") == 2


def test_analyze_outputs(capsys):
    assert main(["analyze", "--extinction-db", "30"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "visibility = 0.998002" in out
    assert "er_opt = 0.000999001" in out
    assert main(["analyze", "--mu", "0.1", "--loss-db", "10", "--eta", "0.1",
                 "--dark", "7e-6"]) == EXIT_OK
    assert "er_det = 0.00690681" in capsys.readouterr().out


def test_analyze_requires_arguments(capsys):
    assert main(["analyze"]) == EXIT_CONFIG
    assert main(["analyze", "--mu", "0.1"]) == EXIT_CONFIG
    assert main(["analyze", "--extinction-db", "-3"]) == EXIT_CONFIG


def test_fm_check_runs(capsys):
    assert main(["fm-check", "--samples", "100", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "faraday" in out and "ordinary" in out


def malformed_window_back():
    """A returned window whose second symbol (4) lies outside the alphabet."""
    frame = bytearray(encode_frame(QFrameWindowBack(
        0, 3, 0.1, np.zeros(3, np.uint8), (0.0, 0.0, 1.0, 0.0))))
    frame[-2] = 4
    return bytes(frame)


def test_simulate_bob_protocol_violation_exits_5_and_logs(tmp_path, capsys):
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    received = []

    def peer():
        conn, _ = listener.accept()
        endpoint = SocketEndpoint(conn)
        with conn:
            received.append(endpoint.recv())  # SESSION_START
            received.append(endpoint.recv())  # the first window
            conn.sendall(malformed_window_back())
            while conn.recv(4096):  # until Bob hangs up
                pass

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    cfg = write_config(tmp_path, BASE_CONFIG + f"channel = socket\nport = {port}\n")
    out = tmp_path / "bob"
    try:
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--role", "bob"])
    finally:
        thread.join(10)
        listener.close()
    assert code == EXIT_PROTOCOL
    assert "protocol error" in capsys.readouterr().err
    assert [type(m) for m in received] == [SessionStart, QFrameWindowOut]
    (line,) = (out / "session.log").read_text().splitlines()
    entry = json.loads(line)
    assert entry["role"] == "bob" and entry["error"].startswith("ProtocolViolationError")


def test_simulate_bob_stalled_peer_exits_3_and_logs(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(channel, "IDLE_TIMEOUT_S", 0.2)
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    release = threading.Event()

    def peer():  # accepts, then stays silent with the connection open
        conn, _ = listener.accept()
        with conn:
            release.wait(10)

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    cfg = write_config(tmp_path, BASE_CONFIG + f"channel = socket\nport = {port}\n")
    out = tmp_path / "bob"
    started = time.monotonic()
    try:
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--role", "bob"])
    finally:
        release.set()
        thread.join(10)
        listener.close()
    assert time.monotonic() - started < 5.0
    assert code == EXIT_CHANNEL
    (line,) = (out / "session.log").read_text().splitlines()
    entry = json.loads(line)
    assert entry["role"] == "bob" and "timed out" in entry["error"]


def test_simulate_alice_protocol_violation_exits_5_and_logs(tmp_path, capsys):
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    cfg = write_config(tmp_path, BASE_CONFIG + f"channel = socket\nport = {port}\n")
    out = tmp_path / "alice"
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(
        ["simulate", "--config", str(cfg), "--out", str(out), "--role", "alice"])),
        daemon=True)
    thread.start()
    endpoint = connect("127.0.0.1", port, delay_s=0.05)
    try:
        # A window before SESSION_START.
        endpoint.send(QFrameWindowOut(0, 3, 1e6, (1.0, 0.0, 0.0, 0.0)))
        thread.join(10)
    finally:
        endpoint.close()
    assert codes == [EXIT_PROTOCOL]
    assert "protocol error" in capsys.readouterr().err
    (line,) = (out / "session.log").read_text().splitlines()
    assert json.loads(line)["error"].startswith("ProtocolViolationError")


def test_bit_source_exhausted_exits_5(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(BitSource, "from_seed", classmethod(
        lambda cls, seed: BitSource.from_bits([0, 1] * 50)))
    code = main(["keygen", "--out", str(tmp_path / "k.qkdr"), "--bits", "1000"])
    assert code == EXIT_PROTOCOL
    assert "protocol error" in capsys.readouterr().err
