import argparse
import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from field_inputs import window_back, window_out
from fmqkd import channel, cli
from fmqkd.channel import connect
from fmqkd.cli import (
    EXIT_CHANNEL,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_PROTOCOL,
    FM_CHECK_MAX_SAMPLES,
    build_parser,
    main,
    parse_run_config,
)
from fmqkd.errors import ConfigError
from fmqkd.framing import (
    TERMINATE_CONFIG_MISMATCH,
    QFrameWindowOut,
    SessionStart,
    Terminate,
    encode_frame,
)
from fmqkd.keyfile import MAX_BITS, read_key_file
from fmqkd.protocol import ProtocolVariant
from fmqkd.randomness import BitSource
from sessions import RawPeer, child_env, free_port, in_thread


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


def log_entries(out):
    return [json.loads(line) for line in (out / "session.log").read_text().splitlines()]


def test_package_import_loads_no_submodule_and_no_numpy():
    # The package under test first on the path, as for the CLI's children.
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import fmqkd, sys; print(fmqkd.__file__); "
            "print(sorted(m for m in sys.modules if m.startswith('fmqkd.') or m == 'numpy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == [str(Path(src) / "fmqkd" / "__init__.py"), "[]"]


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


# sha256 of both key files of the BASE_CONFIG run; Alice and Bob hold the same key.
BASE_CONFIG_KEY_SHA256 = "3aa84ef89f1d0a5373e3011730409f54318091e9e74c0ef1b4335ad2139f6fbc"


def test_simulate_outputs_are_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_config(tmp_path)),
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "simulate: 20 sifted bits, measured ER 0, sift rate 1 per 1000 pulses\n")
    assert (out / "report.csv").read_text().splitlines()[1] == "0.2,0,0.00347915,0.00149515,20,1"
    for name in ("alice_key.qkdr", "bob_key.qkdr"):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == BASE_CONFIG_KEY_SHA256
    (entry,) = log_entries(out)
    assert "error" not in entry
    assert entry["role"] == "both" and entry["sifted_bits"] == 20


def test_simulate_duration_survives_a_wall_clock_step_back(tmp_path, monkeypatch):
    # Every time.time() reading is an hour before the last: a duration taken
    # from two of them would be negative; time.monotonic() cannot step back.
    wall = iter(range(2_000_000_000, 0, -3600))
    monkeypatch.setattr(time, "time", lambda: float(next(wall)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(out)]) == EXIT_OK
    (entry,) = log_entries(out)
    assert entry["duration_s"] >= 0


@pytest.mark.parametrize("command", ["simulate", "table1"])
def test_text_files_are_read_and_written_as_utf8(tmp_path, command):
    # -X warn_default_encoding warns at each text file opened in the locale's
    # encoding, and -W error::EncodingWarning turns that warning into a traceback.
    args = {"simulate": ["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")],
            "table1": ["--seed", "27", "--out", str(tmp_path / "table.csv")]}[command]
    run = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W",
                          "error::EncodingWarning", "-m", "fmqkd.cli", command, *args],
                         env=child_env(), capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (EXIT_OK, "")


def test_simulate_in_process_failure_logs_one_line(tmp_path, capsys):
    # Ten pulses leave no comparable bits, so no report can be written.
    cfg = write_config(tmp_path, BASE_CONFIG.replace("n_pulses = 20000", "n_pulses = 10"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "no comparable bits" in capsys.readouterr().err
    (entry,) = log_entries(out)
    assert entry["role"] == "both" and entry["clicks"] == 0
    assert entry["error"].startswith("ConfigError: session produced no comparable bits")
    assert sorted(path.name for path in out.iterdir()) == ["session.log"]


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
    (entry,) = log_entries(tmp_path / "x")
    assert entry["role"] == "alice" and entry["error"].startswith("ConfigError: --role alice")


def test_simulate_socket_config_needs_roles(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "channel = socket\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    (entry,) = log_entries(tmp_path / "x")
    assert entry["role"] == "both" and entry["error"].startswith("ConfigError: --role both")


def test_simulate_bob_connect_failure_is_channel_error(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, BASE_CONFIG + "channel = socket\nport = 1\n")
    monkeypatch.setattr(channel, "IDLE_TIMEOUT_S", 0.05)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--role", "bob"])
    assert code == EXIT_CHANNEL
    (entry,) = log_entries(tmp_path / "x")
    assert entry["role"] == "bob" and entry["error"].startswith("ChannelError")


def test_keygen_single_block(tmp_path, capsys):
    out = tmp_path / "key.qkdr"
    assert main(["keygen", "--out", str(out), "--seed", "3"]) == EXIT_OK
    bits = read_key_file(out)
    assert bits.size == 65535
    # Seeded, so a second run is identical.
    out2 = tmp_path / "key2.qkdr"
    main(["keygen", "--out", str(out2), "--seed", "3"])
    assert out.read_bytes() == out2.read_bytes()


def test_keygen_output_is_pinned(tmp_path):
    out = tmp_path / "key.qkdr"
    assert main(["keygen", "--out", str(out), "--bits", "65535", "--seed", "9"]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d884bbee84abb30c8223169dc1088cc9c97d92ad3cffc8c47d4ccd5150419ecb")


def test_keygen_multiple_blocks(tmp_path):
    out = tmp_path / "blocks"
    assert main(["keygen", "--out", str(out), "--bits", "1000", "--blocks", "3",
                 "--seed", "1"]) == EXIT_OK
    files = sorted(out.iterdir())
    assert [f.name for f in files] == ["block_000.qkdr", "block_001.qkdr", "block_002.qkdr"]
    blocks = [read_key_file(f) for f in files]
    assert all(b.size == 1000 for b in blocks)
    assert not np.array_equal(blocks[0], blocks[1])


def test_keygen_rejects_bit_counts_beyond_the_key_file_format(tmp_path, monkeypatch, capsys):
    def refuse(self, n):
        raise AssertionError("no bit may be drawn")

    monkeypatch.setattr(BitSource, "take", refuse)
    out = tmp_path / "k.qkdr"
    for n in (0, MAX_BITS + 1, 2 ** 40):
        assert main(["keygen", "--out", str(out), "--bits", str(n)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(MAX_BITS) in err
    assert not out.exists()


def test_keygen_into_a_missing_directory_exits_4(tmp_path, capsys):
    out = tmp_path / "missing" / "x.qkdr"
    assert main(["keygen", "--out", str(out), "--bits", "8"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: [Errno 2] No such file or directory") and str(out) in err
    assert not out.parent.exists()


def test_table_command_structure(tmp_path, capsys, monkeypatch):
    # Shrink the reference rows so the command runs in well under a second.
    import fmqkd.cli as cli_mod

    small = tuple(row._replace(desk_scale_pulses=40_000) for row in cli_mod.REFERENCE_ROWS)
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


def test_table1_outputs_are_pinned(tmp_path, capsys):
    # Both reference rows at desk scale, 4M pulses each, batched in blocks.
    out = tmp_path / "table.csv"
    assert main(["table1", "--out", str(out), "--seed", "27"]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8c3d3042d1dedc5ff8ee09e0b49977a4770952d91834d57a31553db67168c94a")
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "b36ddf56e9d739f16a214b92d4955cb9cd11cfd94941c2849e133189fb503b61")


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


def test_fm_check_output_is_pinned(capsys):
    assert main(["fm-check", "--samples", "2000", "--seed", "3"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "samples: 2000, extinction 30 dB -> max visibility 0.998002\n"
        "faraday   min 0.998002  mean 0.998002  max 0.998002  below-0.9 0\n"
        "ordinary  min 0.0193021  mean 0.829909  max 0.998002  below-0.9 0.457\n"
    )


def test_fm_check_rejects_sample_counts_outside_the_cap(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("visibility_samples must not run")

    monkeypatch.setattr(cli, "visibility_samples", refuse)
    for n in (0, FM_CHECK_MAX_SAMPLES + 1, 10 ** 10):
        assert main(["fm-check", "--samples", str(n)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(FM_CHECK_MAX_SAMPLES) in err


def malformed_window_back():
    """A returned window whose second symbol (4) lies outside the alphabet."""
    frame = bytearray(encode_frame(window_back(np.zeros(3, np.uint8), mean_photons=0.1)))
    frame[-2] = 4
    return bytes(frame)


def test_simulate_bob_protocol_violation_exits_5_and_logs(tmp_path, capsys):
    # The peer reads SESSION_START and the first window, then answers that window.
    with RawPeer(malformed_window_back(), reads=2) as peer:
        cfg = write_config(tmp_path, BASE_CONFIG + f"channel = socket\nport = {peer.port}\n")
        out = tmp_path / "bob"
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--role", "bob"])
    assert code == EXIT_PROTOCOL
    assert "protocol error" in capsys.readouterr().err
    assert [type(m) for m in peer.received] == [SessionStart, QFrameWindowOut]
    (entry,) = log_entries(out)
    assert entry["role"] == "bob" and entry["error"].startswith("ProtocolViolationError")


def test_simulate_bob_stalled_peer_exits_3_and_logs(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(channel, "IDLE_TIMEOUT_S", 0.2)
    with RawPeer() as peer:  # accepts, then stays silent with the connection open
        cfg = write_config(tmp_path, BASE_CONFIG + f"channel = socket\nport = {peer.port}\n")
        out = tmp_path / "bob"
        started = time.monotonic()
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--role", "bob"])
    assert time.monotonic() - started < 5.0
    assert code == EXIT_CHANNEL
    (entry,) = log_entries(out)
    assert entry["role"] == "bob" and "timed out" in entry["error"]


@contextlib.contextmanager
def cli_alice(tmp_path, out, monkeypatch):
    """A client endpoint of ``simulate --role alice`` on ``BASE_CONFIG``, run in a
    thread that writes to ``out``, and the list it appends its exit code to."""
    port = free_port()
    cfg = write_config(tmp_path, BASE_CONFIG + f"channel = socket\nport = {port}\n")
    codes = []
    argv = ["simulate", "--config", str(cfg), "--out", str(out), "--role", "alice"]
    monkeypatch.setattr(channel, "CONNECT_DELAY_S", 0.05)
    with in_thread(lambda: codes.append(main(argv)), timeout=10):
        endpoint = connect("127.0.0.1", port)
        try:
            yield endpoint, codes
        finally:
            endpoint.close()


def test_simulate_alice_protocol_violation_exits_5_and_logs(tmp_path, capsys, monkeypatch):
    out = tmp_path / "alice"
    with cli_alice(tmp_path, out, monkeypatch) as (endpoint, codes):
        # A window before SESSION_START.
        endpoint.send(window_out(0, 3))
    assert codes == [EXIT_PROTOCOL]
    assert "protocol error" in capsys.readouterr().err
    (entry,) = log_entries(out)
    assert entry["error"].startswith("ProtocolViolationError")


def test_simulate_alice_config_mismatch_exits_2_and_logs(tmp_path, capsys, monkeypatch):
    out = tmp_path / "alice"
    with cli_alice(tmp_path, out, monkeypatch) as (endpoint, codes):
        # The session Alice expects, but committed to other seeds.
        endpoint.send(SessionStart(20000, ProtocolVariant.BB92.code, 0.2, bytes(32)))
        reply = endpoint.recv()
    assert reply == Terminate(TERMINATE_CONFIG_MISMATCH)
    assert codes == [EXIT_CONFIG]
    assert "config error" in capsys.readouterr().err
    (entry,) = log_entries(out)
    assert entry["role"] == "alice"
    assert entry["error"].startswith("ConfigError: peer aborted")
    assert not (out / "alice_key.qkdr").exists()


def readme_cli_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("fmqkd ")]


def test_readme_cli_block_matches_the_parser():
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    documented = {}
    for line in readme_cli_lines():
        command = line.split()[1]
        assert command in subparsers.choices, line
        documented[command] = set(re.findall(r"--[a-z][a-z-]*", line))
    assert set(documented) == set(subparsers.choices)
    for command, parser in subparsers.choices.items():
        options = {option for action in parser._actions for option in action.option_strings
                   if option.startswith("--") and option != "--help"}
        assert documented[command] == options, command


def test_bit_source_exhausted_exits_5(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(BitSource, "from_seed", classmethod(
        lambda cls, seed: BitSource.from_bits([0, 1] * 50)))
    code = main(["keygen", "--out", str(tmp_path / "k.qkdr"), "--bits", "1000"])
    assert code == EXIT_PROTOCOL
    assert "protocol error" in capsys.readouterr().err
