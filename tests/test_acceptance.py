"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The two Monte-Carlo criteria pin their seeds; the bands are fixed here and
the runs are deterministic, so the verdicts are stable.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fmqkd
from fmqkd.detector import GatedDetectorConfig, er_det_analytic
from fmqkd.framing import Detections, encode_frame
from fmqkd.interferometer import (
    SetupConfig,
    detection_mean,
    er_opt_from_visibility,
    visibility_from_extinction_db,
)
from fmqkd.jones import (
    faraday_mirror,
    haar_random_unitaries,
    interference_overlap,
    phase_aligned_distance,
    round_trip,
)
from fmqkd.keyfile import read_key_file
from fmqkd.presets import REFERENCE_ROWS, reference_session
from fmqkd.protocol import ProtocolVariant, Seeds, run_session
from sessions import (
    PassThroughEndpoint,
    free_port,
    noiseless_config,
    run_in_process,
    run_over_socket,
)


def _cli_env() -> dict:
    """Environment for ``python -m fmqkd.cli`` children: the package under test first."""
    env = dict(os.environ)
    src = str(Path(fmqkd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_visibility_chain():
    v30 = visibility_from_extinction_db(30.0)
    v27 = visibility_from_extinction_db(27.0)
    er30 = er_opt_from_visibility(v30)
    er27 = er_opt_from_visibility(v27)
    avg = (er30 + er27) / 2.0
    ok = (
        abs(v30 - 0.998) <= 5e-4
        and abs(er30 - 0.001) <= 5e-5
        and abs(er27 - 0.002) <= 5e-5
        and abs(avg - 0.0015) <= 3e-4
    )
    report(1, ok, f"V(30dB)={v30:.6f}, er_opt 30dB={er30:.6f} 27dB={er27:.6f} avg={avg:.6f}")


def test_criterion_2_faraday_compensation():
    fm = faraday_mirror()
    rng = np.random.default_rng(2024)
    stack = haar_random_unitaries(rng, 1000)
    worst_dist = 0.0
    worst_overlap = 0.0
    for u in stack:
        rt = round_trip(u)
        worst_dist = max(worst_dist, phase_aligned_distance(rt, fm))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = v / np.linalg.norm(v)
        worst_overlap = max(worst_overlap, abs(interference_overlap(v, rt @ v)))
    ok = worst_dist < 1e-10 and worst_overlap < 1e-10
    report(2, ok, f"1000 Haar draws: max Frobenius dev {worst_dist:.2e}, "
                  f"max |overlap| {worst_overlap:.2e}")


def test_criterion_3_detector_analytics():
    cfg = GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=7e-6)
    er01 = er_det_analytic(0.1, 10.0, cfg)
    er02 = er_det_analytic(0.2, 10.0, cfg)
    ok = (0.0072 - 0.0013 <= er01 <= 0.0072 + 0.0013) and (
        0.004 - 0.0007 <= er02 <= 0.004 + 0.0007
    )
    report(3, ok, f"er_det(mu=0.1)={er01:.5f} in 0.0072+-0.0013, "
                  f"er_det(mu=0.2)={er02:.5f} in 0.004+-0.0007")


def test_criterion_4_table_row_mu01():
    row = next(r for r in REFERENCE_ROWS if r.mu_pair == 0.1)
    cfg = reference_session(0.1, 4_000_000, Seeds(30, 31, 32))
    result = run_session(cfg)
    rate = result.sift_rate_per_1000
    ok_rate = 0.45 <= rate <= 0.55
    ok_er = 0.007 <= result.measured_er <= 0.011
    report(
        4,
        ok_rate and ok_er,
        f"mu=0.1, 4e6 pulses: sift rate {rate:.4f}/1000 (band 0.45..0.55), "
        f"measured ER {result.measured_er:.5f} (band 0.007..0.011); "
        f"reference measured ER {row.measured_er} exceeds its own prediction sum "
        f"and is reported alongside, not asserted",
    )


def test_criterion_5_table_row_mu02():
    cfg = reference_session(0.2, 2_000_000, Seeds(27, 28, 29))
    result = run_session(cfg)
    rate = result.sift_rate_per_1000
    ok_rate = 0.9 <= rate <= 1.1
    predicted = er_det_analytic(
        0.2, cfg.setup.post_alice_loss_db, cfg.detector
    ) + (er_opt_from_visibility(visibility_from_extinction_db(27.0))
         + er_opt_from_visibility(visibility_from_extinction_db(30.0))) / 2.0
    n = len(result.sifted_key_bob)
    sigma = math.sqrt(predicted * (1.0 - predicted) / n)
    lo, hi = predicted - 3.0 * sigma, predicted + 3.0 * sigma
    ok_er = lo <= result.measured_er <= hi
    report(
        5,
        ok_rate and ok_er,
        f"mu=0.2, 2e6 pulses: sift rate {rate:.4f}/1000 (band 0.9..1.1), "
        f"measured ER {result.measured_er:.5f} (prediction band {lo:.5f}..{hi:.5f})",
    )


def test_criterion_6_noiseless_correctness():
    result = run_session(noiseless_config(210_000, Seeds(61, 62, 63)))
    ok = (
        result.clicks >= 100_000
        and result.sifted_key_alice == result.sifted_key_bob
        and result.mismatches == 0
    )
    report(6, ok, f"{result.clicks} clicks, zero mismatches, keys identical")


def test_criterion_7_mode_equivalence(tmp_path):
    golden = bytes.fromhex(
        "0104" + "14000000" + "02000000" + "0300000000000000" + "1100000000000000"
    )
    ok_golden = encode_frame(Detections((3, 17))) == golden

    cfg = reference_session(0.2, 20_000, Seeds(42, 43, 44))
    # Per pulse in process, with every message Alice received captured.
    in_process, _, seen = run_in_process(cfg, PassThroughEndpoint)
    captured = [m for m in seen if isinstance(m, Detections)]

    # Thread-served socket session with the same seeds.
    over_socket, _, _ = run_over_socket(cfg)
    ok_socket = over_socket == in_process

    # The captured window frames re-encode to the same canonical bytes that
    # the socket mode put on the wire (same messages, canonical encoding).
    expected_windows = []
    detected = list(in_process.detected_indices)
    for start in range(0, cfg.n_pulses, cfg.ack_window):
        end = start + cfg.ack_window
        expected_windows.append(
            [i for i in detected if start <= i < end]
        )
    ok_frames = [m.indices.tolist() for m in captured] == expected_windows and all(
        encode_frame(m) == encode_frame(Detections(tuple(window)))
        for m, window in zip(captured, expected_windows)
    )

    # Full two-process check through the CLI.
    port2 = free_port()
    cfg_text = (
        "variant = BB92\nn_pulses = 20000\nmu_pair = 0.2\nseeds = 42,43,44\n"
        f"channel = socket\nhost = 127.0.0.1\nport = {port2}\n"
    )
    sock_cfg = tmp_path / "socket.cfg"
    sock_cfg.write_text(cfg_text)
    inproc_cfg = tmp_path / "inproc.cfg"
    inproc_cfg.write_text(cfg_text.replace("channel = socket", "channel = in_process"))
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    alice_proc = subprocess.Popen(
        [sys.executable, "-m", "fmqkd.cli", "simulate", "--config", str(sock_cfg),
         "--out", str(out_a), "--role", "alice"], env=_cli_env()
    )
    bob_rc = subprocess.run(
        [sys.executable, "-m", "fmqkd.cli", "simulate", "--config", str(sock_cfg),
         "--out", str(out_b), "--role", "bob"], env=_cli_env()
    ).returncode
    alice_rc = alice_proc.wait(timeout=60)
    both_rc = subprocess.run(
        [sys.executable, "-m", "fmqkd.cli", "simulate", "--config", str(inproc_cfg),
         "--out", str(out_c)], env=_cli_env()
    ).returncode
    ok_cli = (
        bob_rc == 0 and alice_rc == 0 and both_rc == 0
        and (out_b / "report.csv").read_bytes() == (out_c / "report.csv").read_bytes()
        and (out_b / "bob_key.qkdr").read_bytes() == (out_c / "bob_key.qkdr").read_bytes()
        and (out_a / "alice_key.qkdr").read_bytes() == (out_c / "alice_key.qkdr").read_bytes()
    )
    ok = ok_golden and ok_socket and ok_frames and ok_cli
    report(7, ok, "in-process == socket (API bit-identical: "
                  f"{ok_socket}; two-process CLI outputs identical: {ok_cli}; "
                  f"golden DETECTIONS vector: {ok_golden}; window frames: {ok_frames})")


def test_criterion_8_bb84_variant():
    mid = detection_mean(math.pi / 2.0, SetupConfig())
    ends = (detection_mean(0.0, SetupConfig()) + detection_mean(math.pi, SetupConfig())) / 2.0
    ok_mid = abs(mid - ends) < 1e-9

    cfg = reference_session(0.1, 1_000_000, Seeds(81, 82, 83),
                            variant=ProtocolVariant.BB84)
    result = run_session(cfg)
    frac = result.basis_matched / result.clicks
    sigma = math.sqrt(0.25 / result.clicks)
    ok_frac = abs(frac - 0.5) <= 3.0 * sigma

    clean = run_session(noiseless_config(6000, Seeds(84, 85, 86), ProtocolVariant.BB84))
    ok_clean = clean.measured_er == 0.0 and clean.sifted_key_alice == clean.sifted_key_bob
    ok = ok_mid and ok_frac and ok_clean
    report(8, ok, f"basis retention {frac:.4f} (0.5 +- {3*sigma:.4f}), "
                  f"noiseless ER {clean.measured_er}, fringe midpoint dev {abs(mid-ends):.1e}")


def test_criterion_9_key_file_round_trip(tmp_path):
    out = tmp_path / "block.qkdr"
    rc = subprocess.run(
        [sys.executable, "-m", "fmqkd.cli", "keygen", "--out", str(out), "--seed", "9"],
        env=_cli_env(),
    ).returncode
    bits = read_key_file(out)
    from fmqkd.randomness import BitSource

    expected = BitSource.from_seed(9).take(65535)
    ok = rc == 0 and bits.size == 65535 and np.array_equal(bits, expected)
    report(9, ok, f"65535-bit block round-trips bit-exactly (odd bit count honored)")
