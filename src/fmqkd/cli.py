"""Command-line front end: run sessions, print analytics, write reports.

Subcommands: simulate, table1, fm-check, analyze, keygen. Exit codes are 0
on success, 2 for configuration errors, 3 for channel failures, 4 for I/O
problems, and 5 for protocol errors (a peer broke the wire protocol, or a
bit source ran out mid-session).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .channel import connect, serve_once
from .detector import GatedDetectorConfig, er_det_analytic
from .errors import (
    BitSourceExhausted,
    ChannelError,
    ConfigError,
    KeyFileError,
    ProtocolViolationError,
    SessionAborted,
)
from .interferometer import (
    SetupConfig,
    er_opt_from_visibility,
    er_opt_prediction,
    visibility_from_extinction_db,
    visibility_samples,
)
from .keyfile import NATIVE_BLOCK_BITS, write_key_file
from .presets import REFERENCE_ROWS, reference_session
from .protocol import (
    AliceSession,
    BobSession,
    ProtocolVariant,
    Seeds,
    SessionConfig,
    SessionResult,
    run_session,
)
from .randomness import BitSource

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHANNEL = 3
EXIT_IO = 4
EXIT_PROTOCOL = 5

# Failures that end a two-process session after it has started; each side
# logs one session line before it exits with the matching code.
_SESSION_FAILURES = (ChannelError, SessionAborted, ProtocolViolationError, BitSourceExhausted)

REPORT_COLUMNS = (
    "mu",
    "measured_er",
    "er_det_pred",
    "er_opt_pred",
    "sifted_bits",
    "sift_rate_per_1000",
)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


@dataclass(frozen=True)
class RunSpec:
    """Parsed run-config file: the session plus channel placement."""

    session: SessionConfig
    channel_mode: str
    host: str
    port: int


_CONFIG_DEFAULTS = {
    "variant": "BB92",
    "n_pulses": "4000000",
    "mu_pair": "0.1",
    "line_loss_db": "8.6",
    "c1_tap_db": "1.4",
    "alice_extinction_db": "27",
    "bob_extinction_db": "30",
    "efficiency": "0.1",
    "dark_prob_per_gate": "7e-6",
    "seeds": "1,2,3",
    "disclosure_fraction": "0",
    "ack_window": "1024",
    "channel": "in_process",
    "host": "127.0.0.1",
    "port": "9876",
}


def parse_run_config(path: Path) -> RunSpec:
    """Parse a key=value run config; unknown keys are rejected with their line."""
    values = dict(_CONFIG_DEFAULTS)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value

    def num(key: str, conv):
        try:
            return conv(values[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key}: {values[key]!r}") from exc

    variant_name = values["variant"].upper()
    try:
        variant = ProtocolVariant[variant_name]
    except KeyError:
        raise ConfigError(f"{path}: variant must be BB92 or BB84, got {values['variant']!r}")
    seed_parts = values["seeds"].split(",")
    if len(seed_parts) != 3:
        raise ConfigError(f"{path}: seeds must be three comma-separated integers")
    try:
        seeds = Seeds(*(int(s.strip()) for s in seed_parts))
    except ValueError as exc:
        raise ConfigError(f"{path}: bad seeds {values['seeds']!r}") from exc
    channel_mode = values["channel"]
    if channel_mode not in ("in_process", "socket"):
        raise ConfigError(
            f"{path}: channel must be in_process or socket, got {channel_mode!r}"
        )
    setup = SetupConfig(
        mu_pair=num("mu_pair", float),
        line_loss_db=num("line_loss_db", float),
        c1_tap_db=num("c1_tap_db", float),
        alice_extinction_db=num("alice_extinction_db", float),
        bob_extinction_db=num("bob_extinction_db", float),
    )
    detector = GatedDetectorConfig(
        efficiency=num("efficiency", float),
        dark_prob_per_gate=num("dark_prob_per_gate", float),
    )
    session = SessionConfig(
        n_pulses=num("n_pulses", int),
        variant=variant,
        setup=setup,
        detector=detector,
        seeds=seeds,
        disclosure_fraction=num("disclosure_fraction", float),
        ack_window=num("ack_window", int),
    )
    port = num("port", int)
    if not 1 <= port <= 65535:
        raise ConfigError(f"{path}: port must be in 1..65535, got {values['port']!r}")
    return RunSpec(session, channel_mode, values["host"], port)


def _predictions(cfg: SessionConfig) -> Tuple[float, float]:
    er_det = er_det_analytic(
        cfg.setup.mu_pair, cfg.setup.post_alice_loss_db, cfg.detector, 1.0
    )
    return er_det, er_opt_prediction(cfg.setup)


def write_report(path: Path, cfg: SessionConfig, result: SessionResult) -> None:
    if result.measured_er is None or not math.isfinite(result.measured_er):
        raise ConfigError("session produced no comparable bits; cannot report")
    er_det, er_opt = _predictions(cfg)
    row = (
        _fmt(cfg.setup.mu_pair),
        _fmt(result.measured_er),
        _fmt(er_det),
        _fmt(er_opt),
        str(len(result.sifted_key_bob)),
        _fmt(result.sift_rate_per_1000),
    )
    path.write_text(",".join(REPORT_COLUMNS) + "\n" + ",".join(row) + "\n")


def append_session_log(path: Path, payload: dict) -> None:
    with path.open("a") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def _log_payload(role: str, mode: str, cfg: SessionConfig,
                 result: Optional[SessionResult], duration_s: float,
                 error: Optional[Exception] = None) -> dict:
    payload = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "role": role,
        "channel": mode,
        "variant": cfg.variant.value,
        "n_pulses": cfg.n_pulses,
        "mu_pair": cfg.setup.mu_pair,
        "seeds": list(cfg.seeds.as_tuple()),
        "duration_s": round(duration_s, 3),
    }
    if result is not None:
        payload.update(
            clicks=result.clicks,
            sifted_bits=len(result.sifted_key_bob),
            compared_bits=result.compared_bits,
            mismatches=result.mismatches,
            measured_er=result.measured_er,
            aborted=result.aborted,
        )
    if error is not None:
        payload["error"] = f"{type(error).__name__}: {error}"
    return payload


def cmd_simulate(args) -> int:
    spec = parse_run_config(Path(args.config))
    cfg = spec.session
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "session.log"
    started = time.time()

    if args.role == "alice":
        if spec.channel_mode != "socket":
            raise ConfigError("--role alice requires channel=socket in the config")
        alice = AliceSession(cfg)
        try:
            serve_once(spec.host, spec.port, alice.handle, is_done=lambda: alice.done)
        except _SESSION_FAILURES as exc:
            append_session_log(log_path, _log_payload("alice", "socket", cfg, None,
                                                      time.time() - started, exc))
            raise
        if alice.abort_reason is not None:
            append_session_log(log_path, _log_payload("alice", "socket", cfg, None,
                                                      time.time() - started))
            raise ConfigError(f"peer aborted with reason {alice.abort_reason}")
        write_key_file(out / "alice_key.qkdr",
                       np.frombuffer(alice.final_key, dtype=np.uint8))
        payload = _log_payload("alice", "socket", cfg, None, time.time() - started)
        payload.update(sifted_bits=len(alice.sifted_key), measured_er=alice.measured_er)
        append_session_log(log_path, payload)
        return EXIT_OK

    if args.role == "bob":
        if spec.channel_mode != "socket":
            raise ConfigError("--role bob requires channel=socket in the config")
        endpoint = connect(spec.host, spec.port)
        try:
            result = BobSession(cfg).run(endpoint)
        except _SESSION_FAILURES as exc:
            append_session_log(log_path, _log_payload(
                "bob", "socket", cfg, getattr(exc, "partial", None),
                time.time() - started, exc))
            raise
        finally:
            endpoint.close()
        mode = "socket"
    else:
        if spec.channel_mode != "in_process":
            raise ConfigError(
                "channel=socket needs two processes; run --role alice and --role bob"
            )
        alice = AliceSession(cfg)
        from .channel import open_in_process

        result = BobSession(cfg).run(open_in_process(alice.handle))
        write_key_file(out / "alice_key.qkdr",
                       np.frombuffer(alice.final_key, dtype=np.uint8))
        mode = "in_process"

    write_report(out / "report.csv", cfg, result)
    write_key_file(out / "bob_key.qkdr",
                   np.frombuffer(result.final_key_bob, dtype=np.uint8))
    append_session_log(log_path, _log_payload(args.role, mode, cfg, result,
                                              time.time() - started))
    print(
        f"simulate: {len(result.sifted_key_bob)} sifted bits, "
        f"measured ER {_fmt(result.measured_er)}, "
        f"sift rate {_fmt(result.sift_rate_per_1000)} per 1000 pulses"
    )
    return EXIT_OK


TABLE_COLUMNS = (
    "mu",
    "n_pulses",
    "sifted_bits",
    "sift_rate_per_1000",
    "sift_rate_band_low",
    "sift_rate_band_high",
    "sift_rate_pass",
    "measured_er",
    "predicted_er",
    "er_band_low",
    "er_band_high",
    "er_pass",
    "er_det_pred",
    "er_det_ref",
    "er_opt_pred",
    "er_opt_ref",
    "reference_measured_er",
    "reference_bit_rate_hz",
)


def cmd_table1(args) -> int:
    out_rows: List[Tuple[str, ...]] = []
    base_seed = args.seed
    for k, row in enumerate(REFERENCE_ROWS):
        n_pulses = row.desk_scale_pulses * (10 if args.full_scale else 1)
        cfg = reference_session(
            row.mu_pair, n_pulses, Seeds(base_seed + 3 * k, base_seed + 3 * k + 1,
                                         base_seed + 3 * k + 2)
        )
        result = run_session(cfg)
        er_det, er_opt = _predictions(cfg)
        predicted = er_det + er_opt
        n_sifted = len(result.sifted_key_bob)
        sigma = math.sqrt(predicted * (1.0 - predicted) / n_sifted) if n_sifted else 0.0
        er_low, er_high = predicted - 3.0 * sigma, predicted + 3.0 * sigma
        rate = result.sift_rate_per_1000
        rate_low = row.sift_rate_per_1000 - row.sift_rate_tol
        rate_high = row.sift_rate_per_1000 + row.sift_rate_tol
        rate_pass = rate_low <= rate <= rate_high
        er_pass = er_low <= result.measured_er <= er_high
        out_rows.append((
            _fmt(row.mu_pair), str(n_pulses), str(n_sifted), _fmt(rate),
            _fmt(rate_low), _fmt(rate_high), "pass" if rate_pass else "FAIL",
            _fmt(result.measured_er), _fmt(predicted),
            _fmt(er_low), _fmt(er_high), "pass" if er_pass else "FAIL",
            _fmt(er_det), _fmt(row.er_det), _fmt(er_opt), _fmt(row.er_opt),
            _fmt(row.measured_er), _fmt(row.bit_rate_hz),
        ))
        print(
            f"mu={row.mu_pair}: sift rate {_fmt(rate)}/1000 "
            f"(band {_fmt(rate_low)}..{_fmt(rate_high)}: "
            f"{'pass' if rate_pass else 'FAIL'}), "
            f"measured ER {_fmt(result.measured_er)} "
            f"(band {_fmt(er_low)}..{_fmt(er_high)}: {'pass' if er_pass else 'FAIL'}), "
            f"reference ER {_fmt(row.measured_er)}"
        )
    text = ",".join(TABLE_COLUMNS) + "\n" + "\n".join(",".join(r) for r in out_rows) + "\n"
    Path(args.out).write_text(text)
    return EXIT_OK


# The Haar draw peaks at about 290 B per sample, so about 2.9 GB at the cap.
FM_CHECK_MAX_SAMPLES = 10_000_000


def cmd_fm_check(args) -> int:
    if not 1 <= args.samples <= FM_CHECK_MAX_SAMPLES:
        raise ConfigError(f"--samples must be in 1..{FM_CHECK_MAX_SAMPLES}, got {args.samples}")
    rng = np.random.default_rng(args.seed)
    fm = visibility_samples(args.samples, args.extinction_db, rng, mirror="faraday")
    rng = np.random.default_rng(args.seed)
    ordinary = visibility_samples(args.samples, args.extinction_db, rng, mirror="ordinary")
    v_max = visibility_from_extinction_db(args.extinction_db)
    print(f"samples: {args.samples}, extinction {_fmt(args.extinction_db)} dB "
          f"-> max visibility {_fmt(v_max)}")
    for name, v in (("faraday", fm), ("ordinary", ordinary)):
        print(
            f"{name:9s} min {_fmt(v.min())}  mean {_fmt(v.mean())}  "
            f"max {_fmt(v.max())}  below-0.9 {_fmt((v < 0.9).mean())}"
        )
    return EXIT_OK


def cmd_analyze(args) -> int:
    printed = False
    if args.extinction_db is not None:
        v = visibility_from_extinction_db(args.extinction_db)
        print(f"visibility = {_fmt(v)}")
        print(f"er_opt = {_fmt(er_opt_from_visibility(v))}")
        printed = True
    if args.mu is not None:
        missing = [
            name
            for name, val in (("--loss-db", args.loss_db), ("--eta", args.eta),
                              ("--dark", args.dark))
            if val is None
        ]
        if missing:
            raise ConfigError(f"--mu also needs {', '.join(missing)}")
        cfg = GatedDetectorConfig(efficiency=args.eta, dark_prob_per_gate=args.dark)
        print(f"er_det = {_fmt(er_det_analytic(args.mu, args.loss_db, cfg, 1.0))}")
        printed = True
    if not printed:
        raise ConfigError("nothing to analyze; pass --extinction-db and/or --mu")
    return EXIT_OK


def cmd_keygen(args) -> int:
    if args.bits < 1:
        raise ConfigError(f"--bits must be >= 1, got {args.bits}")
    if args.blocks < 1:
        raise ConfigError(f"--blocks must be >= 1, got {args.blocks}")
    source = BitSource.from_seed(args.seed)
    out = Path(args.out)
    if args.blocks == 1:
        write_key_file(out, source.take(args.bits))
        print(f"wrote {args.bits} bits to {out}")
        return EXIT_OK
    out.mkdir(parents=True, exist_ok=True)
    for k in range(args.blocks):
        write_key_file(out / f"block_{k:03d}.qkdr", source.take(args.bits))
    print(f"wrote {args.blocks} blocks of {args.bits} bits to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmqkd",
        description="Simulate a Faraday-mirror interferometric key-exchange link.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one session from a config file")
    p.add_argument("--config", required=True, help="key=value run config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--role", choices=("both", "alice", "bob"), default="both")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("table1", help="run the two reference operating points")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=27)
    p.add_argument("--full-scale", action="store_true",
                   help="10x pulses per row for full-length keys")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("fm-check", help="visibility with Faraday vs ordinary mirrors")
    p.add_argument("--samples", type=int, default=1000,
                   help=f"Haar link draws per mirror, at most {FM_CHECK_MAX_SAMPLES:,}")
    p.add_argument("--extinction-db", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_fm_check)

    p = sub.add_parser("analyze", help="print analytic predictions")
    p.add_argument("--extinction-db", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--loss-db", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--dark", type=float, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("keygen", help="emit seeded bit-packed key blocks")
    p.add_argument("--out", required=True)
    p.add_argument("--bits", type=int, default=NATIVE_BLOCK_BITS)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_keygen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChannelError, SessionAborted) as exc:
        print(f"channel error: {exc}", file=sys.stderr)
        return EXIT_CHANNEL
    except (ProtocolViolationError, BitSourceExhausted) as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except KeyFileError as exc:
        print(f"key file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # ConfigError and module validation errors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
