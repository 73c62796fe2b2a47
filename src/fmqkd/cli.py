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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .channel import connect, open_in_process, serve_once
from .claims import CLAIMS, REFERENCE_ROWS, er_predictions, judge, row_session
from .detector import GatedDetectorConfig, er_det_analytic
from .errors import (
    BitSourceExhausted,
    ChannelError,
    ConfigError,
    ProtocolViolationError,
    SessionAborted,
)
from .interferometer import (
    er_opt_from_visibility,
    visibility_from_extinction_db,
    visibility_samples,
)
from .keyfile import MAX_BITS, NATIVE_BLOCK_BITS, write_key_file
from .presets import reference_session
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

# Exit code and stderr label of each failure main reports; the first match wins.
_FAILURES = (
    ((ChannelError, SessionAborted), EXIT_CHANNEL, "channel error"),
    ((ProtocolViolationError, BitSourceExhausted), EXIT_PROTOCOL, "protocol error"),
    ((ValueError,), EXIT_CONFIG, "config error"),  # ConfigError and module validation errors
    ((OSError,), EXIT_IO, "i/o error"),
)
_REPORTED_FAILURES = sum((types for types, _, _ in _FAILURES), ())

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


def _seeds(text: str) -> Seeds:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("must be three comma-separated integers")
    return Seeds(*map(int, parts))


# Run-config key -> the part of the session it sets and how its value parses.
# Unset keys keep the values of the mu = 0.1 reference session.
_SESSION_KEYS = {
    "variant": ("session", lambda text: ProtocolVariant(text.upper())),
    "n_pulses": ("session", int),
    "mu_pair": ("setup", float),
    "line_loss_db": ("setup", float),
    "c1_tap_db": ("setup", float),
    "alice_extinction_db": ("setup", float),
    "bob_extinction_db": ("setup", float),
    "efficiency": ("detector", float),
    "dark_prob_per_gate": ("detector", float),
    "seeds": ("session", _seeds),
    "disclosure_fraction": ("session", float),
    "ack_window": ("session", int),
}


def parse_run_config(path: Path) -> RunSpec:
    """Parse a key=value run config; unknown keys are rejected with their line."""
    given = {}
    # Deployment settings, which no session carries.
    deploy = {"channel": "in_process", "host": "127.0.0.1", "port": "9876"}
    try:
        text = path.read_text(encoding="utf-8")
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
        if key in deploy:
            deploy[key] = value
        elif key in _SESSION_KEYS:
            given[key] = (lineno, value)
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")

    session = reference_session(0.1, 4_000_000, Seeds(1, 2, 3))
    for key, (lineno, value) in given.items():
        part, parse = _SESSION_KEYS[key]
        try:
            change = {key: parse(value)}
            if part != "session":
                change = {part: replace(getattr(session, part), **change)}
            session = replace(session, **change)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r} ({exc})") from exc
    if deploy["channel"] not in ("in_process", "socket"):
        raise ConfigError(
            f"{path}: channel must be in_process or socket, got {deploy['channel']!r}"
        )
    port = deploy["port"]
    if not (port.isdecimal() and 1 <= int(port) <= 65535):
        raise ConfigError(f"{path}: port must be in 1..65535, got {port!r}")
    return RunSpec(session, deploy["channel"], deploy["host"], int(port))


def write_report(path: Path, cfg: SessionConfig, result: SessionResult) -> None:
    if result.measured_er is None or not math.isfinite(result.measured_er):
        raise ConfigError("session produced no comparable bits; cannot report")
    er_det, er_opt = er_predictions(cfg)
    row = (
        _fmt(cfg.setup.mu_pair),
        _fmt(result.measured_er),
        _fmt(er_det),
        _fmt(er_opt),
        str(len(result.sifted_key_bob)),
        _fmt(result.sift_rate_per_1000),
    )
    path.write_text(",".join(REPORT_COLUMNS) + "\n" + ",".join(row) + "\n", encoding="utf-8")


def append_session_log(path: Path, role: str, mode: str, cfg: SessionConfig, outcome,
                       started: float, error: Optional[Exception] = None) -> None:
    """Append one JSON line to ``path``; ``outcome`` is Bob's (partial) SessionResult,
    Alice's finished AliceSession, or None, and ``started`` a ``time.monotonic()``."""
    payload = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "role": role,
        "channel": mode,
        "variant": cfg.variant.value,
        "n_pulses": cfg.n_pulses,
        "mu_pair": cfg.setup.mu_pair,
        "seeds": list(cfg.seeds.as_tuple()),
        "duration_s": round(time.monotonic() - started, 3),
    }
    if isinstance(outcome, SessionResult):
        payload.update(
            clicks=outcome.clicks,
            sifted_bits=len(outcome.sifted_key_bob),
            compared_bits=outcome.compared_bits,
            mismatches=outcome.mismatches,
            measured_er=outcome.measured_er,
            aborted=outcome.aborted,
        )
    elif outcome is not None:
        payload.update(sifted_bits=len(outcome.sifted_key), measured_er=outcome.measured_er)
    if error is not None:
        payload["error"] = f"{type(error).__name__}: {error}"
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    """Run one role of a session. Once the config parses, every run appends
    exactly one session.log line, with an ``error`` field if it fails."""
    spec = parse_run_config(Path(args.config))
    cfg = spec.session
    mode = "in_process" if args.role == "both" else "socket"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    result = None
    try:
        if spec.channel_mode != mode:
            raise ConfigError(f"--role {args.role} needs channel={mode} in the config; "
                              "a socket session runs --role alice and --role bob")
        alice = AliceSession(cfg) if args.role != "bob" else None
        if args.role == "alice":
            serve_once(spec.host, spec.port, alice.handle, is_done=lambda: alice.done)
            if alice.abort_reason is not None:
                raise ConfigError(f"peer aborted with reason {alice.abort_reason}")
        else:
            endpoint = (connect(spec.host, spec.port) if args.role == "bob"
                        else open_in_process(alice.handle))
            try:
                result = BobSession(cfg).run(endpoint)
            finally:
                endpoint.close()
        if result is not None:
            write_report(out / "report.csv", cfg, result)
            write_key_file(out / "bob_key.qkdr",
                           np.frombuffer(result.final_key_bob, dtype=np.uint8))
        if alice is not None:
            write_key_file(out / "alice_key.qkdr",
                           np.frombuffer(alice.final_key, dtype=np.uint8))
    except _REPORTED_FAILURES as exc:
        append_session_log(out / "session.log", args.role, mode, cfg,
                           result or getattr(exc, "partial", None), started, exc)
        raise
    append_session_log(out / "session.log", args.role, mode, cfg, result or alice, started)
    if result is not None:
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
    for k, row in enumerate(REFERENCE_ROWS):
        cfg = row_session(row, args.seed + 3 * k, args.full_scale)
        result = run_session(cfg)
        mu = row.mu_pair
        er_claim, er_det, er_opt = (CLAIMS[c, mu] for c in ("error rate", "er_det", "er_opt"))
        rate, er = judge(CLAIMS["sift rate", mu], result), judge(er_claim, result)
        rate_pass, er_pass = ("pass" if v.ok else "FAIL" for v in (rate, er))
        out_rows.append((
            _fmt(mu), str(cfg.n_pulses), str(len(result.sifted_key_bob)), _fmt(rate.value),
            _fmt(rate.low), _fmt(rate.high), rate_pass,
            _fmt(er.value), _fmt(er_claim.model), _fmt(er.low), _fmt(er.high), er_pass,
            _fmt(er_det.model), _fmt(er_det.paper), _fmt(er_opt.model), _fmt(er_opt.paper),
            _fmt(er_claim.paper), _fmt(row.bit_rate_hz),
        ))
        print(
            f"mu={mu}: sift rate {_fmt(rate.value)}/1000 "
            f"(band {_fmt(rate.low)}..{_fmt(rate.high)}: {rate_pass}), "
            f"measured ER {_fmt(er.value)} "
            f"(band {_fmt(er.low)}..{_fmt(er.high)}: {er_pass}), "
            f"reference ER {_fmt(er_claim.paper)}"
        )
        key = CLAIMS.get(("key length", mu)) if args.full_scale else None
        if key is not None:
            v, n = judge(key, result), cfg.n_pulses
            print(f"mu={mu}: key length {len(result.sifted_key_bob)} sifted bits from {n} pulses "
                  f"(band {_fmt(v.low * n)}..{_fmt(v.high * n)} around {key.paper}: "
                  f"{'pass' if v.ok else 'FAIL'})")
    text = ",".join(TABLE_COLUMNS) + "\n" + "\n".join(",".join(r) for r in out_rows) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


# visibility_samples peaks at 224 B per sample, and the command, which holds the
# first mirror's result during the second, at 232 B: 2.3 GB at the cap. A
# process's first call adds a fixed 0.77 MB (246 B per sample at 50,000).
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
        print(f"er_det = {_fmt(er_det_analytic(args.mu, args.loss_db, cfg))}")
        printed = True
    if not printed:
        raise ConfigError("nothing to analyze; pass --extinction-db and/or --mu")
    return EXIT_OK


def cmd_keygen(args) -> int:
    if not 1 <= args.bits <= MAX_BITS:
        raise ConfigError(f"--bits must be in 1..{MAX_BITS}, got {args.bits}")
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
                   help="40M pulses per row; the mu 0.1 row also judges the paper's key length")
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
    except _REPORTED_FAILURES as exc:
        code, label = next((code, label) for types, code, label in _FAILURES
                           if isinstance(exc, types))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
