"""fmqkd benchmark: one run of one workload, or all workloads, or a smoke check.

One run (what BENCHMARK.json's command names):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints each metric by name with its unit, then as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. Full report and machine facts go to
``perfbench/out/result-*.json``; traced spans to ``perfbench/out/trace-*.jsonl``.

All workloads, each in a fresh process per seed and once traced, summarised
with medians, quartiles and spreads (written to
``perfbench/out/BENCH_<label>.json``):

    python3 perfbench/run.py --all --runs 10 --label seed

Smoke check that every named metric is emitted with its unit:

    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from ``src/``.
"""

import os

# One BLAS thread: the load is one process (plus the socket peer), no pools.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
MIN_RUNS = 3
WATCHDOG_S = 170
PROGRAM_MISSING = 2
WATCHDOG_FIRED = 3
UNKNOWN_WORKLOAD = 4


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def loadavg() -> float:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return -1.0


def summary(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def sustained(rates: list) -> float:
    """10th percentile of the per-session rates.

    The host's speed drifts in bursts of several seconds, up to about twice
    its floor. A run's median moves with how much of the run a burst covers.
    The 10th percentile stays at the floor the host sustains, and a faster
    program raises it the same way it raises the median.
    """
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=10, method="inclusive")[0]


class SetupSampler:
    """Set-up seconds from fresh interpreters, spread over the timed phase.

    The host's speed drifts over seconds to minutes. Probes spread across
    the run sample that drift the way the sessions do; probes bunched at the
    start would sample one moment. The first probe warms the file cache and
    is dropped. Each probe runs while the sessions wait, never beside them.
    """

    def __init__(self, inputs_path: Path, tally, seconds: float):
        from runners import child_env

        self._cmd = [sys.executable, str(HERE / "setup_probe.py"), str(inputs_path)]
        self._env = child_env()
        self._tally = tally
        self._attempts = 0
        self.samples: list = []
        self._probe()
        self.samples.clear()
        self._start = time.perf_counter()
        self._interval = seconds / SETUP_REPEATS

    def _probe(self) -> None:
        self._attempts += 1
        proc = subprocess.run(self._cmd, capture_output=True, text=True, env=self._env,
                              timeout=60)
        if self._tally.check(proc.returncode == 0, f"setup probe failed: {proc.stderr[-500:]}"):
            self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    def _owed(self) -> bool:
        return len(self.samples) < SETUP_REPEATS and self._attempts <= 2 * SETUP_REPEATS

    def between(self) -> None:
        """Take a probe when one is due by the clock."""
        if self._owed() and time.perf_counter() - self._start >= len(self.samples) * self._interval:
            self._probe()

    def finish(self) -> list:
        while self._owed():
            self._probe()
        return self.samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_metrics(spec, inputs: dict, inputs_path: Path, golden: str, seconds: float,
                  tally) -> tuple:
    """End-to-end figures of one untraced run: (metrics, samples)."""
    from inputs import session_config
    from runners import AlicePeer, fm_loop, inproc_digest, session_loop

    setup = SetupSampler(inputs_path, tally, seconds)
    deadline = time.perf_counter() + seconds
    if spec.kind == "fm":
        rates = fm_loop(inputs, spec.n_samples, golden, deadline, MIN_RUNS, tally, setup.between)
        rss = peak_rss_mb()
    else:
        cfg = session_config(spec, inputs)
        if spec.kind == "socket":
            with AlicePeer(inputs_path) as peer:
                rates = session_loop(cfg, golden, deadline, MIN_RUNS, tally, peer, setup.between)
                rss = peak_rss_mb()
            rss = max(rss, peer.peak_rss_mb)
            # Each socket result already matched the golden digest, which
            # was recorded in-process; this rechecks the in-process side now.
            tally.check(inproc_digest(cfg) == golden,
                        "in-process result differs from the socket result")
        else:
            rates = session_loop(cfg, golden, deadline, MIN_RUNS, tally, between=setup.between)
            rss = peak_rss_mb()
    samples = {"throughput_per_s": rates, "setup_s": setup.finish(), "peak_rss_mb": [rss]}
    metrics = {name: statistics.median(values) for name, values in samples.items() if values}
    if rates:
        metrics["throughput_per_s"] = sustained(rates)
    return metrics, samples


def single_run(args) -> int:
    src = ROOT / "src"
    if not (src / "fmqkd" / "__init__.py").is_file():
        print(f"error: no fmqkd package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return PROGRAM_MISSING
    sys.path[:0] = [str(HERE), str(src)]

    def watchdog(signum, frame):
        print(f"error: run exceeded {WATCHDOG_S} s", file=sys.stderr)
        os._exit(WATCHDOG_FIRED)

    signal.signal(signal.SIGALRM, watchdog)
    signal.alarm(WATCHDOG_S)

    from inputs import SPECS, load_golden, make_inputs
    from runners import Tally

    if args.workload not in SPECS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(SPECS)}",
              file=sys.stderr)
        return UNKNOWN_WORKLOAD
    spec = SPECS[args.workload]
    facts = machine_facts()
    load_before = loadavg()
    OUT.mkdir(exist_ok=True)
    tag = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    try:
        inputs = make_inputs(spec, args.seed, workdir)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        if args.trace:
            from tracing import Spans, traced_run

            spans = Spans()
            metrics = traced_run(spec, args.seed, inputs, inputs_path, workdir, tally, spans)
            samples = {}
            spans.write(OUT / f"trace-{tag}.jsonl")
        else:
            golden = load_golden(spec)[inputs["index"]]
            metrics, samples = timed_metrics(spec, inputs, inputs_path, golden,
                                             args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {m["name"]: m["unit"]
             for m in benchmark_spec()["per_layer" if args.trace else "end_to_end"]}
    load_after = loadavg()
    facts.update(loadavg_before=load_before, loadavg_after=load_after,
                 overloaded=max(load_before, load_after) > facts["nproc"])

    for err in tally.errors:
        print(f"check failed: {err}", file=sys.stderr)
    attempted = max(tally.attempted, 1)
    print(f"workload {spec.name} seed {args.seed} (input {inputs['index']}) trace {args.trace}")
    print("machine " + json.dumps(facts))
    if not args.trace:
        work = "fm_samples_per_s" if spec.kind == "fm" else "pulses_per_s"
        if samples["throughput_per_s"]:
            print(f"  {work} (throughput_per_s, 10th percentile) = "
                  f"{metrics['throughput_per_s']:.6g} 1/s {summary(samples['throughput_per_s'])}")
        for name in ("setup_s", "peak_rss_mb"):
            if samples[name]:
                print(f"  {name} = {metrics[name]:.6g} {units[name]} {summary(samples[name])}")
    else:
        for name, value in sorted(metrics.items()):
            print(f"  {name} = {value:.6g} {units.get(name, '?')}")
    print(f"  failed_frac = {tally.failed}/{attempted} = {tally.failed / attempted:.6g}")

    result = {"correct": tally.failed == 0, "attempted": attempted, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items() if name in units}}
    report = dict(result, workload=spec.name, seed=args.seed, input_index=inputs["index"],
                  trace=args.trace, seconds=args.seconds, machine=facts, samples=samples,
                  errors=tally.errors)
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in a fresh process, exactly as BENCHMARK.json's command makes it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=WATCHDOG_S + 30)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def all_runs(args) -> int:
    """Every workload, ``--runs`` seeds each, plus one traced run per workload."""
    bench = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"label": args.label, "seconds": args.seconds, "runs": args.runs,
              "machine": machine_facts(), "loadavg_before": loadavg(), "workloads": {}}
    steady = True
    for w in bench["workloads"]:
        name = w["name"]
        results = [run_child(name, args.first_seed + k, args.seconds, 0)
                   for k in range(args.runs)]
        entry = {"failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results), "metrics": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            stats = summary(values)
            stats["spread"] = (stats["q3"] - stats["q1"]) / stats["median"]
            stats["values"] = values
            entry["metrics"][metric] = stats
            ok = metric == "setup_s" or stats["spread"] <= bound / 3
            steady &= ok
            print(f"{name:22s} {metric:18s} median {stats['median']:12.6g} "
                  f"{results[0]['metrics'][metric]['unit']:4s} spread {stats['spread']:.4f} "
                  f"(bound {bound}){'' if ok else '  NOT STEADY'}", flush=True)
        entry["per_layer"] = run_child(name, args.first_seed, args.seconds, 1)["metrics"]
        print(f"{name:22s} failed_frac {entry['failed']}/{entry['attempted']}", flush=True)
        report["workloads"][name] = entry
    report["loadavg_after"] = loadavg()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"wrote {path.relative_to(ROOT)}; every spread below a third of its bound: {steady}")
    return 0


def smoke(args) -> int:
    """Each workload for one second, both modes; checks names and units."""
    bench = benchmark_spec()
    ok = True
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = run_child(w["name"], 1, 1, trace)
            have = {k: v["unit"] for k, v in got["metrics"].items()}
            good = have == want and got["correct"]
            ok &= good
            missing = sorted(set(want) - set(have))
            print(f"{w['name']:22s} trace {trace}: {'ok' if good else 'FAIL'}"
                  f"{' missing ' + ', '.join(missing) if missing else ''}", flush=True)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload with --all")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="local", help="file label with --all")
    parser.add_argument("--smoke", action="store_true", help="check every metric is emitted")
    args = parser.parse_args()
    if args.smoke:
        return smoke(args)
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.all:
        return all_runs(args)
    if not args.workload:
        parser.error("--workload is required for one run")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
