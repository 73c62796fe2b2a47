"""Paired A/B timing of two source trees on one in-process perfbench workload.

    python3 tools/ab.py TREE_A TREE_B --workload inproc_bb92_ref --seed 3 \\
        --pairs 20 --sessions 20

Each tree is a checkout, or its ``src`` directory. Both packages load into
this one process, as ``fmqkd_a`` and ``fmqkd_b``, and blocks of sessions
alternate in ABBA order (A B, B A, A B, ...), so that slow drift of the host
falls on both sides of each pair (T. Kalibera and R. Jones, "Rigorous
Benchmarking in Reasonable Time", ISMM 2013). A session is timed as perfbench
times it: Bob's ``run`` alone, with both parties built outside the timing.

The inputs of the seed come from ``perfbench/inputs.py``, and each session's
result digest is checked against ``perfbench/golden.json``; the two trees'
results must also agree field by field, since their ``SessionResult`` classes
differ. Key files go to a temporary directory: nothing is written into either
tree. Prints one JSON report: per tree its median pulses/s, and over the
pairs the median ratio of B's pulses/s to A's, a 95% bootstrap interval on
that median, and the pairs each side won. Neighbouring pairs share the
host's drift, so the interval resamples runs of L neighbouring pairs, with
L = round(pairs ** (1/3)) (a moving-block bootstrap: H. R. Kuensch, Ann.
Statist. 17, 1217, 1989). Exits 1 if any digest differs.
"""

import argparse
import dataclasses
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # before any tree is imported: no __pycache__ in a tree

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "perfbench" / "inputs.py"
BOOTSTRAP = 10_000  # resamples of the pair ratios


def block_bootstrap(ratios: np.ndarray):
    """The block length L, and a 95% interval on the median of ``ratios`` from
    resamples built of runs of L neighbouring ratios."""
    block = max(1, round(ratios.size ** (1 / 3)))
    starts = np.random.default_rng(0).integers(
        0, ratios.size - block + 1, (BOOTSTRAP, -(-ratios.size // block)))
    picks = (starts[:, :, None] + np.arange(block)).reshape(BOOTSTRAP, -1)[:, :ratios.size]
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return block, [float(low), float(high)]


def load_tree(tree: Path, name: str):
    """The ``fmqkd`` package of ``tree`` loaded as ``name``, and perfbench's
    inputs module bound to that package."""
    src = tree / "src" if (tree / "src" / "fmqkd").is_dir() else tree
    init = src / "fmqkd" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    # perfbench/inputs.py imports from ``fmqkd``: point that name at this tree while it loads.
    aliases = {"fmqkd": package}
    for part in ("channel", "keyfile", "presets", "protocol"):
        aliases[f"fmqkd.{part}"] = importlib.import_module(f"{name}.{part}")
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"{name}_inputs", INPUTS)
        inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
    finally:
        for key, module in saved.items():
            if module is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module
    return package, inputs


class Side:
    """One tree: its package, its session config and the results it checked."""

    def __init__(self, tree: Path, name: str, workload: str, seed: int, workdir: Path):
        self.tree, self.name = tree, name
        self.package, self.inputs = load_tree(tree, name)
        if workload not in self.inputs.SPECS or self.inputs.SPECS[workload].kind != "inproc":
            raise SystemExit(f"{workload!r} is not an in-process perfbench workload")
        spec = self.inputs.SPECS[workload]
        workdir.mkdir()
        self.cfg = self.inputs.session_config(spec, self.inputs.make_inputs(spec, seed, workdir))
        self.golden = self.inputs.load_golden(spec)[self.inputs.input_index(seed)]
        self.checked = self.failed = 0
        self.fields = None  # the first result, field by field
        self.rates = []

    def session(self) -> float:
        """Seconds of one session's ``run``; checks its result."""
        protocol, channel = self.package.protocol, self.package.channel
        alice = protocol.AliceSession(self.cfg)
        bob, endpoint = protocol.BobSession(self.cfg), channel.open_in_process(alice.handle)
        try:
            t0 = time.perf_counter()
            result = bob.run(endpoint)
            dt = time.perf_counter() - t0
        finally:
            endpoint.close()
        self.checked += 1
        self.failed += self.inputs.result_digest(result) != self.golden
        fields = [(f.name, getattr(result, f.name)) for f in dataclasses.fields(result)]
        self.fields = self.fields or fields
        self.failed += fields != self.fields
        return dt

    def block(self, sessions: int) -> float:
        """Pulses/s over a block of ``sessions`` sessions."""
        rate = sessions * self.cfg.n_pulses / sum(self.session() for _ in range(sessions))
        self.rates.append(rate)
        return rate

    def report(self) -> dict:
        result = self.package.protocol.SessionResult
        return {"tree": str(self.tree), "package": self.package.__name__,
                "result_class": f"{result.__module__}.{result.__qualname__}",
                "digests_checked": self.checked, "digests_failed": self.failed,
                "median_pulses_per_s": statistics.median(self.rates)}


def compare(tree_a: Path, tree_b: Path, workload: str, seed: int, pairs: int,
            sessions: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="fmqkd-ab-") as tmp:
        a = Side(tree_a, "fmqkd_a", workload, seed, Path(tmp) / "a")
        b = Side(tree_b, "fmqkd_b", workload, seed, Path(tmp) / "b")
        a.session(), b.session()  # warm-up, checked and untimed
        ratios = []
        for k in range(pairs):
            first, second = (a, b) if k % 2 == 0 else (b, a)
            rates = {first.name: first.block(sessions), second.name: second.block(sessions)}
            ratios.append(rates[b.name] / rates[a.name])
    ratios = np.array(ratios)
    block, interval = block_bootstrap(ratios)
    fields_agree = a.fields == b.fields
    return {
        "workload": workload, "seed": seed, "pairs": pairs, "sessions_per_block": sessions,
        "a": a.report(), "b": b.report(), "fields_agree": fields_agree,
        "ratio": "pulses/s of B over A, per pair of blocks",
        "median_ratio": float(np.median(ratios)),
        "interval_95": interval, "bootstrap_block": block,
        "b_won": int(np.sum(ratios > 1.0)), "a_won": int(np.sum(ratios < 1.0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", default="inproc_bb92_ref")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--pairs", type=int, default=20, help="pairs of blocks, in ABBA order")
    parser.add_argument("--sessions", type=int, default=20, help="sessions per block")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.sessions < 1:
        parser.error("--pairs and --sessions must be at least 1")
    report = compare(args.tree_a, args.tree_b, args.workload, args.seed, args.pairs,
                     args.sessions)
    print(json.dumps(report, indent=1))
    failed = report["a"]["digests_failed"] + report["b"]["digests_failed"]
    return 0 if report["fields_agree"] and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
