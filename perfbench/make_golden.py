"""Record golden output digests for every workload input; run on reference code only.

Usage: python3 perfbench/make_golden.py

Writes ``perfbench/golden.json``. Socket-workload digests are recorded from
in-process sessions, so a socket run that matches them also shows mode
equivalence. Re-record only when a workload's size changes, never to make a
changed program pass.
"""

import json
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from inputs import (  # noqa: E402
    GOLDEN_PATH,
    GOLDEN_SEEDS,
    SPECS,
    fm_digest,
    make_inputs,
    session_config,
)
from runners import Tally, check_fm, fm_pair, inproc_digest  # noqa: E402


def main() -> int:
    workdir = HERE / "out" / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True)
    data = {"golden_seeds": GOLDEN_SEEDS, "workloads": {}}
    try:
        for spec in SPECS.values():
            digests = []
            for index in range(GOLDEN_SEEDS):
                inputs = make_inputs(spec, index, workdir)
                if spec.kind == "fm":
                    faraday, ordinary, _ = fm_pair(inputs, spec.n_samples)
                    digest = fm_digest(faraday, ordinary)
                    if not check_fm(faraday, ordinary, digest, Tally()):
                        raise SystemExit("Faraday visibility is off the extinction limit")
                else:
                    digest = inproc_digest(session_config(spec, inputs))
                digests.append(digest)
            data["workloads"][spec.name] = {"size": spec.size(), "digests": digests}
            print(f"{spec.name}: {len(digests)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
