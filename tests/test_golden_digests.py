"""Every input of the benchmark against its golden digest.

``perfbench/golden.json`` holds the ``SessionResult`` digest of every input
set each session workload can generate, and the visibility digest of every
``fm_check_haar`` input. Running them here, in-process, makes a kernel change
that alters any random stream, or moves a Faraday-mirror visibility, fail the
test suite, not only the benchmark. The benchmark files are imported
read-only.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import runners

    return inputs, runners


@pytest.mark.parametrize("workload", ["inproc_bb92_ref", "socket_bb92_loopback",
                                      "inproc_bb84_keyfile"])
def test_every_input_matches_its_golden_digest(perfbench, workload, tmp_path):
    inputs, runners = perfbench
    spec = inputs.SPECS[workload]
    golden = inputs.load_golden(spec)
    assert len(golden) == inputs.GOLDEN_SEEDS
    digests = []
    for index in range(inputs.GOLDEN_SEEDS):
        made = inputs.make_inputs(spec, index, tmp_path)
        digests.append(runners.inproc_digest(inputs.session_config(spec, made)))
    assert digests == golden


def test_every_fm_input_matches_its_golden_digest(perfbench, tmp_path):
    inputs, runners = perfbench
    spec = inputs.SPECS["fm_check_haar"]
    golden = inputs.load_golden(spec)
    assert len(golden) == inputs.GOLDEN_SEEDS
    tally = runners.Tally()
    for index in range(inputs.GOLDEN_SEEDS):
        made = inputs.make_inputs(spec, index, tmp_path)
        faraday, ordinary, _ = runners.fm_pair(made, spec.n_samples)
        runners.check_fm(faraday, ordinary, golden[index], tally)
    # Each input checks the Faraday bound, then its digest.
    assert (tally.errors, tally.attempted) == ([], 2 * inputs.GOLDEN_SEEDS)
