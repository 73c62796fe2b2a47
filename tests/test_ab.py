"""The mechanics of ``tools/ab.py``, at a size that asserts no timing."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sessions import child_env

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"
PAIRS = 2


def run_ab(tree_a, tree_b, workload):
    """Exit code and report of two pairs of one-session blocks, on the workload's own inputs."""
    done = subprocess.run([sys.executable, str(AB), str(tree_a), str(tree_b), "--workload",
                           workload, "--seed", "5", "--pairs", str(PAIRS), "--sessions", "1"],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    return done.returncode, json.loads(done.stdout)


@pytest.mark.parametrize("workload", ["inproc_bb92_ref", "inproc_bb84_keyfile"])
def test_ab_runs_this_tree_against_itself(workload):
    code, report = run_ab(ROOT, ROOT, workload)
    assert code == 0
    for side, package in (("a", "fmqkd_a"), ("b", "fmqkd_b")):
        assert report[side]["package"] == package
        assert report[side]["result_class"] == f"{package}.protocol.SessionResult"
        # A warm-up session, then one session per block.
        assert report[side]["digests_checked"] == 1 + PAIRS
        assert report[side]["digests_failed"] == 0
        assert report[side]["median_pulses_per_s"] > 0
    assert report["fields_agree"] is True
    assert report["median_ratio"] > 0 and len(report["interval_95"]) == 2
    assert report["bootstrap_block"] == round(PAIRS ** (1 / 3))
    assert report["a_won"] + report["b_won"] <= PAIRS


def test_ab_fails_a_tree_whose_results_differ(tmp_path):
    # A copy whose gates come from another stream: every result of B differs from golden.
    package = tmp_path / "fmqkd"
    shutil.copytree(ROOT / "src" / "fmqkd", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    protocol = package / "protocol.py"
    text = protocol.read_text(encoding="utf-8")
    assert "STREAM_GATES = 0\n" in text
    protocol.write_text(text.replace("STREAM_GATES = 0\n", "STREAM_GATES = 7\n"),
                        encoding="utf-8")
    code, report = run_ab(ROOT, tmp_path, "inproc_bb92_ref")
    assert code == 1
    assert report["a"]["digests_failed"] == 0
    assert report["b"]["digests_failed"] == report["b"]["digests_checked"] == 1 + PAIRS
    assert report["fields_agree"] is False
