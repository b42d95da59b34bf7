"""Fast-tier wiring for ``tools/payload_digests.py``.

The smoke mode runs one tiny scenario twice on this tree, in two child
processes, and must report identical digests; ``compare`` must count a
run whose digest moved.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from payload_digests import compare  # noqa: E402


def test_smoke_mode_matches_the_same_tree():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "payload_digests.py"),
         "--smoke"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 of 1 runs differ" in proc.stdout


def test_compare_counts_a_moved_digest(capsys):
    row = {"run": "r", "digest": "a", "digest_no_channel": "b",
           "events": 10, "departure_fast_paths": 0, "park_ties": 0,
           "violations": 0}
    channel_moved = dict(row, digest="c", events=9)
    assert compare([row], [row], "digest") == 0
    assert compare([channel_moved], [row], "digest") == 1
    assert compare([channel_moved], [row], "digest_no_channel") == 0
    assert compare([], [row], "digest") == 1
    assert "DIFF" in capsys.readouterr().out
