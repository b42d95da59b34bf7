"""Fast-tier wiring for the mechanical determinism lints (tools/).

Two invariants are enforced on every decision-path module:

- **No set iteration** (PR 2): no scheduling/placement/replication
  decision may depend on set iteration order.  Waiver: an audited
  ``# set-order-ok`` comment.
- **No wall-clock reads** (ISSUE 8): simulated components take time from
  ``sim.now`` only; ``time.time()``/``perf_counter()``/``datetime.now()``
  must never leak into ``sim/``, ``net/``, ``mapreduce/``, ``hdfs/``,
  ``grid/``, ``storage/``, ``faults/``, ``core/``, or ``baselines/``.
  Waiver: ``# wallclock-ok``.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from lint_no_set_iteration import lint_tree as lint_sets  # noqa: E402
from lint_no_wallclock import lint_tree as lint_wallclock  # noqa: E402


def test_no_set_iteration_in_decision_modules():
    messages = lint_sets(REPO / "src")
    assert not messages, "\n".join(messages)


def test_no_wallclock_in_decision_modules():
    messages = lint_wallclock(REPO / "src")
    assert not messages, "\n".join(messages)


def test_wallclock_lint_catches_and_waives(tmp_path):
    """The lint flags each forbidden form and honours the waiver."""
    sys.path.insert(0, str(REPO / "tools"))
    from lint_no_wallclock import lint_file
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import time\n"
        "from time import perf_counter\n"
        "import datetime\n"
        "a = time.time()\n"
        "b = perf_counter()\n"
        "c = datetime.datetime.now()\n"
        "d = time.monotonic()  # wallclock-ok\n"
        "e = obj.now()\n")
    findings = lint_file(bad)
    flagged_lines = sorted(line for line, _ in findings)
    assert flagged_lines == [4, 5, 6]
