"""Self-test of the output checks: ``python3 bench/selftest.py``.

Feeds check.py a known-good sweep and shifts table, then corrupted
copies of them -- a NaN, a dropped row, a changed digit, a dtpq row below
fixed, a missing cell.  The good outputs must pass and every corrupted
one must be rejected.  run.py runs this before measuring.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import check
from workloads import Job

SWEEP = """\
axis_value,continuous_dbm,dtpq_dbm,dtpq_threshold_deg,eipq_dbm,eipq_threshold_deg,fixed_dbm,fixed_threshold_deg
5.0000,-38.0238,-40.7794,162.8230,-40.7794,160.0000,-43.3189,235.0000
5.1000,-38.1908,-40.9616,293.2379,-40.9628,110.0000,-42.0216,235.0000
5.2000,-38.3547,-41.1446,63.7469,-41.1457,65.0000,-41.1645,235.0000
"""

SHIFTS = """\
n,m,level_index,level_deg
1,1,0,55.0000
2,1,1,235.0000
1,2,1,235.0000
2,2,0,55.0000
"""

SWEEP_JOB = Job(name="sweep", kind="sweep", argv=(), out="sweep.csv", rows=3, designs=9,
                params={"start": 5.0, "step": 0.1, "bits": 1,
                        "methods": ("continuous", "dtpq", "eipq", "fixed")})
SHIFTS_JOB = Job(name="c4-fixed", kind="quantize", argv=(), out="shifts.csv", rows=1, designs=1,
                 params={"group": "c4", "method": "fixed", "rows": 2, "cols": 2, "bits": 1})
QUANTIZE_STDOUT = "threshold_deg=10.0000\nxi=1.0e+00\nreceived_power_dbm=-40.0000\n"

# (case, job, corrupted text, compare digests)
CASES = (
    ("NaN value", SWEEP_JOB, SWEEP.replace("-40.9616", "nan"), False),
    ("dropped row", SWEEP_JOB, SWEEP.rsplit("5.2000", 1)[0], False),
    ("dtpq below fixed", SWEEP_JOB, SWEEP.replace("-41.1446", "-41.2000"), False),
    ("changed digit", SWEEP_JOB, SWEEP.replace("-38.1908", "-38.1909"), True),
    ("missing cell", SHIFTS_JOB, SHIFTS.replace("2,2,0", "1,2,0"), False),
)


def _failures(job: Job, text: str, root: Path, digests: dict | None) -> dict[str, str]:
    (root / job.out).write_text(text)
    stdout = QUANTIZE_STDOUT if job.kind == "quantize" else ""
    return check.check_pass([job], {job.name: (0, stdout)}, root, digests)


def run(root: Path) -> list[str]:
    """Problems found; empty when good outputs pass and every corruption is caught."""
    problems = []
    digests = {SWEEP_JOB.name: hashlib.sha256(SWEEP.encode()).hexdigest()}
    for job, text in ((SWEEP_JOB, SWEEP), (SHIFTS_JOB, SHIFTS)):
        failures = _failures(job, text, root, digests if job is SWEEP_JOB else None)
        if failures:
            problems.append(f"good {job.name} output rejected: {failures}")
    for case, job, text, with_digests in CASES:
        if not _failures(job, text, root, digests if with_digests else None):
            problems.append(f"{case} was not rejected")
    return problems


if __name__ == "__main__":
    work = Path(".bench_work/selftest")
    work.mkdir(parents=True, exist_ok=True)
    found = run(work)
    for problem in found:
        print(problem)
    print("self-test", "FAILED" if found else "passed")
    sys.exit(1 if found else 0)
