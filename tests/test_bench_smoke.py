"""The benchmark's quick mode runs one checked op of each workload against this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_short_mode_reads_ok_on_every_workload():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    status = {ln.split()[0]: ln.split()[-1] for ln in proc.stdout.splitlines() if ln.strip()}
    for workload in ("wave_ladder", "front_spread", "verify_quick"):
        assert status.get(workload) == "ok", proc.stdout
