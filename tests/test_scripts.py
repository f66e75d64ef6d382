"""Smoke tests: the scripts under scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

from chowbg.cli import render_row_value
from chowbg.models import chow_symmetric_sylow_bound

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=120,
    )


def check_clean(done):
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.strip()


def test_symmetric_survey():
    done = run_script("symmetric_survey.py", "--max-n", "12", "--max-degree", "6")
    check_clean(done)
    lines = done.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("S_4 at p=2 "))
    rows = chow_symmetric_sylow_bound(4, 2, 6).rows
    expected = "  ".join(f"{row.degree}:{render_row_value(row)}" for row in rows)
    assert lines[header + 1] == f"  [Sylow upper bound] {expected}"


def test_catalog_tables():
    check_clean(run_script("catalog_tables.py", "--max-degree", "4"))
