"""Smoke tests: the experiment scripts run end to end on a small fixture.

Both import jzr internals directly, so a renamed or removed name shows up
here rather than at the next manual run.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_demo_pipeline(tmp_path):
    result = run_script("demo_pipeline.py", "--n-roots", "30",
                        "--workdir", str(tmp_path / "demo"))
    assert result.returncode == 0, result.stderr
    assert "planted rules recovered: 10/10" in result.stdout
    assert (tmp_path / "demo" / "rules.db").is_file()


def test_ablation():
    result = run_script("ablation.py", "--n-roots", "30")
    assert result.returncode == 0, result.stderr
    assert "accuracy\tfull\t1050/1050\t1.0" in result.stdout
