"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_all_tables_writes_reports(tmp_path):
    out = run_script("run_all_tables.py", "--ids", "3", "--scale", "2000", "--runs", "1",
                     "--out", str(tmp_path))
    assert "[3] 4 files" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "table3-aes.csv", "table3-aes.json", "table3-euler.csv", "table3-euler.json"]


def test_scheme_comparison_prints_one_row():
    out = run_script("scheme_comparison.py", "--paths", "500", "--runs", "1", "--steps", "20")
    header, *rows = out.strip().splitlines()
    assert header.split()[:3] == ["M", "aes", "price"]
    assert len(rows) == 1 and rows[0].split()[0] == "20"
