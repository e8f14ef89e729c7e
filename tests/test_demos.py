import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
README_COMMANDS = re.search(r"^## Command line\n\n```\n(.*?)^```$", README, re.M | re.S)[1].splitlines()


def test_demos_found():
    assert DEMOS


def run_python(args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120, cwd=cwd)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    run_python([str(demo)])


def test_readme_python_blocks_run():
    assert README_BLOCKS
    for block in README_BLOCKS:
        run_python(["-c", block])


def test_readme_commands_run(tmp_path):
    # in order, in one directory, so each verify reads the catalog a sweep above it wrote
    assert any(line.startswith("gbcodex verify catalog.csv") for line in README_COMMANDS)
    for line in README_COMMANDS:
        program, *args = shlex.split(line, comments=True)
        assert program == "gbcodex", line
        run_python(["-m", "gbcodex", *args], cwd=tmp_path)


def test_readme_schema_matches_sweep_output(tmp_path):
    # the README's header keys, record keys and CSV columns are what `gbcodex sweep` writes
    run_python(["-m", "gbcodex", "sweep", "--max-length", "10", "--output", "c.ndjson"], cwd=tmp_path)
    run_python(["-m", "gbcodex", "sweep", "--max-length", "10", "--format", "csv", "--output", "c.csv"], cwd=tmp_path)
    header, *records = map(json.loads, (tmp_path / "c.ndjson").read_text().splitlines())
    with open(tmp_path / "c.csv", newline="") as f:
        columns = next(csv.reader(f))
    text = " ".join(README.split())
    header_text = re.search(r"The JSON header record is `(\{.*?\})`", text)[1]
    assert re.findall(r'"([a-z_]+)"(?=[,:}])', header_text) == sorted(header)
    assert f'"version": {header["version"]}' in header_text
    record_keys = re.search(r"each code record holds `([^`]*)`", text)[1].split(", ")
    assert records and all(sorted(r) == sorted(record_keys) for r in records)
    assert len(record_keys) == len(set(record_keys))
    assert re.search(r"CSV export with columns `([^`]*)`", text)[1] == ",".join(columns)
    assert f"A CSV row must have exactly {len(columns)} fields" in text
