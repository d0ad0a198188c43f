import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    # the README's demo list names exactly the scripts in demos/
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Demos", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^(?:\d+\.|-) `([^`]+\.py)`", section, re.M)
    assert listed == [demo.name for demo in DEMOS]


def _run_fresh(args, cwd):
    """Run python with ``args`` in a fresh interpreter in ``cwd``, importing the package from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a fresh interpreter in an empty directory: demo 05 writes its CSVs into the working directory
    proc = _run_fresh([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run_fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
