"""Every demo script and the README's python examples run to completion
with deprecations as errors."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(*args):
    """Run python with args from the repository root, src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = _run(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_examples_run():
    # the two examples run in order in one interpreter: the second reads
    # newton_continue and solve_radial from the first
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme,
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    proc = _run("-c", "\n".join(blocks))
    assert proc.returncode == 0, proc.stderr
