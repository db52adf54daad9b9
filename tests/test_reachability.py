"""The library is what the commands run (ROADMAP aim 2, D15): every function
and method defined in src/rotstar is called by some CLI command.

The commands run once each through cli.main, in one fresh interpreter (so
no cache that an earlier test filled hides a call), on small configs that
reach every command and exit path, under sys.setprofile from after the
import of the package; the functions are found by ast.
Two rules exempt a definition: a function used as a decorator (it runs at
import), and the pressure p of each law, which no command reads until the
virial identity of D13 does.

The same interpreter checks that no command imports numpy.ma: numpy loads
it lazily, at a cost of about 8.5 ms, on the first call of a function such
as np.unique.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import rotstar

SRC = os.path.dirname(rotstar.__file__)

#: (command, config, expected exit code): EP gamma 1.5, VP mu = 0.25, the
#: power sum, and the degenerate gamma = 4/3 perturb for exit 4
RUNS = [(cmd, "gamma = 1.5\nkappas = 0,1e-3\nn = 64\nells = 0,2\nns = 64\n", 0)
        for cmd in ("radial", "perturb", "continue", "kernel-margin",
                    "mass-curve", "eos-check")] \
    + [(cmd, "model = vp\nmu = 0.25\npsi2 = 0.1\nkappas = 0,1e-2\nn = 64\n"
        "ells = 0\nns = 64\n", 0)
       for cmd in ("radial", "perturb", "continue", "kernel-margin")] \
    + [(cmd, "eos = power_sum\nn_samples = 2\n", 0)
       for cmd in ("mass-curve", "eos-check")] \
    + [("perturb", f"gamma = {4.0 / 3.0!r}\nn = 192\n", 4)]

#: run in a fresh interpreter: every argv of sys.argv[1] through cli.main
#: under the profiler; prints the exit codes, the called functions and
#: whether numpy.ma was imported
_PROBE = """
import json, sys
from rotstar.cli import main
called = set()
def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_qualname))
sys.setprofile(profile)
codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(called),
                  "numpy_ma": "numpy.ma" in sys.modules}))
"""


def _decorator_names(tree):
    names = set()
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", ()):
            dec = dec.func if isinstance(dec, ast.Call) else dec
            names.add(dec.attr if isinstance(dec, ast.Attribute) else
                      getattr(dec, "id", None))
    return names


def _functions(tree):
    """(qualified name as in co_qualname, node, enclosing class or None) of
    every def in a module."""
    out = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out.append((name, child, cls))
                visit(child, name + ".<locals>.", None)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", child)
            else:
                visit(child, prefix, cls)
    visit(tree, "", None)
    return out


def _library_functions():
    """(file, qualname) of every function in src/rotstar that a command
    must call, the two exemptions applied."""
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as f:
                trees[path] = ast.parse(f.read())
    decorators = set().union(*map(_decorator_names, trees.values()))
    want = set()
    for path, tree in trees.items():
        for qualname, node, cls in _functions(tree):
            if node.name in decorators:
                continue
            if cls is not None and node.name == "p":   # a law's pressure
                continue
            want.add((path, qualname))
    return want


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """The probe's report on every run of RUNS."""
    tmp_path = tmp_path_factory.mktemp("probe")
    argvs = []
    for i, (command, text, _) in enumerate(RUNS):
        cfg = tmp_path / f"run{i}.cfg"
        cfg.write_text(text)
        argvs.append([command, "--config", str(cfg),
                      "--out", str(tmp_path / f"out{i}")])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argvs)],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


def test_every_library_function_runs_in_a_command(report):
    assert report["codes"] == [code for _, _, code in RUNS]
    called = {tuple(c) for c in report["called"]}
    missing = sorted(f"{os.path.basename(path)}:{name}"
                     for path, name in _library_functions() - called)
    assert missing == []


def test_commands_leave_numpy_ma_unimported(report):
    assert report["numpy_ma"] is False
