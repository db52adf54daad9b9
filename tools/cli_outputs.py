"""Record the command-line outputs of a fixed set of runs, for bit-identity
checks of refactors.

    python tools/cli_outputs.py --src SRC OUT

runs each run of RUNS as `python -m rotstar COMMAND --config run.cfg --out .`
in its own directory OUT/NAME, with rotstar imported from the source tree
SRC (the directory that holds the `rotstar` package).  Next to the files the
command writes, it records stdout.txt, stderr.txt and exit_code.txt.  Two
such directories, one per source tree, compare with

    diff -r OUT_A OUT_B

which is empty when the two trees give the same files, messages and exit
codes bit for bit.  The script imports nothing from rotstar.
"""

import argparse
import os
import shutil
import subprocess
import sys

_TURNING = "eos = power_sum\nterms = 1:1.25,1:1.8\n"
_SUM = "eos = power_sum\nterms = 1:1.5,1:1.8\n"
_VP_ROT = "model = vp\nmu = 0.25\npsi2 = 0.1\n"

#: (name, command, config text)
RUNS = [
    ("ep15-radial", "radial", "gamma = 1.5\n"),
    ("ep15-perturb", "perturb", "gamma = 1.5\nkappas = 0,1e-3\n"),
    ("ep15-continue", "continue", "gamma = 1.5\nkappas = 0,5e-4,1e-3\n"),
    ("ep15-continue-inexact-step", "continue",
     "gamma = 1.5\nkappas = 0,4.8e-5,4.03e-4\n"),
    ("ep43-kernel-margin", "kernel-margin", f"gamma = {4.0 / 3.0!r}\n"),
    ("ep43-continue", "continue", f"gamma = {4.0 / 3.0!r}\n"),
    ("ep19-continue", "continue", "gamma = 1.9\nkappas = 0,5e-3,1e-2\n"),
    ("ep13-continue", "continue", "gamma = 1.3\nkappas = 0,1.5e-6,3e-6\n"),
    ("sum-mass-curve", "mass-curve", _SUM),
    ("sum-eos-check", "eos-check", _SUM),
    ("sum-continue", "continue", _SUM + "kappas = 0,5e-4\n"),
    ("turning-perturb", "perturb", _TURNING + "a = 3.661787926\n"),
    ("turning-kernel-margin", "kernel-margin", _TURNING + "a = 3.6255326\n"),
    ("vp025-radial", "radial", "model = vp\nmu = 0.25\n"),
    ("vp025-perturb", "perturb", _VP_ROT + "kappas = 0,1e-2\n"),
    ("vp025-continue", "continue", _VP_ROT + "kappas = 0,1e-2,2e-2\n"),
    ("vp025-kernel-margin", "kernel-margin", "model = vp\nmu = 0.25\n"),
    ("vp-15-mass-curve", "mass-curve", "model = vp\nmu = -1.5\n"),
    ("vp-15-continue", "continue",
     "model = vp\nmu = -1.5\npsi2 = 0.1\nkappas = 0,1e-2,2e-2\n"),
    ("vp-4-radial", "radial", "model = vp\nmu = -4\n"),
    ("sum1-radial", "radial", "eos = power_sum\nterms = 1:1.5\n"),
    ("sum-overflow-radial", "radial", "eos = power_sum\nterms = 1e-300:1.5\n"),
    ("ep-a1e300-radial", "radial", "a = 1e300\n"),
    ("margin-l200", "kernel-margin", "ells = 200\nns = 64\n"),
    ("vp-omega-continue", "continue",
     _VP_ROT + "kappas = 0,1e-2\nomega = 3\n"),
    ("ep-psi2-radial", "radial", "gamma = 1.5\npsi2 = 0.1\nmu = 0.3\n"),
    ("ep20-radial", "radial", "gamma = 2\n"),
    ("radial-foreign-keys", "radial",
     "a_min = 3\nns = 3\nkappas = 1\ntol = 5\n"),
    ("continue-foreign-keys", "continue", "a_min = 3\n"),
]


def record(src, out, name, command, text):
    """Run one command in the fresh directory out/name and record its
    streams and exit code there; returns the exit code."""
    run_dir = os.path.join(out, name)
    if os.path.exists(run_dir):
        shutil.rmtree(run_dir)
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "run.cfg"), "w") as f:
        f.write(text)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "rotstar", command, "--config", "run.cfg",
         "--out", "."], cwd=run_dir, env=env, capture_output=True, text=True)
    for fname, data in (("stdout.txt", proc.stdout),
                        ("stderr.txt", proc.stderr),
                        ("exit_code.txt", f"{proc.returncode}\n")):
        with open(os.path.join(run_dir, fname), "w") as f:
            f.write(data)
    return proc.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True,
                    help="source tree that holds the rotstar package")
    ap.add_argument("out", help="directory for the recorded runs")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(args.src, "rotstar")):
        ap.error(f"no rotstar package under {args.src}")
    for name, command, text in RUNS:
        code = record(args.src, args.out, name, command, text)
        print(f"{name}: {command} exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
