"""Self-test: corrupted outputs must count as failed ops.

    python3 bench/selftest.py

Run from the root of a checkout.  It makes one kernel-ladder call at seed 0,
checks that it passes, then damages copies of its output in four ways and
checks that each is counted as a failure.  Exits nonzero if any case is not.
"""

import os
import shutil
import sys

import checks
import worker
from workloads import make_inputs


def _rewrite(path, edit):
    with open(path) as f:
        lines = f.read().splitlines(keepends=True)
    with open(path, "w") as f:
        f.writelines(edit(lines))


def _scale_row(i, factor):
    def edit(lines):
        l, n, s = lines[i].strip().split(",")
        lines[i] = f"{l},{n},{float(s) * factor!r}\n"
        return lines
    return edit


def _last_digit(i):
    def edit(lines):
        s = lines[i].rstrip("\n")
        lines[i] = s[:-1] + ("1" if s[-1] != "1" else "2") + "\n"
        return lines
    return edit


def main():
    _, cli_main = worker.setup()
    inputs = make_inputs("kernel-ladder", 0)
    base = os.path.join(worker.OUT, "selftest")
    shutil.rmtree(base, ignore_errors=True)
    good = os.path.join(base, "good")
    os.makedirs(good)
    cfg = os.path.join(base, "run.cfg")
    with open(cfg, "w") as f:
        f.write(inputs.config_text())
    rc, err = worker.call_cli(cli_main, [inputs.command, "--config", cfg,
                                         "--out", good])
    csv_name = checks.MAIN_FILE[inputs.command]

    cases = [
        # (name, edit of the CSV lines or None, exit code, expect failure)
        ("untouched", None, rc, False),
        ("l=2 sigma_min scaled by 1.2", _scale_row(8, 1.2), rc, True),
        ("last row dropped", lambda lines: lines[:-1], rc, True),
        ("last digit of one value changed", _last_digit(12), rc, True),
        ("nonzero exit code", None, 3, True),
    ]
    ok = True
    for i, (name, edit, code, expect) in enumerate(cases):
        out = os.path.join(base, f"case{i}")
        shutil.copytree(good, out)
        if edit:
            _rewrite(os.path.join(out, csv_name), edit)
        chk = checks.check_rep(inputs, out, code, {})
        store = os.path.join(base, f"digests{i}.json")
        checks.check_identical([checks.digest_dir(good),
                                checks.digest_dir(out)], store,
                               [checks.RepCheck(inputs.ops), chk])
        counted = len(chk.failed) > 0
        ok = ok and counted == expect
        print(f"{'ok  ' if counted == expect else 'FAIL'} {name}: "
              f"{len(chk.failed)} of {inputs.ops} ops failed"
              + (f" ({chk.notes[0]})" if chk.notes else ""))
    shutil.rmtree(base)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
