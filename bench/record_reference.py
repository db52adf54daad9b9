"""Record the seed-0 reference values the checks compare against.

    python3 bench/record_reference.py

Run from the root of a checkout.  It writes bench/reference_seed0.json from
one CLI call per workload.  Record again only when a change is meant to move
the outputs, and say so with the change.
"""

import csv
import json
import os
import sys

import checks
import worker
from run import load_spec
from workloads import make_inputs


def main():
    _, cli_main = worker.setup()
    ref = {}
    for workload in (w["name"] for w in load_spec()["workloads"]):
        inputs = make_inputs(workload, 0)
        out_dir = os.path.join(worker.OUT, "reference", workload)
        os.makedirs(out_dir, exist_ok=True)
        cfg = os.path.join(out_dir, "run.cfg")
        with open(cfg, "w") as f:
            f.write(inputs.config_text())
        rc, err = worker.call_cli(cli_main, [inputs.command, "--config",
                                             cfg, "--out", out_dir])
        if rc != 0:
            sys.exit(f"{workload}: exit code {rc}\n{err or ''}")
        with open(os.path.join(out_dir, checks.MAIN_FILE[inputs.command]),
                  newline="") as f:
            ref[workload] = list(csv.reader(f))[1:]
    with open(checks.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
