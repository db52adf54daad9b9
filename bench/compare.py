"""Compare a parent and a change with the same benchmark code.

    python3 bench/compare.py run PARENT_DIR CHANGE_DIR --out pairs.jsonl
    python3 bench/compare.py report pairs.jsonl

`run` runs this directory's run.py with each checkout as working directory
(so each side imports its own ./src) on every workload of BENCHMARK.json:
MIN_PAIRS pairs per workload, alternating which side goes first, with the
same seed for both sides of a pair (FIRST_SEED, FIRST_SEED + 1, ...), and
appends every result to the JSONL file.  `report` prints, per workload and
end-to-end metric, each side's median and quartiles and a verdict:

- gain: over at least ten pairs, the change wins at least 9 of every 10
  (ties count for neither), the medians differ by more than the parent's
  interquartile spread, and no more ops fail than on the parent;
- regression: the change's median is worse than the parent's by more than
  the metric's bound;
- unresolved: a side's interquartile spread is wider than the bound, unless
  every change run reads better than every parent run;
- same: none of the above.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
GAIN_SHARE = 0.9
MIN_PAIRS = 10
#: seeds from here on are not used while a change is written
FIRST_SEED = 1000


def load_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


def run_pairs(args, spec):
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for workload in (w["name"] for w in spec["workloads"]):
        for pair in range(MIN_PAIRS):
            seed = FIRST_SEED + pair
            order = ["parent", "change"] if pair % 2 == 0 else \
                ["change", "parent"]
            for position, side in enumerate(order):
                proc = subprocess.run(
                    [sys.executable, RUN, "--workload", workload, "--seed",
                     str(seed), "--seconds", str(spec["run_seconds"]),
                     "--trace", "0"],
                    cwd=sides[side], capture_output=True, text=True,
                    timeout=600)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines and \
                    lines[-1].startswith("{") else None
                row = {"workload": workload, "pair": pair, "seed": seed,
                       "side": side, "position": position,
                       "exit": proc.returncode, "result": result}
                with open(args.out, "a") as f:
                    f.write(json.dumps(row) + "\n")
                print(f"{workload} pair {pair} {side}: exit "
                      f"{proc.returncode}", file=sys.stderr)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change, failed):
    """Verdict for one metric from paired values {pair: value}."""
    lower = metric["better"] == "lower"
    pairs = sorted(set(parent) & set(change))
    p = [parent[i] for i in pairs]
    c = [change[i] for i in pairs]
    if not pairs:
        return "no pairs", None, None, 0, 0

    def better(x, y):
        return x < y if lower else x > y

    pq, cq = _quartiles(p), _quartiles(c)
    wins = sum(better(ci, pi) for pi, ci in zip(p, c))
    bound = metric["bound"]
    worse = (cq[1] - pq[1]) / pq[1] * (1 if lower else -1)
    spread = max((pq[2] - pq[0]) / pq[1], (cq[2] - cq[0]) / cq[1])
    all_better = all(better(ci, pi) for ci in c for pi in p)
    if len(pairs) >= MIN_PAIRS \
            and wins >= math.ceil(GAIN_SHARE * len(pairs)) \
            and better(cq[1], pq[1]) \
            and abs(cq[1] - pq[1]) > pq[2] - pq[0] \
            and failed["change"] <= failed["parent"]:
        v = "gain"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse > bound:
        v = "regression"
    else:
        v = "same"
    return v, pq, cq, wins, len(pairs)


def report(path, spec):
    rows = [json.loads(line) for line in open(path) if line.strip()]
    ok = True
    for workload in sorted({r["workload"] for r in rows}):
        mine = [r for r in rows if r["workload"] == workload]
        failed = {s: sum(r["result"]["failed"] if r["result"] else 1
                         for r in mine if r["side"] == s)
                  for s in ("parent", "change")}
        print(f"{workload}: failed ops parent {failed['parent']}, "
              f"change {failed['change']}")
        for metric in spec["end_to_end"]:
            vals = {s: {r["pair"]: r["result"]["metrics"][metric["name"]]
                        ["value"]
                        for r in mine if r["side"] == s and r["result"]}
                    for s in ("parent", "change")}
            v, pq, cq, wins, n = verdict(metric, vals["parent"],
                                         vals["change"], failed)
            ok = ok and v != "regression"
            if pq is None:
                print(f"  {metric['name']:12s} {v}")
                continue
            print(f"  {metric['name']:12s} parent {pq[1]:.6g} "
                  f"[{pq[0]:.6g}, {pq[2]:.6g}]  change {cq[1]:.6g} "
                  f"[{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']}  "
                  f"change better in {wins}/{n} pairs  {v}")
    return 0 if ok else 1


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("parent")
    r.add_argument("change")
    r.add_argument("--out", required=True)
    p = sub.add_parser("report")
    p.add_argument("results")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run_pairs(args, spec)
        return report(args.out, spec)
    return report(args.results, spec)


if __name__ == "__main__":
    sys.exit(main())
