"""rotstar benchmark: one workload per run, or all of them.

    python3 bench/run.py --workload ep-continue --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout (rotstar is imported from ./src; outputs go
to ./.bench_out).  A run starts one fresh worker process per CLI call, each
timing its own set-up and then its call, until --seconds have passed; then
a check process verifies every output.  It prints a record line followed by
one JSON line with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of traced calls, which alternate with untraced ones.  The
exit code is nonzero when a check fails or the worker cannot run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
WORKER = os.path.join(HERE, "worker.py")
OUT = ".bench_out"
#: setup_s is the median of at least this many set-ups; set-up-only
#: processes make up for runs with fewer calls
MIN_SETUPS = 3
#: every run ends within this many seconds
DEADLINE = 175.0


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def _worker(args, t_end):
    """Run a worker to completion and parse its last line."""
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    proc = subprocess.run([sys.executable, WORKER] + args, env=env,
                          capture_output=True, text=True,
                          timeout=max(t_end - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _calls(workload, seed, run_dir, seconds, trace, t_end):
    """Call workers until `seconds` have passed or the next call would pass
    them, at least once.  With trace, untraced and traced calls alternate,
    at least one of each."""
    calls = []
    t_start = time.monotonic()
    while True:
        traced = trace and len(calls) % 2 == 1
        t0 = time.monotonic()
        res = _worker(["call", workload, str(seed), run_dir,
                       f"call{len(calls)}", str(int(traced))], t_end)
        res["traced"] = traced
        calls.append(res)
        now = time.monotonic()
        if (not trace or len(calls) >= 2) \
                and now - t_start + (now - t0) > seconds:
            return calls


def run_one(spec, workload, seed, seconds, trace):
    """One benchmark run; returns (record, result line)."""
    t_end = time.monotonic() + DEADLINE
    inputs = make_inputs(workload, seed)
    run_dir = os.path.abspath(os.path.join(
        OUT, "runs", f"{workload}-seed{seed}-{os.getpid()}"))
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "run.cfg"), "w") as f:
        f.write(inputs.config_text())
    if trace:
        shutil.rmtree(os.path.join(OUT, "spans", workload),
                      ignore_errors=True)

    calls = _calls(workload, seed, run_dir, seconds, trace, t_end)
    plain = [c for c in calls if not c["traced"]]
    setups = [c["setup_s"] for c in calls]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(_worker(["setup"], t_end)["setup_s"])
    chk = _worker(["check", workload, str(seed), run_dir]
                  + [f"{c['name']}={c['rc']}" for c in calls], t_end)
    attempted = inputs.ops * len(calls)
    notes = sorted({c["err"] for c in calls if c["err"]} | set(chk["notes"]))

    if trace:
        traced = [c for c in calls if c["traced"]]
        values = {k: statistics.median_low(c["layers"][k] for c in traced)
                  for k in traced[0]["layers"]}
        values["trace.overhead"] = \
            statistics.median(c["wall_s"] for c in traced) \
            / statistics.median(c["wall_s"] for c in plain)
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(c["wall_s"] for c in plain),
                  "cpu_s": statistics.median(c["cpu_s"] for c in plain),
                  "peak_rss_mb":
                      statistics.median(c["peak_rss_mb"] for c in plain)}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    line = {"correct": chk["failed"] == 0, "attempted": attempted,
            "failed": chk["failed"], "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "fail_frac": chk["failed"] / attempted,
              "setup_samples_s": setups,
              "wall_samples_s": [c["wall_s"] for c in plain],
              "cpu_samples_s": [c["cpu_s"] for c in plain],
              "rss_samples_mb": [c["peak_rss_mb"] for c in plain],
              "metrics": values, "inputs": inputs.config,
              "notes": notes[:20], "meta": chk["meta"]}
    if trace:
        record["traced_wall_samples_s"] = [c["wall_s"] for c in traced]
        record["missing_spans"] = traced[0]["missing_spans"]
    if chk["failed"]:
        record["kept_outputs"] = os.path.relpath(run_dir)
    else:
        shutil.rmtree(run_dir)
    path = os.path.join(OUT, "results",
                        f"{workload}-seed{seed}-trace{trace}-"
                        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"record": record, "result": line}, f, indent=1)
    return record, line


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print a table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")

    ok = True
    for workload in names if args.all else [args.workload]:
        try:
            record, line = run_one(spec, workload, args.seed, args.seconds,
                                   args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                KeyError, IndexError) as e:
            print(f"{workload}: benchmark could not run: {e}",
                  file=sys.stderr)
            return 1
        ok = ok and line["correct"]
        if args.all:
            for name, m in line["metrics"].items():
                print(f"{workload:14s} {name:32s} {m['value']:14.6g} "
                      f"{m['unit']}")
            print(f"{workload:14s} {'fail_frac':32s} "
                  f"{record['fail_frac']:14.6g} ratio "
                  f"({line['failed']} of {line['attempted']})")
            for note in record["notes"]:
                print(f"{workload:14s} FAILED: {note}")
        else:
            print("record " + json.dumps(record))
            print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
