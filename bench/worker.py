"""The processes of one benchmark run.

    python3 bench/worker.py setup
    python3 bench/worker.py call WORKLOAD SEED RUN_DIR NAME TRACE
    python3 bench/worker.py check WORKLOAD SEED RUN_DIR NAME=RC...

Run from the root of a checkout: rotstar is imported from ./src and every
file is written under ./.bench_out.  The last line of standard output is
one JSON object.

- `setup` imports rotstar, warms BLAS up and reports the time it took.
- `call` does the same set-up, then makes one CLI call with the config in
  RUN_DIR/run.cfg, writing to RUN_DIR/NAME, and reports its exit code, wall
  and CPU times and the process's peak RSS.  Each call is a fresh process,
  so no call finds state an earlier call left in memory.  With TRACE = 1
  the call runs with spans on and also reports per-layer metrics.
- `check` runs the oracles and checks the files of every named call (RC is
  the call's exit code), outside any timed region, and reports the failed
  ops and the run's metadata.
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import checks
from workloads import make_inputs

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_out")
HERE = os.path.dirname(os.path.abspath(__file__))
# sizes the workloads factor: the 512-node ladder SVD and the 336-unknown
# Newton solve
WARM_SVD, WARM_SOLVE = 512, 336


def setup():
    """Import rotstar from ./src and pay the one-time BLAS warm-up.
    Returns (seconds, rotstar.cli.main)."""
    t0 = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import rotstar.cli
    if not os.path.abspath(rotstar.__file__).startswith(src + os.sep):
        raise ImportError(f"rotstar imported from {rotstar.__file__}, "
                          f"not from {src}")
    import numpy as np
    a = np.random.default_rng(0).standard_normal((WARM_SVD, WARM_SVD))
    np.linalg.svd(a)
    np.linalg.solve(a[:WARM_SOLVE, :WARM_SOLVE], a[:WARM_SOLVE, 0])
    return time.perf_counter() - t0, rotstar.cli.main


def tree_digest(top):
    """sha256 of the .py and .json files under `top`, with their paths."""
    h = hashlib.sha256()
    paths = [p for ext in ("py", "json")
             for p in glob.glob(os.path.join(top, "**", f"*.{ext}"),
                                recursive=True)]
    for path in sorted(paths):
        h.update(os.path.relpath(path, top).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def _blas():
    """OpenBLAS build string and thread count, read from the library numpy
    loaded; None where it cannot be read."""
    import ctypes
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for pre, suf in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                         ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{pre}_get_num_threads{suf}")
                config = getattr(lib, f"{pre}_get_config{suf}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            return config().decode(), threads()
    return None, None


def metadata():
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas, threads = _blas()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "cpu": cpu or platform.processor(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(),
            "src_sha256": tree_digest(os.path.join(ROOT, "src"))}


def call_cli(main, argv):
    """One CLI call; its console output is kept out of ours.  An exception
    escaping main counts as exit code 1."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv), None
        except Exception:
            return 1, traceback.format_exc(limit=3)


def call(workload, seed, run_dir, name, trace):
    inputs = make_inputs(workload, seed)
    setup_s, main = setup()
    argv = [inputs.command, "--config", os.path.join(run_dir, "run.cfg"),
            "--out", os.path.join(run_dir, name)]
    tr = None
    if trace:
        # imported after set-up, which times the numpy import
        import tracing
        tr = tracing.Tracer()
        tr.install()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        rc, err = tr.run(call_cli, main, argv) if tr \
            else call_cli(main, argv)
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tr:
            tr.uninstall()
    out = {"name": name, "rc": rc, "err": err, "setup_s": setup_s,
           "wall_s": wall, "cpu_s": cpu,
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tr:
        out["layers"] = tracing.layer_metrics(tr)
        out["missing_spans"] = tr.missing
        spans = os.path.join(OUT, "spans", workload, f"{name}.csv")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        tr.write(spans)
    return out


def _store_path(inputs, meta):
    """Where the digests of the first passing call of this seed are kept.
    The key covers everything that decides the bytes of an output: the
    source tree, the benchmark's own files, the config and the versions of
    Python, NumPy and SciPy."""
    key = hashlib.sha256(json.dumps(
        [meta["src_sha256"], tree_digest(HERE), inputs.config_text(),
         meta["python"], meta["numpy"], meta["scipy"]]).encode())
    return os.path.join(OUT, "digests", f"{inputs.workload}-seed"
                        f"{inputs.seed}-{key.hexdigest()[:16]}.json")


def check(workload, seed, run_dir, named_rcs):
    inputs = make_inputs(workload, seed)
    setup()
    meta = metadata()
    calls = [(name, int(rc)) for name, rc in
             (arg.rsplit("=", 1) for arg in named_rcs)]
    notes = []
    try:
        orc = checks.oracle(inputs, os.path.join(run_dir, "oracle"))
    except Exception:
        orc = None
        notes.append("oracle failed: " + traceback.format_exc(limit=3))
    dirs = [os.path.join(run_dir, name) for name, _ in calls]
    results = [checks.check_rep(inputs, d, rc, orc)
               for d, (_, rc) in zip(dirs, calls)]
    checks.check_identical([checks.digest_dir(d) for d in dirs],
                           _store_path(inputs, meta), results)
    for r in results:
        notes.extend(r.notes)
    return {"failed": sum(len(r.failed) for r in results),
            "notes": sorted(set(notes))[:20], "meta": meta}


def main(argv):
    if argv[:1] == ["setup"]:
        seconds, _ = setup()
        result = {"setup_s": seconds}
    elif argv[:1] == ["call"] and len(argv) == 6:
        result = call(argv[1], int(argv[2]), argv[3], argv[4], int(argv[5]))
    elif argv[:1] == ["check"] and len(argv) >= 5:
        result = check(argv[1], int(argv[2]), argv[3], argv[4:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
