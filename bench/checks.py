"""Correctness checks on the files one CLI call wrote.

Each requested result is one op: a kappa state, a mass-curve sample or a
kernel-ladder row.  An op fails when the call exits nonzero, when its output
is missing or malformed, or when a check on it fails.  The tolerances are the
ones the acceptance tests use (tests/test_acceptance.py):

- continuation: residual below `tol`, mass held to 1e-6 relative (test_09),
  EP secant oblateness within 5% of first order (test_07), VP bulge ratio
  between kappa = 2e-2 and 1e-2 within 4 +- 0.4 (test_11);
- mass curve: |M'| a/M > 1e-3 (test_06), M' against a central difference
  of M to 1e-5 relative (test_03);
- kernel ladder: l = 0 sigma_min at least halves per refinement, l >= 2
  varies by less than 10% (test_04).

At seed 0 the values must also match `reference_seed0.json`, recorded from
the same CLI calls.  The oracles (`radial`, `perturb`, extra radial solves)
run outside the timed region.
"""

import csv
import hashlib
import json
import math
import os

from workloads import mass_curve_grid

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference_seed0.json")

MAIN_FILE = {"continue": "continue.csv", "mass-curve": "mass_curve.csv",
             "kernel-margin": "kernel_margin.csv"}
HEADERS = {
    "continue": ["kappa_intensity", "R_eq_length", "R_pole_length", "M_mass",
                 "residual_sup", "newton_iters"],
    "mass-curve": ["a_enthalpy", "R_length", "M_mass",
                   "Mprime_mass_per_enthalpy"],
    "kernel-margin": ["l_mode", "n_nodes", "sigma_min_dimensionless"],
}
MASS_REL = 1e-6
SECANT_REL = 0.05
VP_RATIO, VP_RATIO_TOL = 4.0, 0.4
MPRIME_FLOOR = 1e-3
FD_STEP, FD_REL = 1e-4, 1e-5
FALL_FACTOR = 0.5
STEADY_REL = 0.10
# seed-0 reference: physical values, not residuals or iteration counts
REF_REL = 1e-8
# sigma_min near the rounding level (the degenerate l = 0, 1 blocks) is
# compared to within a factor of two
SIGMA_REF_REL, SIGMA_ROUNDING = 1e-6, 1e-8


class RepCheck:
    """Failed op indices and the reasons, for one CLI call."""

    def __init__(self, ops):
        self.ops = ops
        self.failed = set()
        self.notes = []

    def fail(self, ops, why):
        self.failed.update(ops)
        self.notes.append(why)

    def fail_all(self, why):
        self.fail(range(self.ops), why)


def _read_rows(path, header):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != header:
        raise ValueError(f"{os.path.basename(path)}: bad header")
    return [[float(x) for x in row] for row in rows[1:]]


def _rel(x, ref):
    return abs(x - ref) / max(abs(ref), 1e-300)


def _finite(row):
    return all(math.isfinite(x) for x in row)


# ---------------------------------------------------------------------------
# oracles, computed once per run from untimed calls


def _cli(main, command, config, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "oracle.cfg")
    with open(path, "w") as f:
        f.write("".join(f"{k} = {v}\n" for k, v in config.items()))
    rc = main([command, "--config", path, "--out", out_dir])
    if rc != 0:
        raise RuntimeError(f"oracle {command} exited {rc}")


def oracle(inputs, aux_dir):
    """Reference data the checks compare against.  Imports rotstar, so it
    runs in the worker after the timed calls."""
    from rotstar.cli import main
    cfg = inputs.config
    out = {}
    if inputs.command == "continue":
        _cli(main, "radial", cfg, aux_dir)
        with open(os.path.join(aux_dir, "star.json")) as f:
            star = json.load(f)
        out["R"], out["mass"] = star["R"], star["mass"]
        if cfg["model"] == "ep":
            _cli(main, "perturb", cfg, aux_dir)
            shape = _read_rows(os.path.join(aux_dir, "shape.csv"),
                               ["theta_rad", "boundary_displacement_length"])
            # shape.csv holds xi(R, theta)/R times the last kappa, from the
            # pole (theta = 0) to the equator (theta = pi/2)
            out["slope"] = (shape[-1][1] - shape[0][1]) / inputs.kappas()[-1]
    elif inputs.command == "mass-curve":
        from rotstar import power_sum, solve_radial
        grid = mass_curve_grid(cfg)
        i = inputs.seed % len(grid)
        eos = power_sum([tuple(float(x) for x in t.split(":"))
                         for t in cfg["terms"].split(",")])
        a, h = grid[i], FD_STEP * grid[i]
        m_hi = solve_radial(eos, a + h).mass
        m_lo = solve_radial(eos, a - h).mass
        out["fd_index"], out["fd"] = i, (m_hi - m_lo) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# per-call checks


def check_rep(inputs, out_dir, rc, orc):
    """Check the files of one CLI call against the oracle data (None when
    the oracle failed); returns a RepCheck."""
    chk = RepCheck(inputs.ops)
    if rc != 0:
        chk.fail_all(f"exit code {rc}")
        return chk
    if orc is None:
        chk.fail_all("no oracle data")
        return chk
    try:
        rows = _read_rows(os.path.join(out_dir, MAIN_FILE[inputs.command]),
                          HEADERS[inputs.command])
    except (OSError, ValueError) as e:
        chk.fail_all(f"unreadable output: {e}")
        return chk
    if len(rows) != inputs.ops:
        chk.fail_all(f"{len(rows)} rows, expected {inputs.ops}")
        return chk
    for i, row in enumerate(rows):
        if not _finite(row):
            chk.fail([i], f"row {i} not finite")
    {"continue": _check_continue, "mass-curve": _check_mass_curve,
     "kernel-margin": _check_ladder}[inputs.command](inputs, out_dir, rows,
                                                      orc, chk)
    if inputs.seed == 0:
        _check_reference(inputs, rows, chk)
    return chk


def _check_continue(inputs, out_dir, rows, orc, chk):
    cfg = inputs.config
    tol = float(cfg.get("tol", 1e-8))
    R, mass = orc["R"], orc["mass"]
    for i, (row, want) in enumerate(zip(rows, inputs.kappas())):
        k, r_eq, r_pole, m, res, iters = row
        if k != want:
            chk.fail([i], f"row {i}: kappa {k} != {want}")
        if not res < tol:
            chk.fail([i], f"kappa={k:g}: residual {res:.3e} >= tol {tol:g}")
        if _rel(m, mass) >= MASS_REL:
            chk.fail([i], f"kappa={k:g}: mass drift {_rel(m, mass):.2e}")
        if iters != int(iters) or not 0 <= iters <= 8:
            chk.fail([i], f"kappa={k:g}: newton_iters {iters}")
        _check_solution_files(out_dir, row, i, chk)
        if k == 0.0:
            if _rel(r_eq, R) > 1e-12 or _rel(r_pole, R) > 1e-12:
                chk.fail([i], "kappa=0: boundary is not the radial star's")
            continue
        if not r_eq > r_pole:
            chk.fail([i], f"kappa={k:g}: not oblate")
        if "slope" in orc:
            secant = (r_eq - r_pole) / k
            if _rel(secant, orc["slope"]) >= SECANT_REL:
                chk.fail([i], f"kappa={k:g}: secant oblateness {secant:.6g} "
                              f"vs first order {orc['slope']:.6g}")
    if cfg["model"] == "vp":
        bulge = [r[1] - r[2] for r in rows]
        ratio = bulge[2] / bulge[1] if bulge[1] > 0 else float("inf")
        if abs(ratio - VP_RATIO) >= VP_RATIO_TOL:
            chk.fail([2], f"vp bulge ratio {ratio:.4g}, expected ~4")


def _check_solution_files(out_dir, row, i, chk):
    k = row[0]
    path = os.path.join(out_dir, f"solution_k{k:.6e}.json")
    try:
        with open(path) as f:
            sol = json.load(f)
        same = (sol["kappa"], sol["R_eq"], sol["R_pole"], sol["mass"]) \
            == tuple(row[:4])
    except (OSError, ValueError, KeyError):
        same = False
    if not same or not os.path.exists(path[:-5] + ".csv"):
        chk.fail([i], f"kappa={k:g}: solution files missing or disagree "
                      "with continue.csv")


def _check_mass_curve(inputs, out_dir, rows, orc, chk):
    grid = mass_curve_grid(inputs.config)
    for i, (a, R, M, mp) in enumerate(rows):
        if _rel(a, grid[i]) > 1e-12:
            chk.fail([i], f"sample {i}: a={a!r}, expected {grid[i]!r}")
        if not (R > 0 and M > 0):
            chk.fail([i], f"sample {i}: R={R}, M={M}")
        if not abs(mp) * a / M > MPRIME_FLOOR:
            chk.fail([i], f"sample {i}: |M'| a/M below {MPRIME_FLOOR:g}")
    i = orc["fd_index"]
    if _rel(rows[i][3], orc["fd"]) >= FD_REL:
        chk.fail([i], f"sample {i}: M'={rows[i][3]!r} vs central difference "
                      f"{orc['fd']!r}")


def _check_ladder(inputs, out_dir, rows, orc, chk):
    ells = [int(x) for x in inputs.config["ells"].split(",")]
    ns = [int(x) for x in inputs.config["ns"].split(",")]
    want = [(l, n) for l in ells for n in ns]
    for i, (row, (l, n)) in enumerate(zip(rows, want)):
        if (row[0], row[1]) != (l, n) or not row[2] >= 0:
            chk.fail([i], f"row {i}: {row}, expected l={l} n={n}")
    for j, l in enumerate(ells):
        idx = list(range(j * len(ns), (j + 1) * len(ns)))
        sig = [rows[i][2] for i in idx]
        if l <= 1:
            # l = 0 at gamma = 4/3 and the l = 1 translation block have a
            # kernel: sigma_min tracks the discretisation error down
            if any(b > FALL_FACTOR * a for a, b in zip(sig, sig[1:])):
                chk.fail(idx, f"l={l}: sigma_min does not fall {sig}")
        elif (max(sig) - min(sig)) / max(sig) >= STEADY_REL:
            chk.fail(idx, f"l={l}: sigma_min not steady {sig}")


def _check_reference(inputs, rows, chk):
    with open(REFERENCE) as f:
        ref = json.load(f)[inputs.workload]
    if len(ref) != len(rows):
        chk.fail_all("seed-0 reference has another row count")
        return
    cols = {"continue": (1, 2, 3), "mass-curve": (0, 1, 2, 3),
            "kernel-margin": (2,)}[inputs.command]
    for i, (row, want) in enumerate(zip(rows, ref)):
        for c in cols:
            x, r = row[c], float(want[c])
            if inputs.command == "kernel-margin" and r < SIGMA_ROUNDING:
                ok = 0.5 * r <= x <= 2.0 * r
            else:
                tol = SIGMA_REF_REL if inputs.command == "kernel-margin" \
                    else REF_REL
                ok = _rel(x, r) <= tol
            if not ok:
                chk.fail([i], f"row {i} col {c}: {x!r} vs seed-0 "
                              f"reference {r!r}")


# ---------------------------------------------------------------------------
# byte-identical reruns


def digest_dir(out_dir):
    """sha256 of every file under out_dir, by relative path."""
    out = {}
    for base, _, files in os.walk(out_dir):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, out_dir)] = \
                    hashlib.sha256(f.read()).hexdigest()
    return out


def check_identical(digests, store_path, checks):
    """Every call of one seed must write byte-identical files: across the
    calls of this run and against the first passing call of an earlier run
    with the same store key (see worker._store_path).  Only a call whose
    checks passed is written to the store."""
    if os.path.exists(store_path):
        with open(store_path) as f:
            first = json.load(f)
    else:
        passed = [d for d, chk in zip(digests, checks) if not chk.failed]
        if not passed:
            return
        first = passed[0]
        os.makedirs(os.path.dirname(store_path), exist_ok=True)
        with open(store_path, "w") as f:
            json.dump(first, f, indent=1, sort_keys=True)
    for d, chk in zip(digests, checks):
        if d != first:
            bad = sorted(k for k in set(d) | set(first)
                         if d.get(k) != first.get(k))
            chk.fail_all(f"output differs from an earlier call of the same "
                         f"seed: {bad}")
