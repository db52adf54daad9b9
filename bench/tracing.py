"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps the public functions and methods of the `rotstar`
modules listed in LAYERS (every module-level reference to a wrapped function
is replaced, including names imported with `from ... import`), records one
span (name, start, end, parent) per call in memory, and `uninstall` puts the
originals back.  A span's self time is its duration minus the durations of
its child spans; per-layer metrics sum self times and counts by span name.
"""

import csv
import re
import sys
import time

import numpy as np

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

ROOT = "cli.main"
NEWTON = "rotating.newton"
LINEAR_SOLVE = "rotating.linear_solve"


def _arg(args, kw, i, name):
    return args[i] if len(args) > i else kw[name]


def _n_points(args, kw, out):
    return int(np.size(_arg(args, kw, 1, "r")))


def _entries(args, kw, out):
    return int(np.size(_arg(args, kw, 2, "s_targets"))
               * len(_arg(args, kw, 0, "panels").x))


def _steps(args, kw, out):
    return len(out.t)


#: (span name, module, attribute path, counter name, counter) -- a counter
#: maps the call's (args, kwargs, result) to a number added to the named
#: count
LAYERS = [
    ("rotating.derivative", "rotstar.rotating", "frechet_apply", None, None),
    ("rotating.residual", "rotstar.rotating", "evaluate_F", None, None),
    ("rotating.first_order", "rotstar.rotating", "first_order_shape",
     None, None),
    ("axisym.field_build", "rotstar.axisym", "ModalField.__init__",
     None, None),
    ("axisym.field_eval", "rotstar.axisym", "ModalField.value", None, None),
    ("axisym.field_eval", "rotstar.axisym", "ModalField.d_r", None, None),
    ("axisym.field_eval", "rotstar.axisym", "ModalField.d_theta",
     None, None),
    ("axisym.field_eval", "rotstar.axisym", "ModalField.ratio", None, None),
    ("axisym.field_eval", "rotstar.axisym", "ModalField.xnorm", None, None),
    ("axisym.geometry", "rotstar.axisym", "Geometry.__init__", None, None),
    ("axisym.potential", "rotstar.axisym", "Geometry.potential_at_targets",
     None, None),
    ("axisym.potential", "rotstar.axisym", "Geometry.project_modes",
     None, None),
    ("numerics.interp_rows", "rotstar.numerics", "Panels.interp_rows",
     "numerics.interp_points", _n_points),
    ("radial.profile", "rotstar.radial", "RadialStar.u0_of",
     "radial.profile_points", _n_points),
    ("radial.profile", "rotstar.radial", "RadialStar.u0p_of",
     "radial.profile_points", _n_points),
    ("radial.profile", "rotstar.radial", "RadialStar.rho0_of", None, None),
    ("radial.profile", "rotstar.radial", "RadialStar.rho0p_of", None, None),
    ("radial.shoot", "rotstar.radial", "solve_radial", None, None),
    ("radial.shoot", "rotstar.vlasov", "solve_vp_radial", None, None),
    ("radial.mass_derivative", "rotstar.radial", "mass_derivative",
     None, None),
    ("eos.hinv", "rotstar.eos", "EquationOfState.hinv", None, None),
    ("eos.hinv", "rotstar.eos", "EquationOfState.dhinv", None, None),
    ("eos.hinv", "rotstar.eos", "PowerLawEOS.hinv", None, None),
    ("eos.hinv", "rotstar.eos", "PowerLawEOS.dhinv", None, None),
    ("numerics.ivp", "rotstar.numerics", "integrate_ivp",
     "numerics.ivp_steps", _steps),
    ("potentials.matrices", "rotstar.potentials", "mode_potential_matrices",
     "potentials.matrix_entries", _entries),
    ("linop.assemble", "rotstar.linop", "assemble_mode", None, None),
    ("linop.solve", "rotstar.linop", "solve", None, None),
    ("numerics.svd", "rotstar.numerics", "smallest_singular_value",
     None, None),
    ("vlasov.ansatz", "rotstar.vlasov", "VlasovAnsatz.G", None, None),
    ("vlasov.ansatz", "rotstar.vlasov", "VlasovAnsatz.Gp", None, None),
    ("vlasov.ansatz", "rotstar.vlasov", "VlasovAnsatz.w", None, None),
    ("vlasov.ansatz", "rotstar.vlasov", "VlasovAnsatz.dw_du", None, None),
    ("cli.write", "rotstar.cli", "write_csv", None, None),
    ("cli.write", "rotstar.cli", "write_json", None, None),
]


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.missing = []
        self._undo = []

    # recording ------------------------------------------------------------

    def wrap(self, name, fn, counter_name=None, counter=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kw):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kw)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counts[counter_name] = counts.get(counter_name, 0) \
                    + counter(args, kw, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_newton(self, fn):
        """newton_continue: also span the evaluator and frechet callables a
        caller passes in (the VP model does), and count iterations and
        states from the returned solutions."""
        inner = self.wrap(NEWTON, fn)
        counts = self.counts

        def newton(*args, **kw):
            for key, nm in (("evaluator", "rotating.residual"),
                            ("frechet", "rotating.derivative")):
                if kw.get(key) is not None:
                    kw[key] = self.wrap(nm, kw[key])
            sols = inner(*args, **kw)
            counts["rotating.newton_iters"] = counts.get(
                "rotating.newton_iters", 0) + sum(s.iters for s in sols)
            counts["rotating.states"] = counts.get("rotating.states", 0) \
                + len(sols)
            return sols

        return newton

    def _wrap_solve(self, fn):
        """np.linalg.solve spans only directly under newton_continue; other
        callers (linop.solve) keep it inside their own span."""
        spanned = self.wrap(LINEAR_SOLVE, fn)
        spans, stack = self.spans, self.stack

        def solve(*args, **kw):
            if stack and spans[stack[-1]][0] == NEWTON:
                return spanned(*args, **kw)
            return fn(*args, **kw)

        return solve

    # patching -------------------------------------------------------------

    def _replace_function(self, fn, wrapper):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not name.startswith("rotstar"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def install(self):
        """Wrap every target that exists; the others go to self.missing."""
        for name, modname, path, cname, counter in LAYERS:
            mod = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self.wrap(name, fn, cname, counter)
            if owner_name:
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, fn))
            else:
                self._replace_function(fn, wrapper)
        rot = sys.modules["rotstar.rotating"]
        self._replace_function(rot.newton_continue,
                               self._wrap_newton(rot.newton_continue))
        orig = np.linalg.solve
        np.linalg.solve = self._wrap_solve(orig)
        self._undo.append((np.linalg, "solve", orig))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def run(self, fn, *args):
        """Call fn under the root span."""
        return self.wrap(ROOT, fn)(*args)

    # analysis -------------------------------------------------------------

    def self_times(self):
        """Per span name: summed self time, call count and inclusive time.
        Calls and inclusive time count only the spans not nested in a span
        of the same name, so a wrapped function calling another one of its
        layer (EquationOfState.dhinv calls hinv) is one call of the layer."""
        if not self.spans:
            return {}, {}, {}
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans])
        dur = end - start
        covered = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(covered, parent[has], dur[has])
        own = dur - covered
        times, calls, incl = {}, {}, {}
        for s, t, d in zip(self.spans, own, dur):
            times[s[0]] = times.get(s[0], 0.0) + float(t)
            if s[3] < 0 or self.spans[s[3]][0] != s[0]:
                calls[s[0]] = calls.get(s[0], 0) + 1
                incl[s[0]] = incl.get(s[0], 0.0) + float(d)
        return times, calls, incl

    def write(self, path):
        """Write the spans as CSV rows: id, parent, name, start, end."""
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "parent", "name", "start", "end"])
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                w.writerow([i, parent, name, repr(t0), repr(t1)])


def layer_metrics(tracer):
    """Per-layer metric values of one traced call, by metric name."""
    times, calls, incl = tracer.self_times()
    c = tracer.counts

    def t(name):
        return times.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    residuals = n("rotating.residual")
    out = {
        "rotating.derivative_s": t("rotating.derivative"),
        "rotating.derivative_calls": n("rotating.derivative"),
        "rotating.derivative_incl_s": incl.get("rotating.derivative", 0.0),
        "rotating.residual_s": t("rotating.residual"),
        "rotating.residual_calls": residuals,
        "rotating.newton_self_s": t(NEWTON),
        "rotating.linear_solve_s": t(LINEAR_SOLVE),
        "rotating.newton_iters": c.get("rotating.newton_iters", 0),
        "rotating.states": c.get("rotating.states", 0),
        "rotating.states_per_residual":
            c.get("rotating.states", 0) / residuals if residuals else 0.0,
        "rotating.first_order_s": t("rotating.first_order"),
        "axisym.field_build_s": t("axisym.field_build"),
        "axisym.field_builds": n("axisym.field_build"),
        "axisym.field_eval_s": t("axisym.field_eval"),
        "axisym.field_eval_calls": n("axisym.field_eval"),
        "axisym.geometry_s": t("axisym.geometry"),
        "axisym.geometry_builds": n("axisym.geometry"),
        "axisym.potential_s": t("axisym.potential"),
        "numerics.interp_rows_s": t("numerics.interp_rows"),
        "numerics.interp_rows_calls": n("numerics.interp_rows"),
        "numerics.interp_points": c.get("numerics.interp_points", 0),
        "radial.profile_s": t("radial.profile"),
        "radial.profile_calls": n("radial.profile"),
        "radial.profile_points": c.get("radial.profile_points", 0),
        "radial.shoot_s": t("radial.shoot"),
        "radial.shoot_calls": n("radial.shoot"),
        "radial.mass_derivative_s": t("radial.mass_derivative"),
        "radial.mass_derivative_calls": n("radial.mass_derivative"),
        "eos.hinv_s": t("eos.hinv"),
        "eos.hinv_calls": n("eos.hinv"),
        "numerics.ivp_s": t("numerics.ivp"),
        "numerics.ivp_steps": c.get("numerics.ivp_steps", 0),
        "potentials.matrices_s": t("potentials.matrices"),
        "potentials.matrices_calls": n("potentials.matrices"),
        "potentials.matrix_entries": c.get("potentials.matrix_entries", 0),
        "linop.assemble_s": t("linop.assemble"),
        "linop.assemble_calls": n("linop.assemble"),
        "linop.solve_s": t("linop.solve"),
        "numerics.svd_s": t("numerics.svd"),
        "numerics.svd_calls": n("numerics.svd"),
        "vlasov.ansatz_s": t("vlasov.ansatz"),
        "vlasov.ansatz_calls": n("vlasov.ansatz"),
        "cli.write_s": t("cli.write"),
        "cli.files_written": n("cli.write"),
        "cli.main_self_s": t(ROOT),
    }
    bad = [k for k in out if not NAME_RE.fullmatch(k)]
    if bad:
        raise ValueError(f"bad per-layer metric names: {bad}")
    return out
