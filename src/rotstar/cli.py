"""Command-line front end.

Subcommands map one-to-one onto the library computations; configuration is a
flat key = value text file so that regression baselines are reproducible.
All output files are written atomically (temp + rename) and deterministically,
so reruns with an identical config are bit-identical.  Each file's layout is
defined here alone: the library returns plain data (profiles, solution
attributes, dicts) and writes nothing.

Exit codes: 0 success, 2 config error, 3 solver error, 4 degenerate operator.
COMMANDS maps each command to its function and the keys it reads besides
model, out and the configured model's law keys, the same for both models;
RunConfig reads and checks those alone.  Any other key, one of another
command or of the other model, is named on stderr and ignored, a key set
twice is a config error, and a warning that building the configuration
raises (gamma = 2) is one config line.  main runs under one
np.errstate(all="ignore"): the library's checks say what overflowed.
"""

import argparse
import csv
import json
import os
import sys
import warnings

import numpy as np

from . import linop, radial, rotating, vlasov
from .axisym import ELLS, ORDER, Discretization
from .eos import (check_mass_condition_b, constant_rotation, power_law,
                  power_sum, validate_assumptions)
from .errors import (ConfigError, DegenerateOperatorError, EOSError,
                     RotstarError, SolverError)


def _atomic_write(path, writer):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as f:
        writer(f)
    os.replace(tmp, path)


def write_csv(path, header, rows):
    def w(f):
        cw = csv.writer(f)
        cw.writerow(header)
        for row in rows:
            cw.writerow([x if isinstance(x, (str, int)) else repr(float(x))
                         for x in row])
    _atomic_write(path, w)


def write_json(path, obj):
    _atomic_write(path, lambda f: json.dump(obj, f, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# configuration

#: largest side of a dense operator: the kernel-margin blocks are ns x ns,
#: and perturb's Newton matrix has n rows per mode of its Discretization
MAX_NODES = 4096
#: points of the uniform grid on [0, R] at which star.json samples the star
STAR_GRID = 512


def solution_stem(kappa):
    """The file name, without extension, of continue's state at kappa."""
    return f"solution_k{kappa:.6e}"


def parse_config(path):
    """Flat key = value file; '#' starts a comment.  A key set twice is a
    config error that names both lines."""
    data, lines = {}, {}
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, val = (part.strip() for part in line.split("=", 1))
                if key in lines:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} is "
                                      f"already set on line {lines[key]}")
                data[key], lines[key] = val, lineno
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return data


class RunConfig:
    """The validated parameters of one command: model, out, the configured
    model's law and the keys COMMANDS lists for the command, each set as an
    attribute by its reader _key_<name>.  A key the command does not
    read is no attribute, so a command that reads one raises
    AttributeError; unknown lists the keys of data that were not read."""

    def __init__(self, command, data, out_dir=None):
        self.raw = dict(data)
        self._read = set()
        self.model = self._str("model", "ep")
        if self.model not in ("ep", "vp"):
            raise ConfigError(f"model must be ep or vp, got {self.model!r}")
        for key in COMMANDS[command][1]:
            setattr(self, key, getattr(self, "_key_" + key)())
        self.law = self._law()
        out = self._str("out", ".")   # read even where out_dir overrides it
        self.out_dir = out_dir or out
        self.unknown = [key for key in self.raw if key not in self._read]

    def _key_a(self):
        a = self._float("a", 1.0)
        if not a > 0:
            raise ConfigError(f"central value a must be positive, got {a!r}")
        return a

    def _key_tol(self):
        tol = self._float("tol", 1e-8)
        if tol <= 0:
            raise ConfigError(f"tolerance tol must be positive, got {tol!r}")
        return tol

    def _key_kappas(self):
        kappas = self._floats("kappas", [0.0, 1e-3])
        if kappas[0] != 0.0:
            raise ConfigError("kappa schedule must start at 0")
        if any(k2 < k1 for k1, k2 in zip(kappas, kappas[1:])):
            raise ConfigError("kappa schedule must be nondecreasing")
        # the VP law reads kappa^2: k * k overflows to inf, k ** 2 raises
        if not np.isfinite(kappas[-1] * kappas[-1]):
            raise ConfigError(f"kappas squared must be finite, got "
                              f"{kappas[-1]!r}")
        return kappas

    def _key_n(self):
        n = self._count("n", 256)
        self._check_nodes("n", [n], ORDER, MAX_NODES // len(ELLS))
        return n

    def _key_ells(self):
        return self._counts("ells", [0, 1, 2, 3, 4])

    def _key_ns(self):
        ns = self._counts("ns", [128, 256, 512])
        self._check_nodes("ns", ns, linop.LADDER_ORDER, MAX_NODES)
        return ns

    def _key_a_min(self):
        return self._float("a_min", 0.5)

    def _key_a_max(self):
        return self._float("a_max", 2.0)

    def _key_n_samples(self):
        n_samples = self._count("n_samples", 9)
        if n_samples < 2:
            raise ConfigError(f"n_samples must be at least 2, got "
                              f"{n_samples}")
        return n_samples

    @staticmethod
    def _check_nodes(key, counts, order, most):
        """Node counts must fill whole panels of the given order, at least
        two of them, and stay at or below most."""
        most -= most % order
        for n in counts:
            if n % order or not 2 * order <= n <= most:
                raise ConfigError(
                    f"node count {key} = {n} must be a multiple of the panel "
                    f"order {order} from {2 * order} to {most}")

    def _str(self, key, default):
        """The text of key, or default; every key is read through here."""
        self._read.add(key)
        return self.raw.get(key, default)

    @staticmethod
    def _number(key, text):
        try:
            x = float(text)
        except ValueError as e:
            raise ConfigError(f"bad float for {key}: {text!r}") from e
        if not np.isfinite(x):
            raise ConfigError(f"{key} must be finite, got {text!r}")
        return x

    def _float(self, key, default):
        return self._number(key, self._str(key, default))

    def _floats(self, key, default):
        text = self._str(key, None)
        if text is None:
            return list(default)
        vals = [self._number(key, x) for x in text.split(",") if x.strip()]
        if not vals:
            raise ConfigError(f"{key} needs at least one value")
        return vals

    def _counts(self, key, default):
        """A list of nonnegative integers (mode indices, node counts); a
        float that equals one, such as 64.0, reads as it."""
        vals = self._floats(key, default)
        if any(x < 0 or x != int(x) for x in vals):
            raise ConfigError(f"{key} takes nonnegative integers only, got "
                              f"{self.raw[key]!r}")
        return [int(x) for x in vals]

    def _count(self, key, default):
        """One nonnegative integer, read as by _counts."""
        vals = self._counts(key, [default])
        if len(vals) != 1:
            raise ConfigError(f"{key} takes one value, got {self.raw[key]!r}")
        return vals[0]

    def _pairs(self, key, default):
        text = self._str(key, None)
        if text is None:
            return list(default)
        out = []
        for item in text.split(","):
            parts = item.split(":")
            if len(parts) != 2:
                raise ConfigError(f"bad term list for {key}: {text!r}")
            out.append(tuple(self._number(key, x) for x in parts))
        return out

    def _law(self):
        """The density law of the configured model: the ansatz for vp, the
        EOS for ep.  A law value out of its range (gamma outside (1, 2],
        psi0 <= 0, mu >= 1, ...) is a config error."""
        try:
            if self.model == "vp":
                mu, psi2 = self._float("mu", 0.25), self._float("psi2", 0.0)
                if "psi0" not in self.raw:
                    return vlasov.VlasovAnsatz.matched_to_power_law(mu, psi2)
                psi0 = self._float("psi0", None)
                return vlasov.VlasovAnsatz(mu, psi0, psi2)
            kind = self._str("eos", "power_law")
            if kind == "power_law":
                return power_law(self._float("gamma", 1.5))
            if kind == "power_sum":
                return power_sum(self._pairs("terms", [(1, 1.5), (1, 1.8)]))
        except EOSError as e:
            raise ConfigError(str(e)) from e
        raise ConfigError(f"unknown eos {kind!r}")

    def make_model(self):
        """The rotation problem of the configured star.  An EP star rotates
        rigidly at omega^2 = 1, so kappa is its one rotation amplitude."""
        star = radial.solve_radial(self.law, self.a)
        if self.model == "vp":
            return vlasov.VPModel(star)
        return rotating.EPModel(star, constant_rotation())

    def make_rotating_model(self):
        """make_model for the commands that rotate the star: a VP law at
        psi2 = 0 does not depend on kappa, so it is a config error there."""
        if self.model == "vp" and self.law.psi2 == 0.0:
            raise ConfigError("model = vp needs psi2 != 0 to rotate: at "
                              "psi2 = 0 its law does not depend on kappa")
        return self.make_model()

    def path(self, name):
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)


# ---------------------------------------------------------------------------
# subcommands


def cmd_radial(cfg):
    """The radial star; flags an EP star whose M'(a) vanishes and a VP
    ansatz whose gamma_eq lies outside the paper's (6/5, 2), on the output
    line or, when the solve fails, on the error."""
    law = cfg.law
    flag = ""
    if cfg.model == "vp":
        g = law.equivalent_gamma()
        if not 6.0 / 5.0 < g < 2.0:
            flag = f"  gamma_eq={g:g} outside (6/5, 2)"
    try:
        star = radial.solve_radial(law, cfg.a)
    except SolverError as e:
        raise type(e)(f"{e}{flag}") from e
    grid = np.linspace(0.0, star.R, STAR_GRID)
    out = {"a": star.a, "R": star.R, "mass": star.mass,
           "grid": grid.tolist(), "u0": star.u0_of(grid).tolist(),
           "rho0": star.rho0_of(grid).tolist()}
    if cfg.model == "vp":
        out["mu"] = law.mu          # the kinetic star names its ansatz
    else:
        out["u0p"] = star.u0p_of(grid).tolist()
    write_json(cfg.path("star.json"), out)
    if cfg.model == "vp":
        # flux identity: R^2 u0'(R) = -M by the divergence theorem
        flux = abs(star.R ** 2 * float(star.u0p_of(star.R)) + star.mass) \
            / star.mass
        print(f"radial vp: mu={law.mu:g} a={cfg.a:g} R={star.R:.9f} "
              f"M={star.mass:.9f} flux-identity residual={flux:.3e}{flag}")
        return 0
    mp = radial.mass_derivative(star)[0]
    flag = ""
    if abs(mp) < 1e-6 * star.mass / star.a:
        gtxt = f" (gamma={law.gamma:g})" if law.gamma is not None else ""
        flag = f"  mass condition FAILED{gtxt}"
    print(f"radial ep: a={cfg.a:g} R={star.R:.9f} M={star.mass:.9f} "
          f"Mprime={mp:.9f}{flag}")
    return 0


def cmd_mass_curve(cfg):
    """M(a) over [a_min, a_max] for the configured model's law."""
    if not 0 < cfg.a_min < cfg.a_max:
        raise ConfigError(f"need 0 < a_min < a_max, got a_min = "
                          f"{cfg.a_min!r}, a_max = {cfg.a_max!r}")
    curve = radial.mass_curve(cfg.law, (cfg.a_min, cfg.a_max),
                              cfg.n_samples)
    write_csv(cfg.path("mass_curve.csv"),
              ["a_enthalpy", "R_length", "M_mass", "Mprime_mass_per_enthalpy"],
              curve)
    a, _, M, mp = curve.T
    print(f"mass-curve: {len(curve)} samples, min |M'| a/M = "
          f"{np.min(np.abs(mp) * a / M):.6e}")
    return 0


def cmd_margin(cfg):
    """sigma_min per mode and node count, raw and scale-free: the raw value
    scales like a/R^2 under the power-law scaling, sigma_min R^2/a not."""
    model = cfg.make_model()
    star = model.star
    rows = linop.kernel_margin_ladder(model, ells=cfg.ells, ns=cfg.ns)
    write_csv(cfg.path("kernel_margin.csv"),
              ["l_mode", "n_nodes", "sigma_min_dimensionless"], rows)
    write_csv(cfg.path("kernel_margin_scaled.csv"),
              ["l_mode", "n_nodes", "sigma_min_R2_over_a"],
              [(l, n, sig * star.R ** 2 / star.a) for l, n, sig in rows])
    print(f"kernel-margin: {len(rows)} rows written")
    return 0


def cmd_perturb(cfg):
    """The Newton step from the sphere on cfg.n collocation nodes
    (rotating.sphere_response): the EP response per unit kappa, scaled by
    the last scheduled kappa if positive, or the VP step at that kappa
    (1e-2 if it is 0)."""
    model = cfg.make_rotating_model()
    R = model.star.R
    kappa = cfg.kappas[-1]
    if cfg.model == "vp":
        kappa, scale = (kappa if kappa > 0 else 1e-2), 1.0
    else:
        kappa, scale = 1.0, (kappa if kappa > 0 else 1.0)
    xi = rotating.sphere_response(model, kappa, Discretization(R, n_rc=cfg.n))
    xi_R = [float(xi.panels.interp(c, R)) for c in xi.coefs]
    thetas = np.linspace(0.0, np.pi / 2, 91)
    shift = R * xi.ratio(np.full(len(thetas), R), thetas)   # xi(R, theta)/R
    write_csv(cfg.path("shape.csv"),
              ["theta_rad", "boundary_displacement_length"],
              list(zip(thetas, shift * scale)))
    write_csv(cfg.path("modes.csv"), ["l_mode", "xi_R_length_sq"],
              list(zip(xi.ells, xi_R)))
    xi_2 = xi_R[xi.ells.index(2)]
    if cfg.model == "vp":
        print(f"perturb vp: kappa={kappa:g} xi_2(R)={xi_2:.6e}")
    else:
        print(f"perturb: xi_2(R)={xi_2:.6e} "
              f"oblateness slope={shift[-1] - shift[0]:.6e}")
    return 0


def cmd_continue(cfg):
    """Newton continuation of the configured model; per-kappa CSV rows are
    flushed as they arrive, so a partial curve survives solver failure."""
    # a repeated kappa is one state; two unequal ones must not share their
    # solution files
    kappas = cfg.kappas
    for k1, k2 in zip(kappas, kappas[1:]):
        if k1 != k2 and solution_stem(k1) == solution_stem(k2):
            raise ConfigError(f"kappas {k1!r} and {k2!r} share the "
                              f"solution file stem {solution_stem(k1)}")
    model = cfg.make_rotating_model()
    rows = []
    header = ["kappa_intensity", "R_eq_length", "R_pole_length", "M_mass",
              "residual_sup", "newton_iters"]
    path = cfg.path("continue.csv")
    write_csv(path, header, rows)

    def record(sol):
        rows.append([sol.kappa, sol.R_eq, sol.R_pole, sol.mass_value,
                     sol.residual_sup, sol.iters])
        write_csv(path, header, rows)
        stem = cfg.path(solution_stem(sol.kappa))
        meta = {"kappa": sol.kappa, "R_eq": sol.R_eq, "R_pole": sol.R_pole,
                "mass": sol.mass_value, "mass_factor": sol.mass_factor,
                "residual_sup": sol.residual_sup, "iters": sol.iters,
                "ells": list(sol.disc.ells)}
        # key order as listed, so not through write_json
        _atomic_write(stem + ".json",
                      lambda f: json.dump(meta, f, indent=1))
        write_csv(stem + ".csv", ["l", "r", "zeta_l"],
                  [(l, r, v) for l, c in zip(sol.disc.ells, sol.coefs)
                   for r, v in zip(sol.disc.panels_c.x, c)])

    rotating.newton_continue(model, cfg.kappas, tol=cfg.tol,
                             on_solution=record)
    print(f"continue: {len(rows)} kappa values written to {path}")
    return 0


def cmd_eos_check(cfg):
    """Grade the configured EOS: the pressure assumptions and the mass
    condition (b).  EP only: a VP ansatz has no pressure law."""
    if cfg.model != "ep":
        raise ConfigError("eos-check grades a pressure law: it needs "
                          "model = ep")
    assum = validate_assumptions(cfg.law)
    cond = check_mass_condition_b(cfg.law)
    write_json(cfg.path("eos_check.json"),
               {"assumptions": assum, "mass_condition_b": cond})
    print(f"eos-check: assumptions {'pass' if assum['passed'] else 'FAIL'}, "
          f"condition (b) {'pass' if cond['passed'] else 'FAIL'}")
    return 0


#: each command's function and the keys it reads, besides model, out and
#: the configured model's law keys; RunConfig reads each key through its
#: _key_<name> reader
COMMANDS = {
    "radial": (cmd_radial, ("a",)),
    "mass-curve": (cmd_mass_curve, ("a_min", "a_max", "n_samples")),
    "kernel-margin": (cmd_margin, ("a", "ells", "ns")),
    "perturb": (cmd_perturb, ("a", "n", "kappas")),
    "continue": (cmd_continue, ("a", "tol", "kappas")),
    "eos-check": (cmd_eos_check, ()),
}


def main(argv=None):
    ap = argparse.ArgumentParser(prog="rotstar",
                                 description="rotating self-gravitating "
                                             "steady states")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="flat key=value file")
    ap.add_argument("--out", default=None, help="output directory")
    args = ap.parse_args(argv)
    with np.errstate(all="ignore"):
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cfg = RunConfig(args.command, parse_config(args.config),
                                out_dir=args.out)
            for note in [w.message for w in caught] + [
                    f"unknown key {key!r} ignored" for key in cfg.unknown]:
                print(f"config: {note}", file=sys.stderr)
            return COMMANDS[args.command][0](cfg)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        except DegenerateOperatorError as e:
            print(f"degenerate operator: {e}", file=sys.stderr)
            return 4
        except RotstarError as e:
            print(f"solver error: {e}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
