import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TURNING_TERMS
import rotstar
from rotstar.cli import (COMMAND_KEYS, RunConfig, main, parse_config,
                         solution_stem)
from rotstar.errors import ConfigError

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _write(path, text):
    path.write_text(text)
    return str(path)


def run(tmp_path, command, config_text, out=None):
    cfg = _write(tmp_path / "run.cfg", config_text)
    argv = [command, "--config", cfg, "--out", str(out or tmp_path)]
    return main(argv)


def test_parse_config_comments_and_errors(tmp_path):
    p = _write(tmp_path / "c.cfg", "a = 1.5  # central value\n\nmodel = ep\n")
    data = parse_config(p)
    assert data == {"a": "1.5", "model": "ep"}
    bad = _write(tmp_path / "bad.cfg", "no equals sign here\n")
    with pytest.raises(ConfigError):
        parse_config(bad)
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))


def test_runconfig_validation():
    # every command reads model and the law; each other key is checked by
    # the commands that read it
    bad = [{"model": "xx"}, {"eos": "mystery"}, {"tol": "-1"},
           {"ode_tol": "0"}, {"kappas": "1e-3,2e-3"},  # must start at 0
           {"kappas": "0,2e-3,1e-3"},                 # nondecreasing
           {"a": "not-a-number"}]
    for data in bad:
        [key] = data
        for command, keys in COMMAND_KEYS.items():
            if key in ("model", "eos") or key in keys:
                with pytest.raises(ConfigError):
                    RunConfig(command, data)
    with pytest.raises(ConfigError, match="unknown eos 'mystery'"):
        RunConfig("eos-check", {"eos": "mystery"})


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: importing the CLI, a VP radial and an
    # EP perturb call load no part of it
    vp = _write(tmp_path / "vp.cfg", "model = vp\nmu = 0.25\n")
    ep = _write(tmp_path / "ep.cfg", "gamma = 1.5\nkappas = 0,1e-3\n")
    code = (
        "import sys\n"
        "import rotstar.cli\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "loaded = scipy()\n"
        "rcs = [rotstar.cli.main([cmd, '--config', cfg, '--out', sys.argv[3]])\n"
        "       for cmd, cfg in (('radial', sys.argv[1]), ('perturb', sys.argv[2]))]\n"
        "print(loaded, rcs, scipy())\n")
    src = os.path.dirname(os.path.dirname(rotstar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, vp, ep, str(tmp_path)],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=300)
    assert out.stdout.strip().splitlines()[-1] == "[] [0, 0] []"


def test_radial_outputs(tmp_path, capsys):
    assert run(tmp_path, "radial", "gamma = 1.5\na = 1.0\n") == 0
    star = json.loads((tmp_path / "star.json").read_text())
    assert star["R"] == pytest.approx(3.683769758, rel=1e-6)
    out = capsys.readouterr().out
    assert "radial ep" in out and "FAILED" not in out


def test_radial_flags_degenerate_exponent(tmp_path, capsys):
    gamma = 4.0 / 3.0
    assert run(tmp_path, "radial", f"gamma = {gamma!r}\n") == 0
    out = capsys.readouterr().out
    assert "mass condition FAILED" in out and "gamma=" in out


def test_vp_radial_reports_flux_identity(tmp_path, capsys):
    assert run(tmp_path, "radial", "model = vp\nmu = 0.25\n") == 0
    out = capsys.readouterr().out
    assert "flux-identity residual=" in out
    resid = float(out.split("flux-identity residual=")[1].split()[0])
    assert resid < 1e-7


def test_vp_radial_flags_gamma_outside_paper_range(tmp_path, capsys):
    # gamma_eq = 1 + 1/(3/2 - mu): mu = -4 gives 1.18, a star with no finite
    # radius, so the flag rides on the solver error; mu = 0.75 gives 2.33
    assert run(tmp_path, "radial", "model = vp\nmu = -4\n") == 3
    assert "gamma_eq=1.18182 outside (6/5, 2)" in capsys.readouterr().err
    assert run(tmp_path, "radial", "model = vp\nmu = 0.75\n") == 0
    assert capsys.readouterr().out.rstrip().endswith(
        "  gamma_eq=2.33333 outside (6/5, 2)")
    assert run(tmp_path, "radial", "model = vp\nmu = 0.25\n") == 0
    assert "outside" not in capsys.readouterr().out


def test_vp_star_json_names_its_ansatz(tmp_path):
    # one radial star for both models, sampled on 512 points of [0, R]; the
    # kinetic star.json adds mu and leaves out u0p
    for text, keys, mu in [
            ("model = ep\ngamma = 1.5\n",
             ["R", "a", "grid", "mass", "rho0", "u0", "u0p"], None),
            ("model = vp\nmu = 0.25\n",
             ["R", "a", "grid", "mass", "mu", "rho0", "u0"], 0.25)]:
        assert run(tmp_path, "radial", text) == 0
        star = json.loads((tmp_path / "star.json").read_text())
        assert sorted(star) == keys and star.get("mu") == mu
        assert len(star["grid"]) == len(star["u0"]) == 512
        assert star["grid"][-1] == star["R"]


def test_vp_rotation_needs_psi2(tmp_path, capsys):
    # at psi2 = 0 the VP law does not depend on kappa: the commands that
    # rotate the star refuse it, the radial ones run
    for command in ("perturb", "continue"):
        assert run(tmp_path, command, "model = vp\nmu = 0.25\n") == 2
        assert "psi2" in capsys.readouterr().err
    assert not (tmp_path / "continue.csv").exists()
    ladder = "ells = 0\nns = 64\n"
    for command in ("radial", "kernel-margin"):
        assert run(tmp_path, command,
                   "model = vp\nmu = 0.25\npsi2 = 0\n" + ladder) == 0


def test_config_error_exit_code(tmp_path):
    assert run(tmp_path, "radial", "model = bogus\n") == 2
    # a value out of its range is a config error, not the solver error of
    # the library's own guards in radial._solve_profile and mass_curve
    for text in ("a = -1\n", "a = 0\n"):
        for command in ("radial", "perturb", "continue", "kernel-margin"):
            assert run(tmp_path, command, text) == 2, (command, text)
    for text in ("n_samples = 1\n", "a_min = 2\na_max = 1\n",
                 "a_min = -1\n"):
        assert run(tmp_path, "mass-curve", text) == 2, text


def test_unknown_config_key_is_named_and_ignored(tmp_path, capsys):
    # a typo such as gama runs the default gamma 1.5, as with no such key,
    # and says so on stderr; a key that RunConfig reads is known, out too
    # where --out overrides it
    typo, plain = tmp_path / "typo", tmp_path / "plain"
    assert run(tmp_path, "radial", "gama = 1.3\n", out=typo) == 0
    assert capsys.readouterr().err == "config: unknown key 'gama' ignored\n"
    assert run(tmp_path, "radial", "out = elsewhere\n", out=plain) == 0
    assert capsys.readouterr().err == ""
    assert (typo / "star.json").read_bytes() == \
        (plain / "star.json").read_bytes()
    data = {"gama": "1.3", "a": "1", "threads": "1"}
    assert RunConfig("radial", data).unknown == ["gama", "threads"]
    assert RunConfig("mass-curve", data).unknown == ["gama", "a", "threads"]


@pytest.mark.parametrize("command, text, foreign", [
    ("continue", "model = vp\nmu = 0.25\npsi2 = 0.1\nkappas = 0,1e-2\n",
     "omega = 3\n"),
    ("radial", "gamma = 1.5\n", "psi2 = 0.1\nmu = 0.3\n"),
    ("radial", "gamma = 1.5\n", "a_min = 3\n"),
    ("radial", "gamma = 1.5\n", "ns = 3\n"),
    ("radial", "gamma = 1.5\n", "kappas = 1\n"),
    ("radial", "gamma = 1.5\n", "tol = 5\n"),
    ("radial", "gamma = 1.5\n", "a_min = 3\nns = 3\nkappas = 1\ntol = 5\n"),
    ("continue", "gamma = 1.5\nkappas = 0,1e-3\n", "a_min = 3\n")],
    ids=["vp-omega", "ep-psi2-mu", "radial-a_min", "radial-ns",
         "radial-kappas", "radial-tol", "radial-all", "continue-a_min"])
def test_a_key_of_the_other_model_is_named_and_ignored(tmp_path, capsys,
                                                       command, text,
                                                       foreign):
    # each model's law reads its own keys: omega set no VP rotation and psi2
    # and mu no EP law, and neither said so; and each command its own keys:
    # radial exited 2 on a_min = 3, ns = 3 or kappas = 1, keys it never
    # reads, and ran tol = 5 without a word
    mixed, plain = tmp_path / "mixed", tmp_path / "plain"
    assert run(tmp_path, command, text + foreign, out=mixed) == 0
    keys = [line.split("=")[0].strip() for line in foreign.splitlines()]
    assert capsys.readouterr().err == "".join(
        f"config: unknown key {key!r} ignored\n" for key in keys)
    assert run(tmp_path, command, text, out=plain) == 0
    assert capsys.readouterr().err == ""
    names = sorted(os.listdir(plain))
    assert sorted(os.listdir(mixed)) == names and len(names) >= 1
    for name in names:
        assert (mixed / name).read_bytes() == (plain / name).read_bytes()


def test_a_command_config_has_only_its_keys():
    # COMMAND_KEYS is the one statement of what a command reads: any other
    # key is no attribute of its RunConfig, so a command that read one
    # would raise (and the reachability runs would fail)
    every = set().union(*COMMAND_KEYS.values())
    for command, keys in COMMAND_KEYS.items():
        cfg = RunConfig(command, {})
        for key in keys:
            getattr(cfg, key)
        for key in every - set(keys):
            with pytest.raises(AttributeError):
                getattr(cfg, key)
    # omega is the EP rotation: a VP config reads none
    for command in ("perturb", "continue"):
        with pytest.raises(AttributeError):
            RunConfig(command, {"model": "vp", "omega": "1"}).omega


#: values that no key reads: not a number, not finite, or no list entry
_BAD = st.one_of(st.sampled_from(["", ",", "nan", "-inf", "1e999", "1,x"]),
                 st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1))


@pytest.mark.parametrize("command, key", [
    (command, key) for command, keys in COMMAND_KEYS.items()
    for key in keys])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(value=_BAD)
def test_a_bad_value_of_a_key_the_command_reads_exits_2(
        tmp_path_factory, command, key, value):
    # a fuzz over COMMAND_KEYS: a key a command reads is checked there, so
    # that a bad value exits 2 before any solve
    out = tmp_path_factory.mktemp("bad")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(out, command, f"gamma = 1.5\n{key} = {value}\n") == 2
    assert err.getvalue().startswith("config error:")


def test_a_repeated_key_is_config_error(tmp_path, capsys):
    # parse_config kept the last value: gamma 1.3 then 1.5 ran gamma 1.5
    text = "gamma = 1.3\na = 1\ngamma = 1.5\n"
    assert run(tmp_path, "radial", text) == 2
    assert capsys.readouterr().err == (
        f"config error: {tmp_path / 'run.cfg'}:3: key 'gamma' is already "
        f"set on line 1\n")
    assert not (tmp_path / "star.json").exists()


def test_readme_lists_each_command_s_keys():
    # the README restates COMMAND_KEYS as one list, a line per command
    # whose remarks stand in parentheses; it must not drift
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    listed = {m.group(1): tuple(re.findall(
                  r"`(\w+)`", re.sub(r"\(.*?\)", "", m.group(2))))
              for m in re.finditer(r"^- `([\w-]+)`: (.*)$", section,
                                   re.MULTILINE)}
    assert listed == COMMAND_KEYS


def test_gamma_2_is_one_config_notice(tmp_path):
    # the boundary exponent ran with Python's two-line UserWarning on
    # stderr, which named the path and a source line of cli.py
    out = _fresh_run(tmp_path, "radial", "gamma = 2\n")
    assert out.returncode == 0
    assert out.stderr == ("config: gamma=2 is on the boundary of the "
                          "admissible range; accepted for oracle testing\n")
    assert out.stdout.startswith("radial ep: a=1 R=1.25331")


def test_empty_list_is_config_error(tmp_path):
    assert run(tmp_path, "continue", "kappas =\n") == 2
    assert run(tmp_path, "kernel-margin", "ells = ,\n") == 2


def test_nonfinite_float_is_config_error(tmp_path):
    assert run(tmp_path, "radial", "a = inf\n") == 2
    assert run(tmp_path, "radial", "gamma = nan\n") == 2
    assert run(tmp_path, "continue", "kappas = 0,inf\n") == 2


def test_psi0_is_validated(tmp_path):
    assert run(tmp_path, "radial", "model = vp\npsi0 = abc\n") == 2
    assert run(tmp_path, "radial", "model = vp\npsi0 = nan\n") == 2


@pytest.mark.parametrize("text", [
    "gamma = 0.25\n", "gamma = 3\n", "eos = power_sum\nterms = 0:1.5\n",
    "model = vp\npsi0 = 0\n"], ids=["gamma-low", "gamma-high",
                                   "terms-coefficient", "psi0"])
def test_law_value_out_of_range_is_config_error(tmp_path, capsys, text):
    # the law rejects each value at construction; a bad config exits 2
    assert run(tmp_path, "radial", text) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_vp_mu_at_least_one_is_config_error(tmp_path, capsys):
    # mu = 1.5 makes the matched power law divide by 3/2 - mu = 0; like
    # the other out-of-range law values it is a config error
    assert run(tmp_path, "radial", "model = vp\nmu = 1.5\n") == 2
    err = capsys.readouterr().err
    assert "need mu < 1" in err and "Traceback" not in err


def test_node_count_n_must_be_positive(tmp_path):
    assert run(tmp_path, "perturb", "gamma = 1.5\nn = 0\n") == 2


def test_node_counts_ns_must_be_positive(tmp_path):
    assert run(tmp_path, "kernel-margin",
               "gamma = 1.5\nells = 0\nns = 64,-8\n") == 2


def test_node_counts_fill_whole_panels(tmp_path, capsys):
    # ns = 1 or 3 wrote rows labelled n_nodes = 1 or 3 for an operator on
    # 4 nodes, n = 100 solved on 96 nodes, and ns = 1e8 ended in a numpy
    # memory-error traceback; each count is a multiple of its panel order
    # (linop.LADDER_ORDER for ns, axisym.ORDER for n), fills at least two
    # panels and stays at or below cli.MAX_NODES, for n over all seven
    # modes of perturb's Newton matrix
    for text in ("ns = 1\n", "ns = 3\n", "ns = 64,130,2\n",
                 "ns = 100000000\n", "ns = 4098\n"):
        assert run(tmp_path, "kernel-margin", "ells = 2\n" + text) == 2
        assert "node count ns" in capsys.readouterr().err
    for n in (8, 100, 4104):
        assert run(tmp_path, "perturb", f"gamma = 1.5\nn = {n}\n") == 2
        assert "node count n" in capsys.readouterr().err
    RunConfig("perturb", {"n": "16"})
    RunConfig("kernel-margin", {"ns": "4,4096"})
    RunConfig("perturb", {"n": "584"})
    # every count reads by one rule: a float that equals an integer is it
    assert RunConfig("perturb", {"n": "64.0"}).n == 64
    assert RunConfig("mass-curve", {"n_samples": "2.0"}).n_samples == 2
    cfg = RunConfig("kernel-margin", {"ns": "64.0", "ells": "0.0,2"})
    assert (cfg.ns, cfg.ells) == ([64], [0, 2])


def test_perturb_node_count_is_capped_by_the_newton_matrix(tmp_path, capsys):
    # perturb's Newton matrix has 7 n rows: n = 4096 would make it 6.6 GB,
    # so 7 n <= MAX_NODES caps n at 584
    for n in (592, 1024, 4096):
        assert run(tmp_path, "perturb", f"gamma = 1.5\nn = {n}\n") == 2
        assert "from 16 to 584" in capsys.readouterr().err


def test_ells_and_ns_must_be_nonnegative_integers(tmp_path, capsys):
    # a negative l used to end in a ValueError traceback, and int() truncated
    # 2.7 and 64.5 silently to l = 2 and n = 64
    for text in ("ells = -2\nns = 64\n", "ells = 2.7\nns = 64\n",
                 "ells = 2\nns = 64.5\n"):
        assert run(tmp_path, "kernel-margin", "gamma = 1.5\n" + text) == 2
        assert "nonnegative integers" in capsys.readouterr().err
    # the single counts too: a negative n_samples was a solver error
    for command, text in (("mass-curve", "n_samples = -2\n"),
                          ("perturb", "n = 64.5\n")):
        assert run(tmp_path, command, "gamma = 1.5\n" + text) == 2
        assert "nonnegative integers" in capsys.readouterr().err


def test_vp_is_spelled_model_vp(tmp_path, capsys):
    # the kinetic model has one spelling, model = vp; a command name with
    # the model in it is an argparse usage error
    for command in ("vp-radial", "vp-perturb", "vp-continue"):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, command, "mu = 0.25\n")
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_mass_curve_csv_units_header(tmp_path):
    text = "gamma = 1.5\na_min = 0.8\na_max = 1.2\nn_samples = 3\n"
    assert run(tmp_path, "mass-curve", text) == 0
    lines = (tmp_path / "mass_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "a_enthalpy,R_length,M_mass,Mprime_mass_per_enthalpy"
    assert len(lines) == 4


def test_mass_curve_runs_the_configured_model(tmp_path, capsys):
    # mass-curve ran the EP gamma 1.5 law whatever the model; the VP ansatz
    # at mu = -1.5 has gamma_eq = 4/3, where M does not depend on a
    def min_margin(text):
        assert run(tmp_path, "mass-curve", text + "n_samples = 3\n") == 0
        out = capsys.readouterr().out
        return float(out.split("min |M'| a/M = ")[1])

    assert min_margin("model = vp\nmu = -1.5\n") < 1e-10
    assert min_margin("model = vp\nmu = 0.25\n") == pytest.approx(0.875)
    assert min_margin("model = ep\ngamma = 1.5\n") == pytest.approx(0.5)


def test_eos_check_needs_model_ep(tmp_path, capsys):
    # eos-check graded the default power law whatever the model; an
    # ansatz has no pressure law to grade
    assert run(tmp_path, "eos-check", "model = vp\nmu = 0.25\n") == 2
    assert "model = ep" in capsys.readouterr().err
    assert not (tmp_path / "eos_check.json").exists()


def test_kernel_margin_csv(tmp_path):
    text = "gamma = 1.5\nells = 0,2\nns = 64,128\n"
    assert run(tmp_path, "kernel-margin", text) == 0
    lines = (tmp_path / "kernel_margin.csv").read_text().strip().splitlines()
    assert lines[0] == "l_mode,n_nodes,sigma_min_dimensionless"
    assert len(lines) == 5


def test_kernel_margin_scaled_is_invariant(tmp_path):
    # sigma_min scales like a/R^2 under the power-law scaling of the star;
    # sigma_min R^2/a is the same for a = 1 and a = 1.5 (0.1314 at l = 0)
    vals = {}
    for a in ("1.0", "1.5"):
        out = tmp_path / a
        assert run(tmp_path, "kernel-margin",
                   f"gamma = 1.5\na = {a}\nells = 0\nns = 128\n",
                   out=out) == 0
        raw = (out / "kernel_margin.csv").read_text().splitlines()
        scaled = (out / "kernel_margin_scaled.csv").read_text().splitlines()
        assert scaled[0] == "l_mode,n_nodes,sigma_min_R2_over_a"
        vals[a] = [float(lines[1].split(",")[2]) for lines in (raw, scaled)]
    (raw1, s1), (raw15, s15) = vals["1.0"], vals["1.5"]
    assert raw15 > 2.0 * raw1
    assert abs(s15 / s1 - 1.0) < 1e-8
    assert s1 == pytest.approx(0.1314, rel=1e-3)


def test_perturb_shape_peaks_at_equator(tmp_path):
    assert run(tmp_path, "perturb", "gamma = 1.5\nn = 192\n") == 0
    lines = (tmp_path / "shape.csv").read_text().strip().splitlines()
    assert lines[0] == "theta_rad,boundary_displacement_length"
    disp = [float(l.split(",")[1]) for l in lines[1:]]
    assert disp.index(max(disp)) == len(disp) - 1
    modes = (tmp_path / "modes.csv").read_text().strip().splitlines()
    assert modes[0] == "l_mode,xi_R_length_sq"


def test_perturb_degenerate_exit_code(tmp_path):
    gamma = 4.0 / 3.0
    assert run(tmp_path, "perturb", f"gamma = {gamma!r}\nn = 192\n") == 4


def test_continue_degenerate_exit_code(tmp_path, capsys):
    # the tangent at the sphere is refused before any state is written
    assert run(tmp_path, "continue", f"gamma = {4.0 / 3.0!r}\n") == 4
    err = capsys.readouterr().err
    assert err.startswith("degenerate operator:") and "Traceback" not in err
    assert err.count("degenerate operator") == 1
    lines = (tmp_path / "continue.csv").read_text().strip().splitlines()
    assert lines == ["kappa_intensity,R_eq_length,R_pole_length,M_mass,"
                     "residual_sup,newton_iters"]


_TURNING = "eos = power_sum\nterms = " + ",".join(
    f"{c!r}:{g!r}" for c, g in TURNING_TERMS) + "\n"


@pytest.mark.parametrize("command", ["perturb", "continue"])
def test_power_sum_turning_point_is_degenerate(tmp_path, capsys, command,
                                               turning_a):
    # turning_a is the minimum of this law's mass curve, where the l = 0
    # block has a kernel (scaled sigma_min 7e-11 on 256 nodes, 2e-10 on
    # 48); the law's smallest exponent 1.25 is not its gamma
    assert run(tmp_path, command, _TURNING + f"a = {turning_a!r}\n") == 4
    err = capsys.readouterr().err
    assert "sigma_min R^2/a=" in err and "gamma=1.25" not in err


def test_power_sum_near_turning_point_is_healthy(tmp_path, capsys,
                                                 turning_a):
    # 1% above the minimum the scaled sigma_min is 9e-5
    assert run(tmp_path, "perturb",
               _TURNING + f"a = {1.01 * turning_a!r}\n") == 0
    assert run(tmp_path, "radial", _TURNING + f"a = {turning_a!r}\n") == 0
    out = capsys.readouterr().out
    assert "mass condition FAILED" in out and "gamma=" not in out


def test_perturb_below_four_thirds_exits_zero(tmp_path):
    # gamma = 1.22 satisfies the mass condition; its raw l = 0 sigma_min
    # (2.6e-9, R = 488) is small only through the a/R^2 scale
    assert run(tmp_path, "perturb", "gamma = 1.22\nn = 192\n") == 0
    assert run(tmp_path, "perturb",
               "model = vp\nmu = -3\npsi2 = 0.1\nn = 192\n") == 0


def _fresh_run(tmp_path, command, config_text):
    """command on config_text in a fresh interpreter, so that numpy's
    warnings reach stderr."""
    cfg = _write(tmp_path / "run.cfg", config_text)
    src = os.path.dirname(os.path.dirname(rotstar.__file__))
    return subprocess.run(
        [sys.executable, "-m", "rotstar", command, "--config", cfg,
         "--out", str(tmp_path)], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300)


def _vp_a_1e150(tmp_path, command):
    """command on the VP star at a = 1e150 (see _fresh_run)."""
    return _fresh_run(tmp_path, command,
                      "model = vp\nmu = 0.25\npsi2 = 0.1\na = 1e150\n")


def test_continue_non_finite_newton_matrix_is_solver_error(tmp_path):
    # at a = 1e150 the VP density reaches about 1e187 and its potential
    # overflows in the Newton matrix: a solver error that says so, with no
    # numpy RuntimeWarning on stderr (it used to read "Newton stalled ...
    # residual nan")
    out = _vp_a_1e150(tmp_path, "continue")
    assert out.returncode == 3
    assert "not finite" in out.stderr
    assert "RuntimeWarning" not in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("command, text", [
    ("radial", "a = 1e300\n"),
    ("continue", "a = 1e150\n"),
    ("radial", "eos = power_sum\nterms = 1e300:1.01\n"),
    ("radial", "eos = power_sum\nterms = 1e-300:1.5\n"),
    ("eos-check", "eos = power_sum\nterms = 1e-300:1.5\n"),
    ("kernel-margin", "ells = 200\nns = 64\n")],
    ids=["radial-a1e300", "continue-a1e150", "sum-c1e300", "sum-c1e-300",
         "eos-check-c1e-300", "margin-l200"])
def test_overflowing_input_is_one_solver_error_line(tmp_path, command, text):
    # the source, the radial Newton system, h^-1 on eos-check's samples or
    # the mode-200 potential overflows: one typed line on stderr, with no
    # numpy RuntimeWarning before it (there were up to 15 lines) and no
    # traceback
    out = _fresh_run(tmp_path, command, text)
    assert out.returncode == 3
    assert out.stderr.startswith("solver error: ")
    assert len(out.stderr.splitlines()) == 1
    assert "RuntimeWarning" not in out.stderr
    assert "Traceback" not in out.stderr


def test_perturb_non_finite_newton_matrix_is_solver_error(tmp_path):
    # the same star in perturb: the Newton matrix at zeta = 0 is refused
    # before its right-hand side, which overflows at kappa != 0, is used
    # (perturb used to end in a LinAlgError traceback here)
    out = _vp_a_1e150(tmp_path, "perturb")
    assert out.returncode == 3
    assert "Newton matrix is not finite" in out.stderr
    assert "RuntimeWarning" not in out.stderr
    assert "Traceback" not in out.stderr


def test_continue_writes_curve(tmp_path):
    text = "gamma = 1.5\nkappas = 0,1e-3\n"
    assert run(tmp_path, "continue", text) == 0
    lines = (tmp_path / "continue.csv").read_text().strip().splitlines()
    assert lines[0].startswith("kappa_intensity,R_eq_length,R_pole_length")
    assert len(lines) == 3
    assert (tmp_path / "solution_k1.000000e-03.json").exists()


def test_kappas_sharing_a_solution_stem_are_config_error(tmp_path, capsys):
    # 1e-3 and 1.0000001e-3 both name their files solution_k1.000000e-03:
    # the second state's files would replace the first's
    text = "gamma = 1.5\nkappas = 0,1e-3,1.0000001e-3\n"
    assert run(tmp_path, "continue", text) == 2
    err = capsys.readouterr().err
    assert "0.001 and 0.0010000001" in err
    assert not list(tmp_path.glob("*.csv"))
    # perturb writes no solution file, so the clash is none of its business
    assert run(tmp_path, "perturb", text) == 0
    assert {p.name for p in tmp_path.glob("*.csv")} == {"shape.csv",
                                                         "modes.csv"}
    # a repeated kappa is one state, written once per request
    text = "gamma = 1.5\nkappas = 0,1e-3,1e-3\n"
    assert run(tmp_path, "continue", text) == 0
    lines = (tmp_path / "continue.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_continue_cap_leaves_partial_curve(tmp_path, capsys):
    text = "gamma = 1.5\nkappas = 0,0.05\n"
    assert run(tmp_path, "continue", text) == 3
    err = capsys.readouterr().err
    assert "deformation cap" in err
    lines = (tmp_path / "continue.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the kappa = 0 row
    assert float(lines[1].split(",")[0]) == 0.0


def test_eos_check_json(tmp_path):
    text = "eos = power_sum\nterms = 1:1.5,1:1.8\n"
    assert run(tmp_path, "eos-check", text) == 0
    rep = json.loads((tmp_path / "eos_check.json").read_text())
    assert rep["assumptions"]["passed"]
    assert rep["mass_condition_b"]["passed"]


def test_reruns_are_bit_identical(tmp_path):
    text = "gamma = 1.5\na_min = 0.9\na_max = 1.1\nn_samples = 3\n"
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run(tmp_path, "mass-curve", text, out=d1) == 0
    assert run(tmp_path, "mass-curve", text, out=d2) == 0
    b1 = (d1 / "mass_curve.csv").read_bytes()
    b2 = (d2 / "mass_curve.csv").read_bytes()
    assert b1 == b2


def test_continue_writes_every_file_atomically(tmp_path, monkeypatch):
    replaced = []

    def recording_replace(src, dst):
        replaced.append(os.path.realpath(dst))
        real_replace(src, dst)

    real_replace = os.replace
    monkeypatch.setattr(os, "replace", recording_replace)
    out = tmp_path / "out"
    assert run(tmp_path, "continue", "gamma = 1.5\nkappas = 0,1e-3\n",
               out=out) == 0
    written = [os.path.realpath(p) for p in out.iterdir()]
    assert any("solution_k" in p for p in written)
    assert set(written) <= set(replaced)


def test_no_temp_files_left(tmp_path):
    assert run(tmp_path, "radial", "gamma = 1.5\n") == 0
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_rotation_whose_square_overflows_is_config_error(tmp_path, capsys):
    # omega^2 and the VP kappa^2 overflowed: OverflowError tracebacks
    for command in ("perturb", "continue"):
        assert run(tmp_path, command, "gamma = 1.5\nomega = 1e200\n") == 2
        assert "omega squared must be finite" in capsys.readouterr().err
    assert run(tmp_path, "perturb", "model = vp\nkappas = 0,1e200\n") == 2
    assert "kappas squared must be finite" in capsys.readouterr().err


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _text(floats):
    """Config text of extreme floats or of values near the defaults."""
    return st.one_of(floats, st.floats(-4.0, 4.0)).map(repr)


#: ns and ells are always drawn, so no kernel-margin run pays the default
#: 512-node ladder (0.15 s); the other commands name and ignore them
_CONFIGS = st.fixed_dictionaries({
    # mostly config errors, then valid ladder sizes; l = 200 overflows
    "ns": st.lists(st.one_of(st.integers(1, 24), st.sampled_from(
        range(4, 65, 2))).map(str), min_size=1, max_size=3).map(",".join),
    "ells": st.lists(st.one_of(st.integers(0, 6), st.just(200)).map(str),
                     min_size=1, max_size=3).map(",".join),
}, optional={
    "model": st.sampled_from(["ep", "vp"]),
    "eos": st.sampled_from(["power_law", "power_sum"]),
    "a": _text(_FLOATS), "omega": _text(_FLOATS), "gamma": _text(_FLOATS),
    "mu": _text(_FLOATS), "psi0": _text(_FLOATS), "psi2": _text(_FLOATS),
    "tol": _text(_POSITIVE), "ode_tol": _text(_POSITIVE),
    # mostly config errors, then valid perturb grids and one above the cap
    "n": st.one_of(st.integers(1, 24), st.sampled_from(range(16, 65, 8)),
                   st.just(592)).map(str),
    "kappas": st.lists(st.floats(0.0, 1e300), max_size=2).map(
        lambda k: ",".join(map(repr, [0.0] + sorted(k)))),
    "terms": st.lists(st.tuples(_text(_FLOATS), _text(_FLOATS)).map(
        ":".join), min_size=1, max_size=2).map(",".join),
})


@settings(max_examples=120, deadline=None, derandomize=True)
@given(command=st.sampled_from(["radial", "eos-check", "perturb",
                                 "kernel-margin"]),
       data=_CONFIGS)
def test_fuzzed_configs_exit_with_a_code(tmp_path_factory, command, data):
    # any config: the command's RunConfig builds or raises ConfigError, and
    # main returns 0, 2, 3 or 4 without a traceback
    try:
        RunConfig(command, data)
    except ConfigError:
        pass
    out = tmp_path_factory.mktemp("fuzz")
    text = "".join(f"{k} = {v}\n" for k, v in data.items())
    assert run(out, command, text) in (0, 2, 3, 4)


#: the model's config lines: EP gamma, or VP mu with the rotating part
#: psi2 = 0.1 of the law (at psi2 = 0 it does not depend on kappa)
_MODEL = st.one_of(
    st.floats(1.25, 1.9).map(lambda g: f"model = ep\ngamma = {g!r}\n"),
    st.floats(-2.0, 0.5).map(
        lambda mu: f"model = vp\nmu = {mu!r}\npsi2 = 0.1\n"))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=_MODEL, a=st.floats(0.9, 1.1),
       kappas=st.lists(st.floats(-6.0, -1.0), min_size=1, max_size=2,
                       unique=True).map(lambda x: [0.0] + sorted(10.0 ** k
                                                                 for k in x)))
def test_fuzzed_continue_converges_or_exits_with_a_code(tmp_path_factory,
                                                        model, a, kappas):
    # continue on either model: exit 0, 3 or 4 without a traceback (2 for a
    # schedule whose unequal kappas share a solution file stem), and on
    # exit 0 every state below the default tol 1e-8 within the Newton step
    # budget of 8
    text = model + f"a = {a!r}\nkappas = {','.join(map(repr, kappas))}\n"
    out = tmp_path_factory.mktemp("fuzz_continue")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(out, "continue", text)
    shared = len(set(map(solution_stem, kappas))) < len(set(kappas))
    assert code in ((2,) if shared else (0, 3, 4))
    assert "Traceback" not in err.getvalue()
    if code == 0:
        rows = (out / "continue.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == len(kappas)
        for row in rows:
            residual_sup, iters = row.split(",")[-2:]
            assert float(residual_sup) < 1e-8 and int(iters) <= 8
