"""Command line contract: resolved-config headers, reproducible bodies,
and the documented exit codes."""

import json
import os
import re
import subprocess
import sys

import pytest

from halfcos import cli, errors
from halfcos.corpus import corpus


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_testfns_lists_the_corpus(capsys):
    rc, out, _ = run(capsys, ["testfns", "list"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# config: cmd=testfns")
    assert lines[1] == "name,d,integral,tag"
    assert len(lines) == 2 + len(corpus())
    names = {line.split(",")[0] for line in lines[2:]}
    assert {"kink1", "kink2", "bspline4_2", "gibbs", "exp3"} <= names


def test_identities_residuals_are_tiny(capsys):
    rc, out, _ = run(capsys, ["identities", "--d", "1", "--seed", "3",
                              "--funcs", "3"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[1] == "identity,max_rel_residual"
    assert len(lines) == 8
    for line in lines[2:]:
        name, residual = line.split(",")
        assert float(residual) < 1e-10, name


def test_config_header_reflects_resolution(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"d": 2, "funcs": 2}))
    rc, out, _ = run(capsys, ["identities", "--config", str(cfgfile),
                              "--seed", "5"])
    assert rc == 0
    head = out.split("\n")[0]
    assert "cmd=identities" in head
    assert "d=2" in head and "funcs=2" in head and "seed=5" in head
    # explicit flags override the file
    rc, out, _ = run(capsys, ["identities", "--config", str(cfgfile),
                              "--seed", "5", "--d", "1"])
    assert rc == 0 and "d=1" in out.split("\n")[0]
    # the header shows the config as the command used it: the seed as an int
    cfgfile.write_text(json.dumps({"funcs": 2, "seed": 5.0}))
    rc, out, _ = run(capsys, ["identities", "--config", str(cfgfile)])
    assert rc == 0 and out.split("\n")[0].endswith(" seed=5")
    # and every value as its flag prints it: {"p": 2} is --p 2, p=2.0
    argv = ["norms", "--fn", "kink1", "--J", "3"]
    rc, flagged, _ = run(capsys, argv + ["--p", "2"])
    assert rc == 0 and " p=2.0 " in flagged.split("\n")[0]
    cfgfile.write_text(json.dumps({"p": 2}))
    assert run(capsys, argv + ["--config", str(cfgfile)]) == (0, flagged, "")
    cfgfile.write_text(json.dumps({"kmax": 8.0}))  # an integral number is an int
    rc, out, _ = run(capsys, ["coeffs", "--fn", "kink1", "--config", str(cfgfile)])
    assert rc == 0 and out.split("\n")[0].endswith(" kmax=8 mode=decay")


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nonsense": 1}')
    rc, _, err = run(capsys, ["identities", "--config", str(bad), "--seed", "1"])
    assert rc == 2 and "nonsense" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc, _, err = run(capsys, ["identities", "--config", str(broken), "--seed", "1"])
    assert rc == 2
    rc, _, err = run(capsys, ["identities", "--config", str(tmp_path / "none.json"),
                              "--seed", "1"])
    assert rc == 2


def test_randomized_paths_demand_a_seed(capsys):
    rc, _, err = run(capsys, ["identities"])
    assert rc == 2 and "--seed is mandatory" in err
    rc, _, err = run(capsys, ["recover", "--fn", "bspline2_1"])
    assert rc == 2 and "--seed is mandatory" in err
    rc, _, err = run(capsys, ["cubature", "--fn", "exp2", "--shifts", "2"])
    assert rc == 2 and "--seed is mandatory" in err


def test_unknown_function_is_a_config_error(capsys):
    rc, _, err = run(capsys, ["norms", "--fn", "nosuch"])
    assert rc == 2 and "nosuch" in err and "testfns" in err
    rc, _, err = run(capsys, ["norms"])
    assert rc == 2 and "--fn" in err


def test_bad_compare_and_wrong_rule_dimension(capsys):
    rc, _, err = run(capsys, ["norms", "--fn", "kink1", "--compare", "cw,bogus"])
    assert rc == 2 and "bogus" in err
    rc, out, err = run(capsys, ["norms", "--fn", "bspline2", "--J", "-1"])
    assert rc == 2 and out == "" and "J must be >= 0" in err
    rc, _, err = run(capsys, ["cubature", "--fn", "kink1", "--rule", "fibonacci"])
    assert rc == 2 and "two-dimensional" in err
    rc, _, err = run(capsys, ["coeffs", "--fn", "kink2", "--mode", "gibbs"])
    assert rc == 2 and "univariate" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["approx", "--fn", "kink1d", "--N-list", "2,3"], "not enough positive errors"),
        (["approx", "--fn", "kink1d", "--N-list", "2"], "not enough positive errors"),
        (["approx", "--fn", "kink1d", "--N-list", "0"], "N must be >= 1"),
        (["recover", "--fn", "kink1d", "--N", "0", "--seed", "1"], "N must be >= 1"),
        (["approx", "--fn", "bspline2"], "no closed-form coefficients"),
        (["coeffs", "--fn", "kink1d", "--kmax", "0"], "--kmax must be >= 1"),
    ],
)
def test_rate_table_inputs_exit_two(capsys, argv, message):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == "" and message in err


def test_divergent_tail_exits_three(capsys):
    rc, _, err = run(capsys, ["norms", "--fn", "kink1", "--r", "2.5",
                              "--strict", "--compare", "hpc"])
    assert rc == 3 and "numerical precondition" in err


def test_norms_table_and_ratios(capsys):
    rc, out, _ = run(capsys, ["norms", "--fn", "bspline2", "--r", "1.5",
                              "--p", "2", "--q", "2"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[1] == "norm_kind,r,p,q,J_max,value,tail_bound"
    kinds = [line.split(",")[0] for line in lines[2:5]]
    assert kinds == ["cw-seq", "diff", "hpc"]
    ratios = [line for line in lines if line.startswith("# ratio")]
    assert len(ratios) == 2


def test_cubature_table_with_slope_trailer(capsys):
    rc, out, _ = run(capsys, ["cubature", "--fn", "kink1", "--rule", "net",
                              "--nmin", "3", "--nmax", "8", "--tent"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[1] == "n,error,log2n,log2err"
    ns = [int(line.split(",")[0]) for line in lines[2:8]]
    assert ns == [8, 16, 32, 64, 128, 256]
    assert lines[-2].startswith("# slope = ")
    assert lines[-1].startswith("# intercept = ")


def test_approx_table(capsys):
    rc, out, _ = run(capsys, ["approx", "--fn", "monomial1",
                              "--N-list", "2,4,8,16", "--kmax", "256"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[1] == "n,error,log2n,log2err"
    assert len([l for l in lines if not l.startswith("#")]) == 5
    slope = float(lines[-2].split("=")[1])
    assert -1.8 < slope < -1.2


def test_recover_row(capsys):
    rc, out, _ = run(capsys, ["recover", "--fn", "bspline2_1", "--N", "4",
                              "--seed", "2", "--grid-level", "9"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[1] == "N,dim,samples,ls_error,projection_error,condition,normal_residual"
    fields = lines[2].split(",")
    assert int(fields[0]) == 4 and int(fields[1]) == 4
    assert float(fields[3]) > 0.0 and float(fields[5]) > 1.0


def test_coeffs_decay_and_gibbs_modes(capsys):
    rc, out, _ = run(capsys, ["coeffs", "--fn", "exp1", "--kmax", "8"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[1] == "k_1,weighted_abs_coef"
    assert len(lines) == 2 + 9
    rc, out, _ = run(capsys, ["coeffs", "--fn", "gibbs", "--mode", "gibbs",
                              "--kmax", "4"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[1] == "k,abs_sine_coef_k,abs_hpc_coef_k2"
    first = lines[2].split(",")
    assert float(first[1]) == pytest.approx(0.3183098, abs=1e-4)


def test_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["recover", "--fn", "bspline2_1", "--N", "4", "--seed", "11",
            "--grid-level", "9"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert cli.main(["recover", "--fn", "bspline2_1", "--N", "4", "--seed", "12",
                     "--grid-level", "9", "--out", str(c)]) == 0
    assert c.read_bytes() != a.read_bytes()


def test_gnuplot_companion(tmp_path, capsys):
    out = tmp_path / "rate.csv"
    rc = cli.main(["approx", "--fn", "monomial1", "--N-list", "2,4,8",
                   "--kmax", "64", "--out", str(out), "--gnuplot"])
    capsys.readouterr()
    assert rc == 0
    script = (tmp_path / "rate.csv.gp").read_text()
    assert f"plot '{out}' using 1:2" in script
    assert "set logscale xy" in script
    rc, _, err = run(capsys, ["approx", "--fn", "monomial1", "--N-list", "2,4,8",
                              "--kmax", "64", "--gnuplot"])
    assert rc == 2 and "--gnuplot needs --out" in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["identities", "--d", "0", "--seed", "1"], 2, "d must be >= 1"),
        (["coeffs", "--fn", "kink1", "--mode", "gibbs", "--kmax", "0"], 2,
         "--kmax must be >= 1, got 0"),
        (["recover", "--fn", "kink1d", "--N", "4", "--seed", "1",
          "--grid-level", "0"], 3, "grid level m=0"),
        (["recover", "--fn", "kink1d", "--N", "2", "--seed", "1",
          "--oversample", "0"], 2, "underdetermined"),
        (["recover", "--fn", "kink1d", "--N", "2", "--seed", "1",
          "--oversample", "0.01"], 2, "underdetermined"),
        (["identities", "--funcs", "0", "--seed", "1"], 2, "n_funcs must be >= 1"),
        (["coeffs", "--fn", "kink1d", "--grid-level", "-1"], 2, "grid level m must be >= 0"),
        (["norms", "--fn", "bspline2", "--r", "nan"], 2, "r must be finite"),
        (["identities", "--d", "2", "--seed", "-1"], 2, "seed must be >= 0"),
        (["recover", "--fn", "kink1d", "--N", "4", "--seed", "-3"], 2, "seed must be >= 0"),
        (["cubature", "--rule", "net", "--fn", "exp1", "--shifts", "2", "--seed", "-1"],
         2, "seed must be >= 0"),
        (["recover", "--fn", "kink1d", "--N", "4", "--seed", "1",
          "--oversample", "nan"], 2, "oversample must be finite"),
        (["recover", "--fn", "kink1d", "--N", "4", "--seed", "1",
          "--oversample", "inf"], 2, "oversample must be finite"),
        (["coeffs", "--fn", "kink1", "--mode", "gibbs", "--kmax", "9",
          "--grid-level", "3"], 3, "grid level m=3"),
        (["coeffs", "--fn", "kink1", "--mode", "gibbs", "--kmax", "9",
          "--grid-level", "0"], 3, "grid level m=0"),
        (["coeffs", "--fn", "kink1d", "--kmax", "4", "--grid-level", "0"], 3, "grid level m=0"),
        (["cubature", "--rule", "net", "--fn", "exp1", "--shifts", "-2"], 2,
         "shifts must be >= 0"),
        (["approx", "--fn", "kink1d", "--kmax", "-5"], 2, "kmax must be >= 0"),
        # sizes past the dense-grid limit are refused before any allocation
        (["recover", "--fn", "kink1d", "--N", "3", "--seed", "1", "--grid-level", "40"], 2,
         "--grid-level 40 asks for a level-40 grid in d=1"),
        (["norms", "--fn", "kink1", "--J", "40"], 2, "--J 40 asks for a level-43 grid"),
        (["identities", "--d", "5", "--seed", "1"], 2, "--d 5 asks for a level-5 grid in d=5"),
        (["coeffs", "--fn", "kink1d", "--grid-level", "30"], 2, "--grid-level 30 asks"),
        (["coeffs", "--fn", "kink1", "--mode", "gibbs", "--grid-level", "30"], 2,
         "--grid-level 30 asks"),
        (["coeffs", "--fn", "kink2d", "--kmax", "4096"], 2, "--kmax 4096 asks for a level-14 grid"),
        (["approx", "--fn", "kink2d", "--kmax", "100000"], 2,
         "--kmax 100000 asks for a coefficient box of 10000200001 entries in d=2"),
        (["recover", "--fn", "kink1d", "--N", "100000", "--seed", "1"], 2,
         "--N 100000 asks for a least-squares design of at least N^2"),
        (["recover", "--fn", "kink2d", "--N", "256", "--seed", "1"], 2,
         "--N 256 with --oversample 4.0 asks for a least-squares design"),
        (["approx", "--fn", "kink1d", "--N-list", "2,4,30000000", "--kmax", "64"], 2,
         "cross order N=30000000 asks for a cross of at least 30000000 members in d=1"),
        (["approx", "--fn", "kink2d", "--N-list", "2,2000000", "--kmax", "64"], 2,
         "cross order N=2000000 asks for a cross of 29326296 members in d=2"),
        # a Fibonacci rule past 2^24 node coordinates is refused before b_index is formed
        (["cubature", "--rule", "fibonacci", "--fn", "kink2d", "--nmin", "60", "--nmax", "61"],
         2, "Fibonacci index 60 asks for a rule of 2 x b_60 node coordinates"),
        (["cubature", "--rule", "fibonacci", "--fn", "kink2d", "--nmin", "100", "--nmax", "101"],
         2, "Fibonacci index 100 asks"),
        (["cubature", "--rule", "fibonacci", "--fn", "kink2d", "--nmin", "1000000",
          "--nmax", "1000001"], 2, "Fibonacci index 1000000 asks"),
        # a log correction that cannot be formed: tracebacks, or slope nan for nan
        (["cubature", "--fn", "kink2d", "--log-exponent", "nan"], 2,
         "log_exponent must be finite, got nan"),
        (["approx", "--fn", "kink1d", "--kmax", "16", "--log-exponent", "inf"], 2,
         "log_exponent must be finite, got inf"),
        (["cubature", "--fn", "kink2d", "--log-exponent", "1e308"], 2,
         "log_exponent=1e+308 cannot correct the error at n="),
        (["cubature", "--fn", "kink2d", "--log-exponent", "1", "--nmin", "2", "--skip", "0"], 2,
         "log_exponent=1.0 cannot correct the error at n=1"),
        # the largest rule is checked before the first one is built
        (["cubature", "--rule", "fibonacci", "--fn", "kink2d", "--nmin", "5", "--nmax", "40"],
         2, "Fibonacci index 40 asks"),
        (["cubature", "--rule", "net", "--fn", "exp1", "--nmin", "5", "--nmax", "21"], 2,
         "m must lie in 0..20"),
        # a negative skip would slice from the end
        (["cubature", "--fn", "kink2d", "--skip", "-3"], 2, "skip must be >= 0, got -3"),
        (["approx", "--fn", "kink1d", "--skip", "-1"], 2, "skip must be >= 0, got -1"),
        # gibbs mode samples as decay mode does: a negative level is a config error
        (["coeffs", "--fn", "kink1", "--mode", "gibbs", "--grid-level", "-1"], 2,
         "grid level m must be >= 0, got -1"),
        # numbers past the float range: binomial weights of --m, level weights of --r
        (["norms", "--fn", "bspline2", "--m", "1030", "--compare", "diff"], 2,
         "difference order m=1030 has binomial weights past the float range"),
        (["norms", "--fn", "bspline2", "--r", "1200", "--compare", "hpc"], 2,
         "r=1200.0: the terms up to level (1,) leave the float range"),
        (["norms", "--fn", "bspline2", "--r", "100", "--m", "101", "--compare", "diff"], 2,
         "r=100.0: the terms up to level (5,) leave the float range"),
    ],
)
def test_boundary_inputs_exit_with_a_message(capsys, argv, code, message):
    rc, out, err = run(capsys, argv)
    assert rc == code and out == "" and message in err
    assert "matrix condition" not in err


def test_exit_code_follows_the_error_class(capsys, monkeypatch):
    # a HalfcosError subclass that the CLI never names still exits 3
    class NewNumericError(errors.HalfcosError):
        pass

    classes = [NewNumericError] + [getattr(errors, name) for name in errors.__all__]
    for cls in classes:
        def fail(*args, _cls=cls, **kwargs):
            raise _cls("injected")

        monkeypatch.setattr(cli, "identity_suite", fail)
        rc, out, err = run(capsys, ["identities", "--seed", "1"])
        if cls is errors.ConfigError:
            assert (rc, err) == (2, "halfcos: config error: injected\n")
        else:
            assert (rc, err) == (3, "halfcos: numerical precondition violated: injected\n"), cls
        assert out == ""


@pytest.mark.parametrize(
    "argv, builder",
    [(["cubature", "--rule", "fibonacci", "--fn", "kink2d", "--nmin", "5", "--nmax", "40"],
      "rank1_lattice"),
     (["cubature", "--rule", "net", "--fn", "exp1", "--nmin", "5", "--nmax", "21"],
      "_net_points_int")],
)
def test_cubature_refuses_the_largest_rule_before_building_any(monkeypatch, capsys, argv, builder):
    from halfcos import cubature

    built = []
    real = getattr(cubature, builder)
    monkeypatch.setattr(cubature, builder, lambda *a: built.append(a) or real(*a))
    rc, out, _ = run(capsys, argv)
    assert rc == 2 and out == "" and built == []
    argv[argv.index("--nmax") + 1] = "8"  # the counter does see the rules that are built
    assert run(capsys, argv)[0] == 0 and len(built) == 4


@pytest.mark.parametrize(
    "content, field",
    [({"d": "abc", "seed": 1}, "d='abc'"), ({"funcs": None, "seed": 1}, "funcs=None"),
     ({"seed": "x"}, "seed='x'")],
)
def test_config_values_that_do_not_convert_exit_two(tmp_path, capsys, content, field):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(content))
    rc, out, err = run(capsys, ["identities", "--config", str(cfgfile)])
    assert rc == 2 and out == "" and field in err


@pytest.mark.parametrize(
    "argv, content, field",
    [
        (["cubature", "--fn", "kink2d", "--nmax", "9"], {"tent": "false"}, "tent='false'"),
        (["norms", "--fn", "const1", "--r", "1.25", "--compare", "cw,hpc"], {"strict": "false"},
         "strict='false'"),
        (["identities", "--seed", "1", "--funcs", "2"], {"d": True}, "d=True"),
        (["coeffs", "--fn", "kink1"], {"kmax": 16.7}, "kmax=16.7"),
        (["coeffs", "--fn", "kink1"], {"mode": "bogus"}, "mode='bogus'"),
        (["cubature", "--fn", "exp1", "--rule", "net", "--nmax", "9"], {"alpha": 3}, "alpha=3"),
        (["approx", "--fn", "kink1d", "--kmax", "16"], {"p": 1}, "p=1"),
        (["testfns"], {"action": "dump"}, "action='dump'"),
    ],
)
def test_config_values_are_checked_as_their_flags(tmp_path, capsys, argv, content, field):
    # each of these once ran as a value other than the one the header printed
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(content))
    rc, out, err = run(capsys, argv + ["--config", str(cfgfile)])
    assert rc == 2 and out == "" and f"config value {field} is not" in err


def test_recover_config_with_unknown_weights_exits_two(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"weights": "christoffel"}))
    rc, out, err = run(capsys, ["recover", "--fn", "kink1d", "--N", "8", "--seed", "1",
                                "--config", str(cfgfile)])
    assert rc == 2 and out == "" and "weights='christoffel'" in err


def test_config_with_a_nested_function_name_exits_two(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    for fn in ({"a": 1}, [1]):  # unhashable: a TypeError escaped before
        cfgfile.write_text(json.dumps({"fn": fn}))
        rc, out, err = run(capsys, ["coeffs", "--config", str(cfgfile)])
        assert rc == 2 and out == "" and "unknown test function" in err


def test_out_that_cannot_be_written_exits_two(tmp_path, capsys):
    rc, out, err = run(capsys, ["testfns", "--out", str(tmp_path)])  # a directory
    assert rc == 2 and out == "" and "cannot write --out" in err


_NO_SCIPY_CHECK = """
import io, sys, contextlib
import numpy as np
from halfcos import cli
from halfcos.grids import (SYM, UNIT, GridFunction, fourier_analyze_dense,
                           fourier_synthesize_dense, hpc_analyze_dense, hpc_synthesize_dense)
from halfcos.wavelets import dual_piecewise
for argv in (["testfns"],
             ["identities", "--d", "2", "--seed", "7", "--funcs", "10"],
             ["coeffs", "--fn", "kink1d", "--kmax", "32"],
             ["norms", "--fn", "bspline2", "--r", "1.5", "--p", "2", "--q", "2"],
             ["cubature", "--rule", "fibonacci", "--tent", "--fn", "kink2d", "--nmax", "13"],
             ["approx", "--fn", "kink1d", "--kmax", "4096"],
             ["recover", "--fn", "bspline2", "--N", "8", "--seed", "11"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
hpc_synthesize_dense(hpc_analyze_dense(GridFunction(UNIT, 2, np.ones((5, 5)))), 2)
fourier_synthesize_dense(fourier_analyze_dense(GridFunction(SYM, 2, np.ones((8, 8)))), 2)
dual_piecewise(3, 1)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_readme_commands_and_transforms_do_not_load_scipy():
    # A fresh interpreter: this test session has scipy loaded already.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Flags of each subcommand in parser order, as listed before the option table.
_FORMER_FLAGS = {
    "identities": ["--config", "--out", "--d", "--funcs", "--seed"],
    "coeffs": ["--config", "--out", "--fn", "--mode", "--kmax", "--grid-level", "--gnuplot"],
    "norms": ["--config", "--out", "--fn", "--r", "--p", "--q", "--compare", "--J", "--m",
              "--strict"],
    "cubature": ["--config", "--out", "--fn", "--rule", "--alpha", "--tent", "--nmin", "--nmax",
                 "--shifts", "--seed", "--log-exponent", "--skip", "--gnuplot"],
    "approx": ["--config", "--out", "--fn", "--N-list", "--p", "--kmax", "--log-exponent",
               "--skip", "--gnuplot"],
    "recover": ["--config", "--out", "--fn", "--N", "--oversample", "--seed", "--grid-level",
                "--weights"],
    "testfns": ["--config", "--out"],
}


@pytest.mark.parametrize("cmd", sorted(_FORMER_FLAGS))
def test_help_lists_exactly_the_former_flags(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, "--help"])
    text = capsys.readouterr().out
    assert exc.value.code == 0
    options = text.split("options:\n")[1]
    assert re.findall(r"^  (-[-\w]+)", options, flags=re.M) == ["-h"] + _FORMER_FLAGS[cmd]
    words = " ".join(options.split())
    assert "--config CONFIG JSON file with defaults; flags override" in words
    assert "--out OUT output CSV path (default stdout)" in words
    assert ("--m M difference order" in words) == (cmd == "norms")
    assert ("positional arguments:\n  action" in text) == (cmd == "testfns")


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--fn", "kink1", "--mode", "sine"],
        ["cubature", "--fn", "kink2", "--rule", "lattice"],
        ["cubature", "--fn", "exp1", "--rule", "net", "--alpha", "3"],
        ["recover", "--fn", "kink1", "--N", "4", "--seed", "1", "--weights", "christoffel"],
        ["approx", "--fn", "kink1d", "--kmax", "16", "--p", "1"],
        ["testfns", "dump"],
    ],
)
def test_bad_choices_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
