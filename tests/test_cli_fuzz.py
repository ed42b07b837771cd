"""CLI fuzz: any argv and config file drawn from small pools of valid,
boundary, non-finite, non-numeric and unknown values exits 0, 2 or 3 with
no other exception escaping."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from halfcos import cli

# Per flag: (cheap valid values, boundary and unknown values). Values past
# a size limit (the last bad entries of --d, --kmax, --grid-level, --J,
# --nmin, --N-list and --N) are drawn only for the flags that have one.
# Values that are admitted but slow are left out: --funcs or --shifts of
# 10**9, an approx --kmax of 10**5 in d=1, a --nmax past the Fibonacci
# bound with a small --nmin (every smaller rule is built first).
_POOLS = {
    "--d": (["1", "2"], ["0", "-1", "5", "25"]),
    "--funcs": (["1", "2"], ["0", "-3"]),
    "--seed": (["0", "7"], ["-1"]),
    "--fn": (["kink1d", "kink2d", "exp1", "exp3", "bspline2", "gibbs", "mode4_2", "const3"],
             ["nosuch"]),
    "--mode": (["decay", "gibbs"], ["nosuch"]),
    "--kmax": (["1", "8", "16"], ["0", "-5", "1000000000"]),
    "--grid-level": (["5", "8"], ["0", "-1", "40"]),
    "--r": (["1.5", "0.5"], ["-1"]),
    "--p": (["2", "1", "0.5", "inf"], ["0", "-1"]),
    "--q": (["2", "1", "inf"], ["0"]),
    "--compare": (["hpc", "cw,diff,hpc", "diff"], [",", "", "nosuch"]),
    "--J": (["2", "3"], ["0", "-1", "40"]),
    "--m": (["2", "3"], ["1", "0", "-1"]),
    "--rule": (["fibonacci", "net"], ["nosuch"]),
    "--alpha": (["1", "2"], ["3"]),
    "--nmin": (["5", "8"], ["0", "1", "2", "-1", "21", "35", "60", "1000000"]),
    "--nmax": (["6", "10", "13"], ["0", "1", "-1"]),
    "--shifts": (["0", "1", "2"], ["-2"]),
    "--log-exponent": (["0", "1.5"], ["-1", "1e308"]),
    "--skip": (["0", "1", "2"], ["-1", "50"]),
    "--N-list": (["2,3,4", "2,4,8,16"], ["1", "0,2", "a,b", "", "2,30000000"]),
    "--N": (["2", "4"], ["0", "-1", "100000"]),
    "--oversample": (["4", "2"], ["0", "0.01", "-1"]),
    "--weights": (["uniform"], ["nosuch"]),
    "action": (["list"], ["nosuch"]),
}
# Float flags also draw non-finite and non-numeric text.
_FLOATS = {"--r", "--p", "--q", "--log-exponent", "--oversample"}
_NUMERIC_JUNK = ["nan", "inf", "-inf", "abc", ""]
# Always drawn: the flags whose default is slow in d = 2 or 3 (--funcs 50,
# approx --kmax 512, recover --grid-level 10, --J 6), and --fn and --seed,
# without which most commands exit 2 at once.
_ALWAYS = {"--funcs", "--kmax", "--grid-level", "--J", "--fn", "--seed"}
# Config-file values: a key's own pool, or a mistyped, null or nested value.
_CONFIG_JUNK = [None, True, 1.5, -3, "abc", [1], {"a": 1}, {"nested": [None]}]


def _value(flag):
    """A valid value two times in three, else a bad one."""
    valid, bad = _POOLS[flag]
    bad = st.sampled_from(bad + (_NUMERIC_JUNK if flag in _FLOATS else []))
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), bad)


@st.composite
def _invocations(draw):
    cmd = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, _, plot, options = cli._COMMANDS[cmd]
    argv = [cmd]
    for flag, _, kw in options:
        if flag not in _ALWAYS and not draw(st.booleans()):
            continue
        if kw.get("action") == "store_const":
            argv.append(flag)
        else:
            argv += ([flag] if flag.startswith("--") else []) + [draw(_value(flag))]
    if plot and draw(st.integers(0, 3)) == 0:
        argv.append("--gnuplot")
    config = None
    if draw(st.integers(0, 3)) == 0:
        config = {}
        for flag in draw(st.lists(st.sampled_from([o[0] for o in options] + ["--nosuch"]),
                                  max_size=3, unique=True)):
            junk = st.sampled_from(_CONFIG_JUNK)
            value = st.one_of(_value(flag), junk) if flag in _POOLS else junk
            config[flag.lstrip("-").replace("-", "_")] = draw(value)
    out = draw(st.sampled_from([None, None, None, "-", "file", "dir"]))
    return argv, config, out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_invocations())
def test_any_argv_and_config_exit_zero_two_or_three(workdir, case):
    argv, config, out = case
    if config is not None:
        path = workdir / "run.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    if out is not None:  # "dir" cannot be written
        argv = argv + ["--out", {"-": "-", "file": str(workdir / "out.csv"), "dir": str(workdir)}[out]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refuses an unknown choice or a non-numeric value
            rc = exc.code
    assert rc in (0, 2, 3), (argv, config)
