"""Command line front end.

Thin by contract: this module parses flags, calls exactly one
orchestration routine per subcommand, and formats CSV. Every emitted number
is produced by a library call; nothing is computed here.

argparse is the one resolver: the values of an optional JSON config file
become the parser's defaults, and explicit flags override them. Each value
is converted and checked as its flag is (an int flag refuses 16.7, a choice
must be one of the flag's choices, an on/off flag such as --tent takes only
true or false), so every handler gets typed values. Every output starts with
a `# config:` line carrying the values the run used, so a run can be
reproduced from its own artifact. Runs with the same configuration and seed
produce byte-identical bodies.

Exit codes: 0 success, 2 configuration error (ConfigError: unknown
flag/function, missing mandatory seed, bad config file), 3 any other
HalfcosError, a numerical precondition violated (aliasing, ill-conditioned
design, divergent tail, truncation).
"""

from __future__ import annotations

import argparse
import json
import sys

from .approx import ls_error_experiment, projection_error_rate
from .besov import BesovParams, NormReport
from .corpus import corpus, get_member, gibbs_demo
from .cubature import (
    _check_fibonacci_index,
    _check_net_level,
    convergence_experiment,
    digital_net,
    fibonacci_rule,
)
from .errors import ConfigError, HalfcosError
from .grids import _check_int, coefficient_decay_report
from .suite import identity_suite, norm_comparison, route_ratios


def _key(flag: str) -> str:
    """The config key, and the namespace attribute, of a flag."""
    return flag.lstrip("-").replace("-", "_")


def _convert(key: str, val, default, kw: dict):
    """A config-file value converted and checked as its flag converts and
    checks it; None stays allowed where the default is None."""
    if val is None and default is None:
        return None
    on_off = kw.get("action") == "store_const"
    kind = bool if on_off else kw.get("type", str)
    refusal = ConfigError(f"config value {key}={val!r} is not a valid {kind.__name__}")
    # JSON true/false only for on/off flags: int(True) and int(16.7) would pass
    if val is None or isinstance(val, bool) != on_off or (
            kind is int and isinstance(val, float) and not val.is_integer()):
        raise refusal
    try:
        out = kind(val)
    except (TypeError, ValueError, OverflowError):
        raise refusal
    if "choices" in kw and out not in kw["choices"]:
        raise ConfigError(f"config value {key}={val!r} is not one of {kw['choices']}")
    return out


def _read_config(cmd: str, path: str) -> dict:
    """The config file's values, converted as their flags convert them:
    they become the parser's defaults, so explicit flags override them."""
    options = {_key(flag): (default, kw) for flag, default, kw in _COMMANDS[cmd][3]}
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    values = {}
    for key, val in loaded.items():
        if key not in options:
            raise ConfigError(f"config key {key!r} unknown for {cmd!r}")
        values[key] = _convert(key, val, *options[key])
    return values


def _emit(text: str, out, gnuplot_script: str = None):
    if out in (None, "-"):
        if gnuplot_script is not None:
            raise ConfigError("--gnuplot needs --out FILE to reference")
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
        if gnuplot_script is not None:
            with open(out + ".gp", "w") as fh:
                fh.write(gnuplot_script)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out!r}: {exc}")


def _gnuplot(csv_path: str, xlabel: str, ylabel: str, logscale: bool) -> str:
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
    ]
    if logscale:
        lines.append("set logscale xy")
    lines.append(f"plot '{csv_path}' using 1:2 with linespoints")
    return "\n".join(lines) + "\n"


def _fit_lines(fit) -> list:
    """A rate table: the fit's rows, then its slope and intercept."""
    return fit.csv_rows().splitlines() + [
        f"# slope = {fit.slope:.6f}", f"# intercept = {fit.intercept:.6f}"
    ]


def _require_seed(cfg: dict):
    if cfg["seed"] is None:
        raise ConfigError("this path is randomized: --seed is mandatory")


def _member(cfg: dict):
    if not cfg["fn"]:
        raise ConfigError("--fn NAME is required; see `halfcos testfns list`")
    return get_member(cfg["fn"])


def _cmd_identities(cfg: dict) -> list:
    _require_seed(cfg)
    res = identity_suite(cfg["d"], cfg["seed"], n_funcs=cfg["funcs"])
    lines = ["identity,max_rel_residual"]
    for name in sorted(res):
        lines.append(f"{name},{res[name]:.6e}")
    return lines


def _cmd_coeffs(cfg: dict) -> list:
    member = _member(cfg)
    kmax = _check_int(cfg["kmax"], 1, "--kmax")
    if cfg["mode"] == "gibbs":
        lines = ["k,abs_sine_coef_k,abs_hpc_coef_k2"]
        for k, jump, smooth in gibbs_demo(member, kmax, grid_level=cfg["grid_level"]):
            lines.append(f"{k},{jump:.12e},{smooth:.12e}")
        return lines
    rows = coefficient_decay_report(member.sample(kmax, cfg["grid_level"]), kmax)
    lines = [",".join(f"k_{i+1}" for i in range(member.d)) + ",weighted_abs_coef"]
    for kbar, w in rows:
        lines.append(",".join(str(k) for k in kbar) + f",{w:.12e}")
    return lines


def _cmd_norms(cfg: dict) -> list:
    member = _member(cfg)
    params = BesovParams(cfg["r"], cfg["p"], cfg["q"])
    compare = tuple(t.strip() for t in cfg["compare"].split(",") if t.strip())
    reports = norm_comparison(member, params, compare=compare, J=cfg["J"],
                              m_order=cfg["m"], strict=cfg["strict"])
    lines = [NormReport.csv_header()]
    for kind in compare:
        lines.append(reports[kind].csv_row())
    for kind, ratio in route_ratios(reports).items():
        lines.append(f"# ratio {kind}/hpc = {ratio:.6g}")
    return lines


def _cmd_cubature(cfg: dict) -> list:
    member = _member(cfg)
    if cfg["shifts"] > 0:
        _require_seed(cfg)
    if cfg["rule"] == "fibonacci":
        if member.d != 2:
            raise ConfigError("the Fibonacci rule is two-dimensional")
        rule_for_n, check = fibonacci_rule, _check_fibonacci_index
    else:
        rule_for_n, check = (lambda i: digital_net(i, member.d, cfg["alpha"])), _check_net_level
    indices = range(cfg["nmin"], cfg["nmax"] + 1)
    for index in [*indices[:1], *indices[-1:]]:  # both ends, before any rule is built
        check(index)
    fit = convergence_experiment(
        rule_for_n,
        member,
        member.integral,
        indices,
        transform="tent" if cfg["tent"] else "plain",
        shifts=cfg["shifts"],
        seed=cfg["seed"] or 0,
        log_exponent=cfg["log_exponent"],
        skip_smallest=cfg["skip"],
    )
    return _fit_lines(fit)


def _cmd_approx(cfg: dict) -> list:
    member = _member(cfg)
    try:
        n_list = [int(t) for t in cfg["N_list"].split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --N-list: {exc}")
    fit = projection_error_rate(
        member,
        n_list,
        kmax=cfg["kmax"],
        log_exponent=cfg["log_exponent"],
        skip_smallest=cfg["skip"],
    )
    return _fit_lines(fit)


def _cmd_recover(cfg: dict) -> list:
    member = _member(cfg)
    _require_seed(cfg)
    row = ls_error_experiment(
        member,
        cfg["N"],
        oversample=cfg["oversample"],
        seed=cfg["seed"],
        grid_level=cfg["grid_level"],
    )
    return [
        "N,dim,samples,ls_error,projection_error,condition,normal_residual",
        (
            f"{row['N']},{row['dim']},{row['samples']},{row['ls_error']:.12e},"
            f"{row['projection_error']:.12e},{row['condition']:.6e},"
            f"{row['normal_residual']:.6e}"
        ),
    ]


def _cmd_testfns(cfg: dict) -> list:
    lines = ["name,d,integral,tag"]
    for name, tf in sorted(corpus().items()):
        lines.append(f"{name},{tf.d},{tf.integral:.12g},{tf.tag}")
    return lines


_INT, _FLOAT = {"type": int}, {"type": float}
_FLAG = {"action": "store_const", "const": True}

# One table per subcommand: its help line; its handler, which maps the
# resolved config to the CSV lines below the `# config:` line; the axis
# labels and log scale of its --gnuplot script, None if it takes no
# --gnuplot; and its options in flag order as (flag, default, argparse
# keywords). The flag names the config key (--grid-level is grid_level).
# The parser, the config-file checks and the `# config:` line all read the
# table; --gnuplot is a flag only, never a config key.
_COMMANDS = {
    "identities": (
        "residuals of the exact identities", _cmd_identities, None,
        [("--d", 1, _INT), ("--funcs", 50, _INT), ("--seed", None, _INT)],
    ),
    "coeffs": (
        "coefficient decay / jump comparison tables", _cmd_coeffs,
        ("k", "weighted coefficient", False),
        [
            ("--fn", None, {}),
            ("--mode", "decay", {"choices": ["decay", "gibbs"]}),
            ("--kmax", 16, _INT),
            ("--grid-level", None, _INT),
        ],
    ),
    "norms": (
        "smoothness norms along three routes", _cmd_norms, None,
        [
            ("--fn", None, {}),
            ("--r", 1.5, _FLOAT),
            ("--p", 2.0, _FLOAT),
            ("--q", 2.0, _FLOAT),
            ("--compare", "cw,diff,hpc", {}),
            ("--J", 6, _INT),
            ("--m", 3, {"type": int, "help": "difference order"}),
            ("--strict", False, _FLAG),
        ],
    ),
    "cubature": (
        "equal-weight rule convergence table", _cmd_cubature,
        ("n", "error", True),
        [
            ("--fn", None, {}),
            ("--rule", "fibonacci", {"choices": ["fibonacci", "net"]}),
            ("--alpha", 1, {"type": int, "choices": [1, 2]}),
            ("--tent", False, _FLAG),
            ("--nmin", 5, _INT),
            ("--nmax", 13, _INT),
            ("--shifts", 0, _INT),
            ("--seed", None, _INT),
            ("--log-exponent", 0.0, _FLOAT),
            ("--skip", 2, _INT),
        ],
    ),
    "approx": (
        "hyperbolic cross projection error table", _cmd_approx,
        ("dim", "projection error", True),
        [
            ("--fn", None, {}),
            ("--N-list", "2,3,4,6,8,11,16,23,32,45,64,91,128", {}),
            ("--p", 2.0, {"type": float, "choices": [2.0],
                          "help": "L2 only: the error is a Parseval sum"}),
            ("--kmax", 512, _INT),
            ("--log-exponent", 0.0, _FLOAT),
            ("--skip", 1, _INT),
        ],
    ),
    "recover": (
        "least-squares recovery vs projection", _cmd_recover, None,
        [
            ("--fn", None, {}),
            ("--N", 8, _INT),
            ("--oversample", 4.0, _FLOAT),
            ("--seed", None, _INT),
            ("--grid-level", 10, _INT),
            ("--weights", "uniform", {"choices": ["uniform"]}),
        ],
    ),
    "testfns": (
        "list the test function corpus", _cmd_testfns, None,
        [("action", "list", {"nargs": "?", "choices": ["list"], "metavar": "action"})],
    ),
}


def _build_parser(config: dict = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; config (key -> value, from
    _read_config) replaces the table's defaults of the option keys it
    names, so that explicit flags override it."""
    top = argparse.ArgumentParser(
        prog="halfcos",
        description="half-period cosine analysis experiments",
    )
    sub = top.add_subparsers(dest="cmd", required=True)
    for cmd, (text, _, plot, options) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=text)
        p.add_argument("--config", help="JSON file with defaults; flags override")
        p.add_argument("--out", help="output CSV path (default stdout)")
        for flag, default, kw in options:
            p.add_argument(flag, default=(config or {}).get(_key(flag), default), **kw)
        if plot:
            p.add_argument("--gnuplot", action="store_true")
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _, handler, plot, options = _COMMANDS[args.cmd]
    try:
        if args.config:
            args = _build_parser(_read_config(args.cmd, args.config)).parse_args(argv)
        cfg = {_key(flag): getattr(args, _key(flag)) for flag, _, _ in options}
        body = handler(cfg)
        head = f"# config: cmd={args.cmd} " + " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
        script = _gnuplot(args.out, *plot) if plot and args.gnuplot else None
        _emit("\n".join([head] + body) + "\n", args.out, script)
        return 0
    except ConfigError as exc:
        print(f"halfcos: config error: {exc}", file=sys.stderr)
        return 2
    except HalfcosError as exc:
        print(f"halfcos: numerical precondition violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
