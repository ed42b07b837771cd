"""Command line front end.

Thin by contract: this module parses flags, resolves the run configuration
(defaults, then an optional JSON config file, then explicit flags), calls
exactly one orchestration routine per subcommand, and formats CSV. Every
emitted number is produced by a library call; nothing is computed here.

Every output starts with a `# config:` line carrying the fully resolved
configuration, so a run can be reproduced from its own artifact. Runs with
the same configuration and seed produce byte-identical bodies.

Exit codes: 0 success, 2 configuration error (unknown flag/function,
missing mandatory seed, bad config file), 3 numerical precondition
violated (aliasing, ill-conditioned design, divergent tail, truncation).
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
from .errors import (
    AliasingError,
    ConditionError,
    ConfigError,
    DivergentTailError,
    DomainError,
    ResolutionMismatchError,
    TruncationError,
)
from .grids import GridFunction, UNIT, _alias_free_level, _check_grid_size, coefficient_decay_report
from .suite import identity_suite, norm_comparison

_NUMERIC_ERRORS = (
    AliasingError,
    ConditionError,
    DivergentTailError,
    DomainError,
    ResolutionMismatchError,
    TruncationError,
)


def _check_number(key: str, val, kind, default):
    """A config-file value for a key of numeric type must convert as its
    flag converts it; None stays allowed where the default is None."""
    if kind in (int, float) and not (val is None and default is None):
        try:
            kind(val)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"config value {key}={val!r} is not a valid {kind.__name__}")


def _resolve(cmd: str, args: argparse.Namespace) -> dict:
    """defaults <- config file section <- explicit flags."""
    options = {flag.lstrip("-").replace("-", "_"): (default, kw)
               for flag, default, kw in _COMMANDS[cmd][3]}
    cfg = {key: default for key, (default, _) in options.items()}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, val in loaded.items():
            if key not in cfg:
                raise ConfigError(f"config key {key!r} unknown for {cmd!r}")
            default, kw = options[key]
            _check_number(key, val, kw.get("type"), default)
            cfg[key] = val
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


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
    if cfg.get("seed") is None:
        raise ConfigError("this path is randomized: --seed is mandatory")
    cfg["seed"] = int(cfg["seed"])
    if cfg["seed"] < 0:
        raise ConfigError("seed must be >= 0")


def _member(cfg: dict):
    if not cfg.get("fn"):
        raise ConfigError("--fn NAME is required; see `halfcos testfns list`")
    try:
        return get_member(str(cfg["fn"]))
    except KeyError as exc:
        raise ConfigError(exc.args[0])


def _cmd_identities(cfg: dict) -> list:
    _require_seed(cfg)
    res = identity_suite(int(cfg["d"]), cfg["seed"], n_funcs=int(cfg["funcs"]))
    lines = ["identity,max_rel_residual"]
    for name in sorted(res):
        lines.append(f"{name},{res[name]:.6e}")
    return lines


def _cmd_coeffs(cfg: dict) -> list:
    member = _member(cfg)
    kmax = int(cfg["kmax"])
    if kmax < 1:
        raise ConfigError(f"--kmax must be >= 1, got {kmax}")
    lines = []
    if cfg["mode"] == "gibbs":
        if member.d != 1:
            raise ConfigError("gibbs mode needs a univariate function")
        level = 12 if cfg["grid_level"] is None else int(cfg["grid_level"])
        rows = gibbs_demo(member, kmax, grid_level=level)
        lines.append("k,abs_sine_coef_k,abs_hpc_coef_k2")
        for k, jump, smooth in rows:
            lines.append(f"{k},{jump:.12e},{smooth:.12e}")
    elif cfg["mode"] == "decay":
        level = cfg["grid_level"]
        source = f"--kmax {kmax}" if level is None else f"--grid-level {level}"
        level = _alias_free_level(kmax, 6) if level is None else int(level)
        _check_grid_size(level, member.d, UNIT, source)
        f = GridFunction.from_callable(member, member.d, level, UNIT)
        rows = coefficient_decay_report(f, kmax)
        head = ",".join(f"k_{i+1}" for i in range(member.d))
        lines.append(head + ",weighted_abs_coef")
        for kbar, w in rows:
            lines.append(",".join(str(k) for k in kbar) + f",{w:.12e}")
    else:
        raise ConfigError(f"unknown coeffs mode {cfg['mode']!r}")
    return lines


def _cmd_norms(cfg: dict) -> list:
    member = _member(cfg)
    params = BesovParams(float(cfg["r"]), float(cfg["p"]), float(cfg["q"]))
    compare = tuple(t.strip() for t in str(cfg["compare"]).split(",") if t.strip())
    for kind in compare:
        if kind not in ("cw", "diff", "hpc"):
            raise ConfigError(f"unknown norm kind {kind!r} in --compare")
    reports = norm_comparison(
        member,
        params,
        compare=compare,
        J=int(cfg["J"]),
        m_order=int(cfg["m"]),
        strict=bool(cfg["strict"]),
    )
    lines = [NormReport.csv_header()]
    for kind in compare:
        lines.append(reports[kind].csv_row())
    if "hpc" in reports and reports["hpc"].value > 0.0:
        for kind in ("cw", "diff"):
            if kind in reports:
                ratio = reports[kind].value / reports["hpc"].value
                lines.append(f"# ratio {kind}/hpc = {ratio:.6g}")
    return lines


def _cmd_cubature(cfg: dict) -> list:
    member = _member(cfg)
    shifts = int(cfg["shifts"])
    if shifts < 0:
        raise ConfigError(f"--shifts must be >= 0 (0: no shift), got {shifts}")
    if shifts > 0:
        _require_seed(cfg)
    rule_kind = cfg["rule"]
    if rule_kind == "fibonacci":
        if member.d != 2:
            raise ConfigError("the Fibonacci rule is two-dimensional")
        rule_for_n, check = fibonacci_rule, _check_fibonacci_index
    elif rule_kind == "net":
        alpha = int(cfg["alpha"])
        rule_for_n, check = (lambda i: digital_net(i, member.d, alpha)), _check_net_level
    else:
        raise ConfigError(f"unknown rule {rule_kind!r}")
    indices = range(int(cfg["nmin"]), int(cfg["nmax"]) + 1)
    for index in [*indices[:1], *indices[-1:]]:  # both ends, before any rule is built
        check(index)
    fit = convergence_experiment(
        rule_for_n,
        member,
        member.integral,
        indices,
        transform="tent" if cfg["tent"] else "plain",
        shifts=shifts,
        seed=int(cfg["seed"] or 0),
        log_exponent=float(cfg["log_exponent"]),
        skip_smallest=int(cfg["skip"]),
    )
    return _fit_lines(fit)


def _cmd_approx(cfg: dict) -> list:
    member = _member(cfg)
    try:
        n_list = [int(t) for t in str(cfg["N_list"]).split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --N-list: {exc}")
    fit = projection_error_rate(
        member,
        n_list,
        p=float(cfg["p"]),
        kmax=int(cfg["kmax"]),
        log_exponent=float(cfg["log_exponent"]),
        skip_smallest=int(cfg["skip"]),
    )
    return _fit_lines(fit)


def _cmd_recover(cfg: dict) -> list:
    member = _member(cfg)
    _require_seed(cfg)
    row = ls_error_experiment(
        member,
        int(cfg["N"]),
        oversample=float(cfg["oversample"]),
        seed=cfg["seed"],
        grid_level=int(cfg["grid_level"]),
        weights=str(cfg["weights"]),
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
    if cfg["action"] != "list":
        raise ConfigError(f"unknown testfns action {cfg['action']!r}")
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
            ("--p", 2.0, _FLOAT),
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
        [("action", "list", {"nargs": "?"})],
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="halfcos",
        description="half-period cosine analysis experiments",
    )
    sub = top.add_subparsers(dest="cmd", required=True)
    for cmd, (text, _, plot, options) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=text)
        p.add_argument("--config", help="JSON file with defaults; flags override")
        p.add_argument("--out", help="output CSV path (default stdout)")
        for flag, _, kw in options:
            p.add_argument(flag, **kw)
        if plot:
            p.add_argument("--gnuplot", action="store_true")
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _, handler, plot, _ = _COMMANDS[args.cmd]
    try:
        cfg = _resolve(args.cmd, args)
        body = handler(cfg)  # first: a handler may normalize cfg, as the seed check does
        head = f"# config: cmd={args.cmd} " + " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
        script = _gnuplot(args.out, *plot) if plot and args.gnuplot else None
        _emit("\n".join([head] + body) + "\n", args.out, script)
        return 0
    except ConfigError as exc:
        print(f"halfcos: config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"halfcos: numerical precondition violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
