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
import math
import sys

from .approx import ls_error_experiment, projection_error_rate
from .besov import BesovParams, NormReport
from .corpus import corpus, get_member, gibbs_demo
from .cubature import digital_net, fibonacci_rule, convergence_experiment
from .errors import (
    AliasingError,
    ConditionError,
    ConfigError,
    DivergentTailError,
    DomainError,
    ResolutionMismatchError,
    TruncationError,
)
from .grids import GridFunction, UNIT, coefficient_decay_report
from .suite import identity_suite, norm_comparison

_NUMERIC_ERRORS = (
    AliasingError,
    ConditionError,
    DivergentTailError,
    DomainError,
    ResolutionMismatchError,
    TruncationError,
)

_DEFAULTS = {
    "identities": {"d": 1, "funcs": 50, "seed": None},
    "coeffs": {"fn": None, "mode": "decay", "kmax": 16, "grid_level": None},
    "norms": {
        "fn": None,
        "r": 1.5,
        "p": 2.0,
        "q": 2.0,
        "compare": "cw,diff,hpc",
        "J": 6,
        "m": 3,
        "strict": False,
    },
    "cubature": {
        "fn": None,
        "rule": "fibonacci",
        "alpha": 1,
        "tent": False,
        "nmin": 5,
        "nmax": 13,
        "shifts": 0,
        "seed": None,
        "log_exponent": 0.0,
        "skip": 2,
    },
    "approx": {
        "fn": None,
        "N_list": "2,3,4,6,8,11,16,23,32,45,64,91,128",
        "p": 2.0,
        "kmax": 512,
        "log_exponent": 0.0,
        "skip": 1,
    },
    "recover": {
        "fn": None,
        "N": 8,
        "oversample": 4.0,
        "seed": None,
        "grid_level": 10,
        "weights": "uniform",
    },
    "testfns": {"action": "list"},
}


def _check_number(key: str, val, default):
    """A config-file value for a numeric key must convert as the command
    will convert it; the seed and the grid level have no numeric default."""
    kind = int if key in ("seed", "grid_level") else type(default)
    if kind in (int, float) and not (val is None and default is None):
        try:
            kind(val)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"config value {key}={val!r} is not a valid {kind.__name__}")


def _resolve(cmd: str, args: argparse.Namespace) -> dict:
    """defaults <- config file section <- explicit flags."""
    cfg = dict(_DEFAULTS[cmd])
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
            _check_number(key, val, cfg[key])
            cfg[key] = val
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _config_line(cmd: str, cfg: dict) -> str:
    parts = [f"{k}={cfg[k]}" for k in sorted(cfg)]
    return f"# config: cmd={cmd} " + " ".join(parts)


def _emit(text: str, out, gnuplot_script: str = None):
    if out in (None, "-"):
        if gnuplot_script is not None:
            raise ConfigError("--gnuplot needs --out FILE to reference")
        sys.stdout.write(text)
        return
    with open(out, "w") as fh:
        fh.write(text)
    if gnuplot_script is not None:
        with open(out + ".gp", "w") as fh:
            fh.write(gnuplot_script)


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


def _emit_fit(cmd: str, cfg: dict, fit, args, xlabel: str, ylabel: str) -> int:
    """Write a rate table: the fit's rows, its slope and intercept, and a
    log-log gnuplot script when --gnuplot is given."""
    trailer = f"# slope = {fit.slope:.6f}\n# intercept = {fit.intercept:.6f}\n"
    script = _gnuplot(args.out, xlabel, ylabel, logscale=True) if args.gnuplot else None
    _emit(_config_line(cmd, cfg) + "\n" + fit.csv_rows() + trailer, args.out, script)
    return 0


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
        return get_member(cfg["fn"])
    except KeyError as exc:
        raise ConfigError(exc.args[0])


def _cmd_identities(args) -> int:
    cfg = _resolve("identities", args)
    _require_seed(cfg)
    res = identity_suite(int(cfg["d"]), cfg["seed"], n_funcs=int(cfg["funcs"]))
    lines = [_config_line("identities", cfg), "identity,max_rel_residual"]
    for name in sorted(res):
        lines.append(f"{name},{res[name]:.6e}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_coeffs(args) -> int:
    cfg = _resolve("coeffs", args)
    member = _member(cfg)
    kmax = int(cfg["kmax"])
    if kmax < 1:
        raise ConfigError(f"--kmax must be >= 1, got {kmax}")
    lines = [_config_line("coeffs", cfg)]
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
        level = max(6, math.ceil(math.log2(4 * kmax))) if level is None else int(level)
        f = GridFunction.from_callable(member, member.d, level, UNIT)
        rows = coefficient_decay_report(f, kmax)
        head = ",".join(f"k_{i+1}" for i in range(member.d))
        lines.append(head + ",weighted_abs_coef")
        for kbar, w in rows:
            lines.append(",".join(str(k) for k in kbar) + f",{w:.12e}")
    else:
        raise ConfigError(f"unknown coeffs mode {cfg['mode']!r}")
    script = None
    if args.gnuplot:
        script = _gnuplot(args.out, "k", "weighted coefficient", logscale=False)
    _emit("\n".join(lines) + "\n", args.out, script)
    return 0


def _cmd_norms(args) -> int:
    cfg = _resolve("norms", args)
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
    lines = [_config_line("norms", cfg), NormReport.csv_header()]
    for kind in compare:
        lines.append(reports[kind].csv_row())
    if "hpc" in reports and reports["hpc"].value > 0.0:
        for kind in ("cw", "diff"):
            if kind in reports:
                ratio = reports[kind].value / reports["hpc"].value
                lines.append(f"# ratio {kind}/hpc = {ratio:.6g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cubature(args) -> int:
    cfg = _resolve("cubature", args)
    member = _member(cfg)
    shifts = int(cfg["shifts"])
    if shifts > 0:
        _require_seed(cfg)
    rule_kind = cfg["rule"]
    if rule_kind == "fibonacci":
        if member.d != 2:
            raise ConfigError("the Fibonacci rule is two-dimensional")
        rule_for_n = fibonacci_rule
    elif rule_kind == "net":
        alpha = int(cfg["alpha"])
        rule_for_n = lambda i: digital_net(i, member.d, alpha)
    else:
        raise ConfigError(f"unknown rule {rule_kind!r}")
    fit = convergence_experiment(
        rule_for_n,
        member,
        member.integral,
        range(int(cfg["nmin"]), int(cfg["nmax"]) + 1),
        transform="tent" if cfg["tent"] else "plain",
        shifts=shifts,
        seed=int(cfg["seed"] or 0),
        log_exponent=float(cfg["log_exponent"]),
        skip_smallest=int(cfg["skip"]),
    )
    return _emit_fit("cubature", cfg, fit, args, "n", "error")


def _cmd_approx(args) -> int:
    cfg = _resolve("approx", args)
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
    return _emit_fit("approx", cfg, fit, args, "dim", "projection error")


def _cmd_recover(args) -> int:
    cfg = _resolve("recover", args)
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
    lines = [
        _config_line("recover", cfg),
        "N,dim,samples,ls_error,projection_error,condition,normal_residual",
        (
            f"{row['N']},{row['dim']},{row['samples']},{row['ls_error']:.12e},"
            f"{row['projection_error']:.12e},{row['condition']:.6e},"
            f"{row['normal_residual']:.6e}"
        ),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_testfns(args) -> int:
    cfg = _resolve("testfns", args)
    if cfg["action"] != "list":
        raise ConfigError(f"unknown testfns action {cfg['action']!r}")
    lines = [_config_line("testfns", cfg), "name,d,integral,tag"]
    for name, tf in sorted(corpus().items()):
        lines.append(f"{name},{tf.d},{tf.integral:.12g},{tf.tag}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="halfcos",
        description="half-period cosine analysis experiments",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with defaults; flags override")
        p.add_argument("--out", help="output CSV path (default stdout)")

    p = sub.add_parser("identities", help="residuals of the exact identities")
    common(p)
    p.add_argument("--d", type=int)
    p.add_argument("--funcs", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_identities, gnuplot=False)

    p = sub.add_parser("coeffs", help="coefficient decay / jump comparison tables")
    common(p)
    p.add_argument("--fn")
    p.add_argument("--mode", choices=["decay", "gibbs"])
    p.add_argument("--kmax", type=int)
    p.add_argument("--grid-level", dest="grid_level", type=int)
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("norms", help="smoothness norms along three routes")
    common(p)
    p.add_argument("--fn")
    p.add_argument("--r", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--compare")
    p.add_argument("--J", type=int)
    p.add_argument("--m", type=int, help="difference order")
    p.add_argument("--strict", action="store_const", const=True)
    p.set_defaults(func=_cmd_norms, gnuplot=False)

    p = sub.add_parser("cubature", help="equal-weight rule convergence table")
    common(p)
    p.add_argument("--fn")
    p.add_argument("--rule", choices=["fibonacci", "net"])
    p.add_argument("--alpha", type=int, choices=[1, 2])
    p.add_argument("--tent", action="store_const", const=True)
    p.add_argument("--nmin", type=int)
    p.add_argument("--nmax", type=int)
    p.add_argument("--shifts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--log-exponent", dest="log_exponent", type=float)
    p.add_argument("--skip", type=int)
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(func=_cmd_cubature)

    p = sub.add_parser("approx", help="hyperbolic cross projection error table")
    common(p)
    p.add_argument("--fn")
    p.add_argument("--N-list", dest="N_list")
    p.add_argument("--p", type=float)
    p.add_argument("--kmax", type=int)
    p.add_argument("--log-exponent", dest="log_exponent", type=float)
    p.add_argument("--skip", type=int)
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("recover", help="least-squares recovery vs projection")
    common(p)
    p.add_argument("--fn")
    p.add_argument("--N", type=int)
    p.add_argument("--oversample", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--grid-level", dest="grid_level", type=int)
    p.add_argument("--weights", choices=["uniform"])
    p.set_defaults(func=_cmd_recover, gnuplot=False)

    p = sub.add_parser("testfns", help="list the test function corpus")
    common(p)
    p.add_argument("action", nargs="?")
    p.set_defaults(func=_cmd_testfns, gnuplot=False)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"halfcos: config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"halfcos: numerical precondition violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
