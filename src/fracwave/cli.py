"""Config-driven experiment runner.

Subcommands: ml, frac, solve, regularity, hidden, verify (whose scope
``all`` is optional).  A JSON config file holding an object can preload any
flag's value; config values are parsed and checked exactly like flags, and
explicit flags win.  All outputs embed the resolved parameters, and reruns
with the same config and seed are bit-identical.  Exit codes: 0 success,
1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .fracops import (
    SampledPath,
    TimeGrid,
    norm_equivalence_study,
    semigroup_check,
    young_bound_check,
)
from .mittag_leffler import DECAY_SAMPLES, MLParams, ml, verify_decay_bound
from .params import FracOrder
from .presets import PRESET_NAMES, _random_trig_paths, build_preset, random_decay
from .solver import _WHICH, SolutionQuery, write_grid_snapshots_csv, write_manifest
from .spectral import _BUILDERS, _write_json, build_interval

# ``boundary``, ``regularity`` and ``verify`` are imported by the subcommands
# that use them, so ``ml``, ``frac`` and ``solve`` never load them


def _parse_flag(key: str, text: str, parse):
    """``parse(text)``; a value it cannot read is a usage error naming the
    flag and the form its help text gives."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{_flag(key)}: expected {_HELP[key]}, got {text!r}") from None


def _domain_shape(descriptor: str):
    """Builder and lengths of ``kind[:L1,...]``; each length is 1.0 when none
    are given."""
    kind, _, dims = descriptor.partition(":")
    build, count = _BUILDERS.get(kind, (None, 0))
    lengths = [float(v) for v in dims.split(",")] if dims else [1.0] * count
    if build is None or len(lengths) != count:
        raise ValueError(descriptor)
    return build, lengths


def _build_domain(descriptor: str, modes: int):
    build, lengths = _parse_flag("domain", descriptor, _domain_shape)
    return build(*lengths, modes)


def _z_range(text: str) -> np.ndarray:
    lo, hi, n = text.split(":")
    return np.linspace(float(lo), float(hi), int(n))


_DEFAULTS: dict[str, dict] = {
    "ml": {"alpha": 1.5, "beta": 1.0, "z": None, "z_range": "-10:0:11",
           "decay_check": False, "out": None},
    "frac": {"check": "young", "beta": 0.5, "gamma": 0.5, "t_end": 1.0,
             "steps": 512, "seed": 7, "draws": 50, "out": None},
    "solve": {"alpha": 1.5, "domain": "interval:1.0", "modes": 64,
              "preset": "single-mode", "mode_k": 1, "decay_p": 2.0, "seed": 7,
              "t_end": 1.0, "steps": 128, "points": 65, "which": "value",
              "theta": 0.0, "out_prefix": "fracwave_run"},
    "regularity": {"task": "initial", "alpha": 1.5, "theta": 0.4,
                   "theta_grad": 0.2, "theta_cap": 0.3, "epsilon": 0.3, "length": 1.0,
                   "modes": 256, "preset": "single-mode", "mode_k": 1,
                   "decay_p": 2.0, "delta": 0.05, "seed": 7, "t_end": 1.0,
                   "out": None},
    "hidden": {"alpha": 1.5, "draws": 100, "seed": 7, "modes": 64,
               "length": 1.0, "t_end": 1.0, "steps": 192, "decay_p": 2.0,
               "trace_out": None, "out": None},
    "verify": {"scope": "all", "seed": 7, "out": None},
}


def _cmd_ml(args) -> int:
    params = MLParams(args.alpha, args.beta)
    if args.z is not None:
        z = _parse_flag("z", args.z, lambda text: np.array([float(v) for v in text.split(",")]))
    else:
        z = _parse_flag("z_range", args.z_range, _z_range)
    values = ml(params, z)
    rows = {"alpha": args.alpha, "beta": args.beta,
            "z": [float(v) for v in z], "E": [float(v) for v in values]}
    if args.decay_check:
        fit = verify_decay_bound(params, DECAY_SAMPLES)
        rows["decay_check"] = {
            "mu": fit.mu, "c_empirical": fit.c_empirical,
            "sample_count": fit.sample_count, "max_violation": fit.max_violation,
        }
        print(f"decay envelope: c_empirical={fit.c_empirical:.6g} "
              f"max_violation={fit.max_violation:.3g}")
        if fit.violated:
            _maybe_write(rows, args.out)
            return 1
    for zi, vi in zip(z, values):
        print(f"E_{{{args.alpha},{args.beta}}}({float(zi)!r}) = {float(vi)!r}")
    _maybe_write(rows, args.out)
    return 0


def _maybe_write(obj: dict, out: str | None) -> None:
    if out:
        _write_json(out, obj)


def _cmd_frac(args) -> int:
    grid = TimeGrid(args.t_end, args.steps)
    out: dict = {"t_end": args.t_end, "steps": args.steps, "beta": args.beta, "seed": args.seed}
    status = 0
    if args.check == "young":
        f = SampledPath(grid, _random_trig_paths(grid, 1, args.seed)[0])
        lhs, rhs = young_bound_check(f, args.beta)
        out["young"] = {"lhs": lhs, "rhs": rhs}
        print(f"contraction: {lhs:.6g} <= {rhs:.6g}")
        status = 0 if lhs <= rhs * 1.001 else 1
    elif args.check == "semigroup":
        f = SampledPath(grid, _random_trig_paths(grid, 1, args.seed)[0])
        disc = semigroup_check(f, args.beta, args.gamma)
        out["semigroup"] = {"gamma": args.gamma, "discrepancy": disc}
        print(f"composition discrepancy: {disc:.6g}")
    elif args.check == "equivalence":
        paths = [SampledPath(grid, v) for v in _random_trig_paths(grid, args.draws, args.seed)]
        study = norm_equivalence_study(paths, args.beta)
        out["equivalence"] = {
            "draws": args.draws,
            "ratio_min": study.ratio_min,
            "ratio_max": study.ratio_max,
            "skipped": study.skipped,
        }
        print(f"ratio bracket: [{study.ratio_min:.6g}, {study.ratio_max:.6g}]")
        status = 0 if study.ratio_max / study.ratio_min < 100.0 else 1
    _maybe_write(out, args.out)
    return status


def _cmd_solve(args) -> int:
    domain = _build_domain(args.domain, args.modes)
    data = build_preset(args.preset, domain, mode=args.mode_k, p=args.decay_p, seed=args.seed)
    grid = TimeGrid(args.t_end, args.steps)
    query = SolutionQuery(FracOrder(args.alpha), domain, data, grid, args.which)
    prefix = args.out_prefix
    manifest = f"{prefix}_manifest.json"
    # the manifest first: it checks theta, and a bad one writes no file; the
    # snapshots are written as they are solved, and a solve that fails
    # removes both files
    write_manifest(query, manifest, theta=args.theta,
                   extra={"preset": args.preset, "seed": args.seed})
    try:
        write_grid_snapshots_csv(query, args.points, f"{prefix}_snapshots.csv")
    except BaseException:
        os.remove(manifest)
        raise
    print(f"wrote {prefix}_snapshots.csv and {manifest}")
    return 0


def _cmd_regularity(args) -> int:
    from .regularity import (initial_convergence, l2_time_norms, smooth_data_velocity,
                             uniform_bound_report, velocity_blowup_rate)

    domain = build_interval(args.length, args.modes)
    data = build_preset(args.preset, domain, mode=args.mode_k, p=args.decay_p,
                        seed=args.seed, delta=args.delta)
    t_seq = 2.0 ** (-np.arange(4, 15, dtype=float))
    out: dict = {"task": args.task, "alpha": args.alpha, "preset": args.preset, "seed": args.seed}
    if args.task == "initial":
        table = initial_convergence(domain, data, args.alpha, args.theta, t_seq)
        out["table"] = {k: np.asarray(v).tolist() for k, v in table.items() if k in ("t", "h1_error", "velocity_error")}
        out["theta"] = table["theta"]
        print(f"final energy-norm error: {table['h1_error'][-1]:.6g}")
    elif args.task == "uniform":
        reports = uniform_bound_report(domain, [data], args.alpha, args.theta, args.t_end)
        out["reports"] = [r.as_dict() for r in reports]
        print(f"sup-norm ratio: {reports[0].value:.6g}")
    elif args.task == "l2norms":
        grad, cap = l2_time_norms(domain, data, args.alpha, args.theta_grad, args.theta_cap, args.t_end)
        out["reports"] = [grad.as_dict(), cap.as_dict()]
        print(f"gradient route: {grad.value:.6g}  derivative route: {cap.value:.6g}")
    elif args.task == "smooth":
        table = smooth_data_velocity(domain, data, args.alpha, args.epsilon, t_seq)
        out["table"] = {"t": table["t"].tolist(), "velocity_error": table["velocity_error"].tolist()}
        out["envelope_exponent"] = table["envelope_exponent"]
        print(f"final velocity error: {table['velocity_error'][-1]:.6g}")
    elif args.task == "blowup":
        fit = velocity_blowup_rate(domain, data, args.alpha)
        out["fit"] = {"exponent": fit.exponent, "expected": fit.expected, "multi_mode": fit.multi_mode}
        print(f"fitted exponent: {fit.exponent:.4f} (expected {fit.expected:.4f})")
    _maybe_write(out, args.out)
    return 0


def _cmd_hidden(args) -> int:
    from .boundary import hidden_inequality_ratio, normal_trace, trace_to_csv

    domain = build_interval(args.length, args.modes)
    grid = TimeGrid(args.t_end, args.steps)
    draws = [random_decay(args.modes, args.decay_p, args.seed + i) for i in range(args.draws)]
    study = hidden_inequality_ratio(domain, draws, args.alpha, grid)
    out = {
        "alpha": args.alpha, "draws": args.draws, "seed": args.seed,
        "modes": args.modes, "steps": args.steps, "t_end": args.t_end,
        "decay_p": args.decay_p, "max_ratio": study.max_ratio,
        "skipped": study.skipped, "table": study.table,
    }
    print(f"max trace-energy ratio over {args.draws} draws: {study.max_ratio:.6g}")
    if args.trace_out:
        data = build_preset("single-mode", domain)
        trace = normal_trace(domain, data, args.alpha, grid)
        trace_to_csv(trace, args.trace_out)
        print(f"wrote {args.trace_out}")
    _maybe_write(out, args.out)
    return 0


def run_all(seed: int) -> list:
    """``verify.run_all(seed)``; the ``verify`` module is loaded on first use."""
    from . import verify

    return verify.run_all(seed)


def _cmd_verify(args) -> int:
    from .verify import report_lines

    results = run_all(args.seed)
    for line in report_lines(results):
        print(line)
    report = {"seed": args.seed, "criteria": [r.as_dict() for r in results]}
    _maybe_write(report, args.out)
    return 0 if all(r.passed for r in results) else 1


# The per-flag extras; a flag's type follows from its default.
_CHOICES = {
    "check": ("young", "semigroup", "equivalence"),
    "preset": PRESET_NAMES,
    "which": _WHICH,
    "task": ("initial", "uniform", "l2norms", "smooth", "blowup"),
    "scope": ("all",),
}
_HELP = {
    "config": "JSON file preloading flag values (flags win)",
    "z": "comma-separated arguments (use --z=-1,-2)",
    "z_range": "lo:hi:count",
    "domain": "interval:L or rectangle:L1,L2",
}
_POSITIONAL = ("scope",)

_COMMANDS = {
    "ml": (_cmd_ml, "evaluate the Mittag-Leffler function"),
    "frac": (_cmd_frac, "fractional-integral checks"),
    "solve": (_cmd_solve, "series solution snapshots"),
    "regularity": (_cmd_regularity, "regularity estimate checks"),
    "hidden": (_cmd_hidden, "boundary trace-energy study"),
    "verify": (_cmd_verify, "run the acceptance criteria"),
}


def _flag(key: str) -> str:
    return key if key in _POSITIONAL else "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per ``_DEFAULTS`` entry and one argument per key."""
    p = argparse.ArgumentParser(prog="fracwave", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", default=None, help=_HELP["config"])
    sub = p.add_subparsers(dest="command", required=True)
    for command, table in _DEFAULTS.items():
        sp = sub.add_parser(command, help=_COMMANDS[command][1])
        for key, default in table.items():
            # absent flags fall through to the config, then to the table
            kw = {"default": argparse.SUPPRESS, "help": _HELP.get(key)}
            if isinstance(default, bool):
                kw["action"] = "store_true"
            else:
                kw["type"] = str if default is None else type(default)
            if key in _CHOICES:
                kw["choices"] = _CHOICES[key]
            if key in _POSITIONAL:
                kw.update(nargs="?", default=default)
            sp.add_argument(_flag(key), **kw)
    return p


def _read_config(filename: str) -> dict:
    try:
        with open(filename) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"cannot read config: {filename} must hold a JSON object")
    return config


def _config_tokens(command: str, config: dict) -> list[str]:
    """The config values ``command`` knows, as the tokens of their flags:
    ``true`` is the bare flag, ``null`` and ``false`` are left out."""
    tokens = []
    for key, value in config.items():
        if key not in _DEFAULTS[command] or value is None or value is False:
            continue
        if value is True:
            tokens.append(_flag(key))
        elif key in _POSITIONAL:
            tokens.append(str(value))
        else:
            tokens.append(f"{_flag(key)}={value}")
    return tokens


def _resolve(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse ``argv``; explicit flags > config file > table defaults."""
    args = parser.parse_args(argv)
    settings = dict(_DEFAULTS[args.command])
    if args.config:
        tokens = _config_tokens(args.command, _read_config(args.config))
        settings.update(vars(parser.parse_args([args.command] + tokens)))
    settings.update(vars(args))
    return argparse.Namespace(**settings)


def main(argv=None) -> int:
    try:
        args = _resolve(build_parser(), argv)
        return _COMMANDS[args.command][0](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
