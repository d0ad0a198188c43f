"""Command-line surface: run scenarios from a config file, compute quantities.

Two subcommands are exposed:

    oraclebench experiment --config PATH --out DIR [--set k=v]... [--workers N]
    oraclebench compute QUANTITY [args...]

``experiment`` validates a JSON configuration against the scenario schema,
runs it, and writes rows.csv, summary.csv and manifest.json into the output
directory. Re-running the same configuration and seed reproduces the CSV
payloads byte for byte at any worker count. The environment variable
ORACLEBENCH_SEED overrides the file's masterSeed; ``--set`` overrides
(dotted keys, JSON-parsed values) take precedence over both.

``compute`` prints a single value with 12 significant digits. Exit codes:
0 success; 2 a bad input, reported as ``configuration error:`` or ``compute
error:`` naming the flag, variable or field at fault (or argparse's usage
message); 3 a runtime fault, as ``runtime error:``. ``main`` alone maps an
exception to a code: InvalidInputError exits 2, any other exception 3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .complexity import fixed_point_lambda
from .concentration import psi_alpha_norm
from .errors import BracketError, InvalidInputError
from .harness import config_from_mapping, run_scenario, write_rows_csv, write_summary_csv
from .solvers import erm_residual, l1_penalty_level, rerm_residual

__all__ = ["main", "entry", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def real(text):
    """The argparse type of every real flag; NaN and infinities are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite real, got {text!r}")
    return value


def _reals(parser, *flags, **kwargs):
    for flag in flags:
        parser.add_argument(flag, type=real, **kwargs)


def build_parser():
    parser = argparse.ArgumentParser(prog="oraclebench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a scenario from a configuration file")
    exp.add_argument("--config", required=True, help="path to the JSON configuration")
    exp.add_argument("--out", required=True, help="output directory for CSV artifacts")
    exp.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a configuration field (dotted keys, JSON values)",
    )
    exp.add_argument("--workers", type=int, default=os.cpu_count() or 1, help="parallel workers")

    comp = sub.add_parser("compute", help="evaluate one quantity and print it")
    comp_sub = comp.add_subparsers(dest="quantity", required=True)

    psi = comp_sub.add_parser("psi-norm", help="empirical psi_alpha norm of a sample file")
    psi.add_argument("--file", required=True, help="file of samples, one number per line")
    _reals(psi, "--alpha", default=1.0)
    _reals(psi, "--tol", default=1e-9, help="width of the final bisection bracket: absolute where the largest "
                                             "|sample| is at least 1, relative to it below (default 1e-9)")

    pen = comp_sub.add_parser("penalty", help="l1^q penalty level")
    _reals(pen, "--n", "--d", "--x", required=True)
    _reals(pen, "--q", default=2.0)
    _reals(pen, "--Kd", required=True)
    _reals(pen, "--c0", default=1.0)

    rho_a = comp_sub.add_parser("rho-a", help="ERM residual budget")
    _reals(rho_a, "--lambda-star", "--bn", "--Bn", "--epsilon", "--x", required=True)
    rho_a.add_argument("--n", type=int, required=True)
    _reals(rho_a, "--c0", default=1.0)

    rho_b = comp_sub.add_parser("rho-b", help="radius-indexed RERM residual")
    _reals(rho_b, "--n", "--d", "--q", "--Kd", "--epsilon", "--r", "--x", required=True)
    _reals(rho_b, "--c0", default=1.0)

    fixed = comp_sub.add_parser("fixed-point", help="localization fixed point from a table")
    fixed.add_argument("--table", required=True, help="two-column file of (level, expected sup)")
    _reals(fixed, "--epsilon", required=True)
    _reals(fixed, "--tol", default=1e-9)

    return parser


def _apply_override(mapping, key, raw_value):
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = mapping
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def _cmd_experiment(args):
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            mapping = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: a file that is not UTF-8 JSON
        raise InvalidInputError(f"--config: {exc}") from exc
    if not isinstance(mapping, dict):
        raise InvalidInputError("--config must hold a JSON object")
    env_seed = os.environ.get("ORACLEBENCH_SEED")
    if env_seed is not None:
        try:
            mapping["masterSeed"] = int(env_seed)
        except ValueError:
            raise InvalidInputError("ORACLEBENCH_SEED must be an integer") from None
        if not 0 <= mapping["masterSeed"] < 2**64:
            raise InvalidInputError("ORACLEBENCH_SEED must be an integer in [0, 2^64)")
    for override in args.overrides:
        if "=" not in override:
            raise InvalidInputError(f"--set expects KEY=VALUE, got {override!r}")
        _apply_override(mapping, *override.split("=", 1))
    config = config_from_mapping(mapping)
    if args.workers < 1:
        raise InvalidInputError("--workers must be >= 1")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(f"--out must name a directory: {exc}") from exc

    started = datetime.now(timezone.utc).isoformat()
    result = run_scenario(config, workers=args.workers)
    write_rows_csv(result, os.path.join(args.out, "rows.csv"))
    write_summary_csv(result, os.path.join(args.out, "summary.csv"))
    manifest = {
        "configPath": os.path.abspath(args.config),
        "outputDir": os.path.abspath(args.out),
        "toolVersion": __version__,
        "masterSeed": config.master_seed,
        "startedAt": started,
        "finishedAt": datetime.now(timezone.utc).isoformat(),
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return EXIT_OK


def _load(path, flag):
    """The numbers in a text file as rows; an unreadable file, or one without any number, is an error naming ``flag``."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"{flag}: {exc}") from exc
    if data.size == 0:
        raise InvalidInputError(f"{flag} holds no data")
    return data


# the flag of each library parameter that a compute error may name
_FLAGS = {"n": "--n", "d": "--d", "x": "--x", "q": "--q", "kd": "--Kd", "c0": "--c0", "lambda_star": "--lambda-star",
          "bn": "--bn", "big_bn": "--Bn", "epsilon": "--epsilon", "r": "--r", "alpha": "--alpha", "tol": "--tol"}


def _flagged(message):
    """A library message naming each parameter by its flag: ``<parameters> must ...``, as ``n and d must be >= 2``,
    or ``<builder> overflows a float; <remedy>``, whose remedy names parameters such as ``big_bn`` and ``Kd``."""
    subject, must, rest = message.partition(" must ")
    names = subject.split(" and ")
    if must and set(names) <= set(_FLAGS):
        return " and ".join(_FLAGS[name] for name in names) + must + rest
    builder, overflows, remedy = message.partition(" overflows a float; ")
    if overflows:
        return builder + overflows + re.sub(r"\w+", lambda word: _FLAGS.get(word[0].lower(), word[0]), remedy)
    return message


def _compute_value(args):
    if args.quantity == "psi-norm":
        samples = _load(args.file, "--file")
        if samples.shape[1] != 1:
            raise InvalidInputError("--file must hold one number per line")
        if not np.all(np.isfinite(samples)):
            raise InvalidInputError("--file must hold finite numbers")
        return psi_alpha_norm(samples[:, 0], args.alpha, args.tol)
    if args.quantity == "penalty":
        return l1_penalty_level(args.n, args.d, args.x, args.q, args.Kd, args.c0)
    if args.quantity == "rho-a":
        return erm_residual(args.lambda_star, args.bn, args.Bn, args.epsilon, args.x, args.n, args.c0)
    if args.quantity == "rho-b":
        return rerm_residual(args.n, args.d, args.q, args.Kd, args.epsilon, args.r, args.x, args.c0)
    table = _load(args.table, "--table")  # fixed-point, the last quantity
    if table.shape[1] != 2:
        raise InvalidInputError("--table must have two columns")
    if not (np.all(np.isfinite(table)) and np.all(table >= 0)):
        raise InvalidInputError("--table must hold finite, nonnegative levels and suprema")
    grid, values = table[:, 0], table[:, 1]
    order = np.argsort(grid)
    grid, values = grid[order], values[order]
    beyond = f"--table ends at level {grid[-1]:g}, below the fixed point; extend it"
    if grid[-1] == 0:  # the fixed point is at least tol > 0
        raise InvalidInputError(beyond)

    def phi(lam):
        return float(np.interp(lam, grid, values))

    try:
        value = fixed_point_lambda(phi, args.epsilon, float(grid[-1]), args.tol)
    except BracketError as exc:
        raise InvalidInputError(f"--table: {exc}") from exc
    if value > grid[-1]:
        raise InvalidInputError(beyond)
    return value


def main(argv=None):
    """Run one subcommand and return its exit code; the only place an error becomes one."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "experiment":
            return _cmd_experiment(args)
        print(f"{_compute_value(args):.12g}")
        return EXIT_OK
    except InvalidInputError as exc:
        message = str(exc) if args.command == "experiment" else _flagged(str(exc))
        print(f"{'configuration' if args.command == 'experiment' else 'compute'} error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - the CLI must not panic to the shell
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
