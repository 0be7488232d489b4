"""Command-line front end: run, list, validate.

Exit codes: 0 every requested verdict verified; 1 a verdict was violated or
left unproven; 2 configuration error; 3 runtime error.  Progress goes to
standard error, data to files.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import load_config
from .errors import ConfigError
from .runner import manifest_exit_code, run_scenario
from .scenarios import REGISTRY, get_scenario, list_scenarios


def _resolve(ref):
    """A run target is a built-in scenario name or a config file path."""
    return get_scenario(ref) if ref in REGISTRY else load_config(ref)


def _cmd_run(args):
    out_base = os.environ.get("PARAPOS_OUT") or args.out or "parapos_out"
    try:
        configs = [_resolve(ref) for ref in args.config]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    code = 0
    for config in configs:
        manifest = run_scenario(config, out_dir=os.path.join(out_base, config.name),
                                seed=args.seed)
        code = max(code, manifest_exit_code(manifest))
        state = manifest.status if manifest.status != "ok" else (
            "verified" if manifest.all_verified else
            "violated" if manifest.any_violated else "inconclusive")
        print(f"{manifest.name}: {state}", file=sys.stderr)
    return code


def _cmd_list(_args):
    for name, description in list_scenarios():
        print(f"{name:24s} {description}")
    return 0


def _cmd_validate(args):
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"{config.name}: valid")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parapos",
        description="Competition-diffusion scenario runner with hypothesis "
                    "checks and dual-solver cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute scenarios (built-in names or "
                                     "config file paths) one after another")
    run.add_argument("config", nargs="+",
                     help="scenario name from 'parapos list' or a JSON file")
    run.add_argument("--out", default=None, help="output base directory "
                     "(env PARAPOS_OUT takes precedence)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the sampling seed of the checks")
    run.set_defaults(func=_cmd_run)

    lst = sub.add_parser("list", help="names of the built-in scenarios")
    lst.set_defaults(func=_cmd_list)

    val = sub.add_parser("validate", help="validate a config file and exit")
    val.add_argument("config")
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - contract maps everything to 3
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
