"""Command line front end for the experiment harness.

Subcommands: ``run`` executes a JSON config and writes CSV results, SVG
quick-looks and a manifest; ``validate`` checks a config without running
anything; ``list-experiments`` prints the catalog.  A manifest written by
``run`` is itself a valid ``--config`` argument, which reproduces the
result files byte for byte.

Relative output directories are placed under $GRAPHHEAT_RESULTS when that
variable is set.
"""

import argparse
import dataclasses
import os
import sys

from .experiments import (
    ExperimentConfig,
    catalog,
    run_experiment,
    validate_config,
)


def _load_config(path, seed=None):
    """The validated config at path, or None once its errors are printed."""
    try:
        with open(path) as fh:
            cfg = ExperimentConfig.from_json(fh.read())
    except (ValueError, TypeError) as exc:
        errs = [str(exc)]
    else:
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=seed)
        errs = validate_config(cfg)
    for e in errs:
        print("config error: %s" % e, file=sys.stderr)
    return None if errs else cfg


def _resolve_out(cfg, override):
    out = override if override is not None else cfg.out
    root = os.environ.get("GRAPHHEAT_RESULTS")
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    return out


def _cmd_run(args):
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1, got %d" % args.jobs)
    cfg = _load_config(args.config, args.seed)
    if cfg is None:
        return 2
    manifest = run_experiment(cfg, _resolve_out(cfg, args.out),
                              jobs=args.jobs)
    print(manifest)
    return 0


def _cmd_validate(args):
    cfg = _load_config(args.config)
    if cfg is None:
        return 2
    print("ok: %s experiment, output directory %r"
          % (cfg.kind, _resolve_out(cfg, args.out)))
    return 0


def _cmd_list(args):
    for kind, line in catalog().items():
        print("%-18s %s" % (kind, line))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphheat",
        description="graph-based Bayesian learning experiments on point "
                    "clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("--config", required=True, help="JSON config or a "
                     "manifest from a previous run")
    run.add_argument("--out", default=None, help="output directory "
                     "(overrides the config)")
    run.add_argument("--seed", type=int, default=None, help="base seed "
                     "(overrides the config)")
    run.add_argument("--jobs", type=int, default=1, help="parallel worker "
                     "processes for sweep points")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="check a config without running")
    val.add_argument("--config", required=True)
    val.add_argument("--out", default=None)
    val.set_defaults(func=_cmd_validate)

    lst = sub.add_parser("list-experiments", help="print the catalog")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
