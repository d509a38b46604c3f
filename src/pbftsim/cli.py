"""Command line front end.

Three subcommands: ``run`` executes one scenario config file and
writes its report, ``sweep`` executes a packaged preset or a sweep
file and writes the combined CSV, ``load-study`` measures node
utilisation against network size.  All commands accept ``--seed`` to
override the (master) seed and ``--out`` to write results to a file
instead of stdout; ``run`` and ``sweep`` also take ``--trace`` to
record the deterministic event trace hash.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .metrics import render_report
from .scenario import parse_config, run_scenario
from .sweeps import (PRESETS, emit_csv, emit_plot_data, load_preset,
                     parse_sweep_text, render_load_study, run_load_study,
                     run_sweep)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _resolve_sweep(ref: str):
    if ref in PRESETS:
        return load_preset(ref)
    try:
        with open(ref, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"{ref!r} is neither a preset ({known}) "
                         f"nor a sweep file") from None
    name = ref.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return parse_sweep_text(text, name=name, source=ref)


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    result = run_scenario(config, trace=args.trace)
    if result.trace_hash is not None:
        result.report.summary["trace_hash"] = result.trace_hash
    _write(render_report(result.report), args.out)
    return 0


def _cmd_sweep(args) -> int:
    spec = _resolve_sweep(args.preset)
    if args.seed is not None:
        spec.base = replace(spec.base, seed=args.seed)
    result = run_sweep(spec, trace=args.trace)
    _write(emit_csv(result), args.out)
    if args.plot is not None:
        _write(emit_plot_data(result), args.plot)
    if args.trace:
        for run in result.runs:
            sys.stderr.write(f"{run.scenario_id} trace {run.trace_hash}\n")
    return 0


def _cmd_load_study(args) -> int:
    spec = _resolve_sweep(args.preset)
    if args.nodes is not None:
        try:
            nodes = tuple(int(v) for v in args.nodes.split(","))
        except ValueError:
            raise ValueError(f"--nodes: bad value {args.nodes!r}") from None
    elif spec.axis == "nodes":
        nodes = spec.values
    else:
        raise ValueError(f"{args.preset} sweeps {spec.axis!r}, not nodes: "
                         f"give the network sizes with --nodes")
    base = spec.base
    if args.profile is not None:
        base = replace(base, device_profile=args.profile)
    if args.period is not None:
        base = replace(base, generation_period_s=args.period)
    if args.seed is not None:
        base = replace(base, seed=args.seed)
    study = run_load_study(base, nodes=nodes)
    echo = {"profile": base.device_profile, "seed": base.seed,
            "block_size": base.block_size,
            "generation_period_s": f"{base.generation_period_s:g}"}
    _write(render_load_study(study, echo), args.out)
    if study.warning is not None:
        sys.stderr.write(f"warning: {study.warning}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbftsim",
        description="discrete-event consensus simulator for device networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config file")
    p_run.add_argument("config", help="scenario config (key = value lines)")
    p_run.add_argument("--seed", type=int, help="override the seed")
    p_run.add_argument("--out", help="write the report here (default stdout)")
    p_run.add_argument("--trace", action="store_true",
                       help="hash the event trace into the report")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep",
                             help="run a preset or sweep definition file")
    p_sweep.add_argument("preset",
                         help="preset name (%s) or file"
                              % ", ".join(sorted(PRESETS)))
    p_sweep.add_argument("--seed", type=int, help="override the master seed")
    p_sweep.add_argument("--out", help="write per-minute CSV here")
    p_sweep.add_argument("--plot", help="also write per-curve means here")
    p_sweep.add_argument("--trace", action="store_true",
                         help="report per-run trace hashes on stderr")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_load = sub.add_parser("load-study",
                            help="utilisation against network size")
    p_load.add_argument("--preset", default="EXP-LOAD",
                        help="base sweep definition (default EXP-LOAD)")
    p_load.add_argument("--profile", help="override the device profile")
    p_load.add_argument("--period", type=float,
                        help="override the generation period")
    p_load.add_argument("--nodes",
                        help="network sizes to sample (default: the "
                             "preset's values when it sweeps nodes)")
    p_load.add_argument("--seed", type=int, help="override the master seed")
    p_load.add_argument("--out", help="write the study here")
    p_load.set_defaults(func=_cmd_load_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
