"""Command line pipelines: abstract, synthesize, simulate, export-plot, bounds.

Exit codes: 0 success, 2 configuration, input-file or divergence error, 3 empty
winning set, 4 certification failure. Identical configs produce byte-identical
outputs when --no-timestamp is passed.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys as _sys
import time

import numpy as np

from . import formats
from .abstraction import Quantizer, build_abstraction, target_over, target_under
from .config import ConfigError, ProblemConfig, parse_config
from .dynamics import DivergenceError
from .refine import RefinedController, simulate
from .synthesis import synthesize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY_WINNING = 3
EXIT_CERTIFICATION = 4


def _target_cell_sets(cfg: ProblemConfig, grid):
    """Inner and outer cell covers of the configured target."""
    cfg.check_dimensions(grid)
    if cfg.target is None:
        raise ConfigError("config needs a target")
    return target_under(grid, cfg.target), target_over(grid, cfg.target)


def _unsafe_cells(cfg: ProblemConfig, grid):
    """Cells touching any obstacle; None if there is none."""
    return target_over(grid, cfg.obstacles) if cfg.obstacles is not None else None


def cmd_abstract(cfg: ProblemConfig, out_dir=".", threads=1, timestamp=True) -> int:
    if threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {threads}")
    os.makedirs(out_dir, exist_ok=True)
    if not cfg.grid:
        raise ConfigError("abstract needs a grid section")
    model = cfg.build_model()
    t0 = time.perf_counter()
    boxes, _ = build_abstraction(model, cfg.grid, threads=threads,
                                 input_margin=cfg.input_margin)
    elapsed = time.perf_counter() - t0
    path = os.path.join(out_dir, cfg.output_path("system"))
    formats.write_system(path, boxes, timestamp=timestamp)
    print(f"abstract: {boxes.num_states} states, {boxes.num_inputs} inputs, "
          f"{boxes.num_transitions} transitions in {elapsed:.1f}s -> {path}")
    return EXIT_OK


def _synthesize(cfg: ProblemConfig, system, grid):
    """The configured problem's (controller, lower-bound table)."""
    return synthesize(system, *_target_cell_sets(cfg, grid), _unsafe_cells(cfg, grid))


def cmd_synthesize(cfg: ProblemConfig, system_path, out_dir=".", timestamp=True) -> int:
    os.makedirs(out_dir, exist_ok=True)
    system, grid = formats.parse_system(system_path)
    t0 = time.perf_counter()
    controller, lower = _synthesize(cfg, system, grid)
    elapsed = time.perf_counter() - t0
    ctl_path = os.path.join(out_dir, cfg.output_path("controller"))
    bounds_path = os.path.join(out_dir, cfg.output_path("bounds"))
    formats.write_controller(ctl_path, controller, grid=grid, timestamp=timestamp)
    formats.write_bounds(bounds_path, lower, controller, timestamp=timestamp)
    winning = len(controller.domain())
    print(f"synthesize: winning set {winning}/{system.num_states} states "
          f"in {elapsed:.1f}s -> {ctl_path}, {bounds_path}")
    if winning == 0:
        print("synthesize: warning: winning set is empty")
        return EXIT_EMPTY_WINNING
    return EXIT_OK


def cmd_simulate(cfg: ProblemConfig, controller_path, out_dir=".",
                 bounds_path=None, timestamp=True) -> int:
    os.makedirs(out_dir, exist_ok=True)
    controller, grid = formats.parse_controller(controller_path)
    if cfg.target is None:
        raise ConfigError("simulate needs a target")
    if not cfg.initial_states:
        raise ConfigError("simulate needs at least one simulate.initial.<k> state")
    cfg.check_dimensions(grid)
    model = cfg.build_model()
    rc = RefinedController(controller, Quantizer(grid))
    lower = formats.parse_bounds(bounds_path, controller)[0] if bounds_path is not None else None
    unsafe = _unsafe_cells(cfg, grid)
    rows, all_ok = [], True
    for i, x0 in cfg.initial_states.items():
        trace = simulate(model, rc, x0, cfg.target, cfg.max_steps, lower=lower)
        trace_path = os.path.join(out_dir, f"{cfg.output_path('trace_prefix')}_{i}.csv")
        formats.write_trace(trace_path, trace, grid.dim, grid.input_dim, timestamp=timestamp)
        visits = (sum(1 for s in trace.steps if s.cell in unsafe)
                  if unsafe is not None else 0)
        ok = trace.certified and (unsafe is None or visits == 0)
        all_ok &= ok
        rows.append((i, trace.reason, trace.initial_cell, trace.lower_bound, trace.achieved,
                     trace.upper_bound, visits, ok))
        achieved = "none" if trace.achieved is None else trace.achieved
        print(f"simulate: trace {i}: reason={trace.reason} achieved={achieved} "
              f"bounds=[{formats.fmt_entry_time(trace.lower_bound)},"
              f"{formats.fmt_entry_time(trace.upper_bound)}] "
              f"{'pass' if ok else 'FAIL'} -> {trace_path}")
    report_path = os.path.join(out_dir, cfg.output_path("report"))
    formats.write_report(report_path, rows, timestamp=timestamp)
    print(f"simulate: certification report -> {report_path}")
    return EXIT_OK if all_ok else EXIT_CERTIFICATION


def cmd_export_plot(controller_path, out_path, timestamp=True) -> int:
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    controller, grid = formats.parse_controller(controller_path)
    formats.write_plot(out_path, controller, Quantizer(grid), timestamp=timestamp)
    rows = len(controller.domain())
    print(f"export-plot: {rows} rows -> {out_path}")
    return EXIT_OK


def cmd_bounds(cfg: ProblemConfig, system_path) -> int:
    """Print the bounds table of the configured initial states' cells (or of all states)."""
    system, grid = formats.parse_system(system_path)
    controller, lower = _synthesize(cfg, system, grid)
    cells = None
    if cfg.initial_states:
        cells = Quantizer(grid).cell_index(np.array(list(cfg.initial_states.values())))
        for (k, x0), cell in zip(cfg.initial_states.items(), cells):
            if cell < 0:
                raise ConfigError(f"key 'simulate.initial.{k}': state {x0.tolist()} "
                                  "outside gridded domain")
    table = io.BytesIO()
    formats.write_bounds_table(table, lower, controller, cells)
    print(table.getvalue().decode(), end="")
    if len(controller.domain()) == 0:
        print("bounds: warning: winning set is empty")
        return EXIT_EMPTY_WINNING
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="symtoc",
        description="Synthesize certified approximately time-optimal controllers "
                    "via finite grid abstractions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="problem config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit timestamp comments for byte-identical outputs")

    p = sub.add_parser("abstract", help="build the finite abstraction")
    common(p)
    p.add_argument("--threads", type=int, default=1,
                   help="threads that build the abstraction, the calling one included; "
                        "the output is the same for every count")

    p = sub.add_parser("synthesize", help="solve the games and extract the controller")
    common(p)
    p.add_argument("--system", default=None, help="system file (default from config)")

    p = sub.add_parser("simulate", help="closed-loop simulation with certification")
    common(p)
    p.add_argument("--controller", default=None, help="controller file (default from config)")
    p.add_argument("--bounds", default=None, help="bounds CSV for the lower certificate")

    p = sub.add_parser("export-plot", help="dump (cell center, chosen input, value) CSV")
    common(p, config_required=False)
    p.add_argument("--controller", default=None, help="controller file (default from config)")

    p = sub.add_parser("bounds", help="print entry-time bounds without writing files")
    common(p)
    p.add_argument("--system", default=None, help="system file (default from config)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    named = {"--config": args.config}  # path of each option or config key; config read first
    try:
        cfg = parse_config(args.config) if args.config else None
        named = {f"--{o}": getattr(args, o, None) for o in ("system", "controller", "bounds", "out")}
        named.update((f"output.{kind}", os.path.join(args.out, name))
                     for kind, name in (cfg.outputs.items() if cfg else ()))
        # each input file: --<kind> as given, else the config's output.<kind> under --out
        path = {kind: named[f"--{kind}"] or named.get(f"output.{kind}")
                for kind in ("system", "controller", "bounds")}
        if args.command == "abstract":
            return cmd_abstract(cfg, out_dir=args.out, threads=args.threads,
                                timestamp=not args.no_timestamp)
        if args.command == "synthesize":
            return cmd_synthesize(cfg, path["system"], out_dir=args.out,
                                  timestamp=not args.no_timestamp)
        if args.command == "simulate":
            # without a bounds file the traces get no lower bound
            bounds = path["bounds"] if args.bounds or os.path.exists(path["bounds"]) else None
            return cmd_simulate(cfg, path["controller"], out_dir=args.out, bounds_path=bounds,
                                timestamp=not args.no_timestamp)
        if args.command == "export-plot":
            if args.controller is None and cfg is None:
                raise ConfigError("export-plot needs --controller or --config")
            plot_name = cfg.output_path("plot") if cfg else "controller_plot.csv"
            return cmd_export_plot(path["controller"], os.path.join(args.out, plot_name),
                                   timestamp=not args.no_timestamp)
        if args.command == "bounds":
            return cmd_bounds(cfg, path["system"])
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, formats.FormatError, OSError, DivergenceError) as e:
        # a trace file is <output.trace_prefix>_<k>.csv; every other path is given whole
        suffix = {"output.trace_prefix": r"_\d+\.csv"}
        source = next((f"{name}: " for name, given in named.items() if given and re.fullmatch(
            re.escape(given) + suffix.get(name, ""), getattr(e, "filename", None) or "")), "")
        print(f"error: {source}{e}", file=_sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
