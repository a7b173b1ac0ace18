"""Command line pipelines: abstract, synthesize, simulate, export-plot, bounds.

Exit codes: 0 success, 2 configuration, input-file or divergence error, 3 empty
winning set, 4 certification failure. Identical configs produce byte-identical
outputs when --no-timestamp is passed.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys
import time

import numpy as np

from . import formats
from .abstraction import (OutOfDomainError, Quantizer, build_abstraction, target_over,
                          target_under)
from .config import ConfigError, ProblemConfig, parse_config
from .dynamics import DivergenceError
from .fts import StateSet
from .refine import RefinedController, simulate
from .synthesis import synthesize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY_WINNING = 3
EXIT_CERTIFICATION = 4


def _out_path(out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _state_ids(key, states, num_states):
    """Explicit state ids from the config key `key`, each checked against the system."""
    bad = [s for s in states if not 0 <= s < num_states]
    if bad:
        raise ConfigError(f"key '{key}': state {bad[0]} outside the "
                          f"{num_states} states of the system")
    return np.asarray(states, dtype=np.int64)


def _target_cell_sets(cfg: ProblemConfig, system, grid):
    """Inner and outer cell covers of the configured target."""
    if grid is not None:
        cfg.check_dimensions(grid)
        if cfg.target is not None:
            return target_under(grid, cfg.target), target_over(grid, cfg.target)
    if cfg.target_states is not None:
        w = StateSet(system.num_states,
                     _state_ids("target.states", cfg.target_states, system.num_states))
        return w, w
    raise ConfigError("config needs a target (spatial for gridded systems, "
                      "target.states for explicit systems)")


def _unsafe_cells(cfg: ProblemConfig, system, grid):
    """Cells touching any obstacle, plus explicitly unsafe states; None if no constraint."""
    if cfg.obstacles is None and cfg.unsafe_states is None:
        return None
    mask = np.zeros(system.num_states, dtype=bool)
    if cfg.obstacles is not None:
        if grid is None:
            raise ConfigError("obstacle boxes need a gridded system")
        mask |= target_over(grid, cfg.obstacles).mask
    if cfg.unsafe_states is not None:
        mask[_state_ids("unsafe.states", cfg.unsafe_states, system.num_states)] = True
    return StateSet.from_mask(mask)


def cmd_abstract(cfg: ProblemConfig, out_dir=".", threads=1, timestamp=True) -> int:
    if cfg.grid is None:
        raise ConfigError("abstract needs a grid section")
    model = cfg.build_model()
    t0 = time.perf_counter()
    system, _ = build_abstraction(model, cfg.grid, threads=threads,
                                  input_margin=cfg.input_margin)
    elapsed = time.perf_counter() - t0
    path = _out_path(out_dir, cfg.output_path("system"))
    formats.write_system(path, system, grid=cfg.grid, timestamp=timestamp)
    print(f"abstract: {system.num_states} states, {system.num_inputs} inputs, "
          f"{system.num_transitions} transitions in {elapsed:.1f}s -> {path}")
    return EXIT_OK


def _synthesize(cfg: ProblemConfig, system, grid):
    """The configured problem's (controller, lower-bound table)."""
    return synthesize(system, *_target_cell_sets(cfg, system, grid),
                      _unsafe_cells(cfg, system, grid))


def cmd_synthesize(cfg: ProblemConfig, system_path, out_dir=".", timestamp=True) -> int:
    system, grid = formats.parse_system(system_path)
    t0 = time.perf_counter()
    controller, lower = _synthesize(cfg, system, grid)
    elapsed = time.perf_counter() - t0
    ctl_path = _out_path(out_dir, cfg.output_path("controller"))
    bounds_path = _out_path(out_dir, cfg.output_path("bounds"))
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
    controller, grid = formats.parse_controller(controller_path)
    if grid is None:
        raise ConfigError("simulate needs a controller with grid metadata")
    if cfg.target is None:
        raise ConfigError("simulate needs a spatial target")
    if not cfg.initial_states:
        raise ConfigError("simulate needs at least one simulate.initial.<k> state")
    cfg.check_dimensions(grid)
    model = cfg.build_model()
    if model.dim != grid.dim or model.input_dim != grid.input_dim:
        raise ConfigError("configured model does not match the controller's grid")
    rc = RefinedController(controller, Quantizer(grid))
    if bounds_path is None:
        candidate = _out_path(out_dir, cfg.output_path("bounds"))
        bounds_path = candidate if os.path.exists(candidate) else None
    lower = None
    if bounds_path is not None:
        lower, upper = formats.parse_bounds(bounds_path)
        if lower.size != controller.num_states:
            raise formats.FormatError(
                f"bounds file {bounds_path} covers {lower.size} states, "
                f"the controller {controller.num_states}")
        values = controller.values()
        differ = np.flatnonzero(upper != values)
        if differ.size:
            x = int(differ[0])
            raise formats.FormatError(
                f"bounds file {bounds_path}: upper bound of state {x} is "
                f"{formats._fmt_entry_time(upper[x])}, the controller's value "
                f"{formats._fmt_entry_time(values[x])}")
    unsafe = _unsafe_cells(cfg, controller, grid)
    report_path = _out_path(out_dir, cfg.output_path("report"))
    all_ok = True
    with open(report_path, "w") as rep:
        if timestamp:
            rep.write(formats._timestamp_line())
        rep.write("trace,reason,initial_cell,lower,achieved,upper,obstacle_visits,certified\n")
        for i, x0 in cfg.initial_states.items():
            trace = simulate(model, rc, x0, cfg.target, cfg.max_steps, lower=lower)
            trace_path = _out_path(out_dir, f"{cfg.output_path('trace_prefix')}_{i}.csv")
            formats.write_trace(trace_path, trace, grid.dim, grid.input_dim,
                                timestamp=timestamp)
            visits = (sum(1 for s in trace.steps if s.cell in unsafe)
                      if unsafe is not None else 0)
            ok = trace.certified and (unsafe is None or visits == 0)
            all_ok &= ok
            achieved = "none" if trace.achieved is None else trace.achieved
            cell = "none" if trace.initial_cell is None else trace.initial_cell
            rep.write(f"{i},{trace.reason},{cell},"
                      f"{formats._fmt_entry_time(trace.lower_bound)},{achieved},"
                      f"{formats._fmt_entry_time(trace.upper_bound)},{visits},"
                      f"{'pass' if ok else 'fail'}\n")
            print(f"simulate: trace {i}: reason={trace.reason} achieved={achieved} "
                  f"bounds=[{formats._fmt_entry_time(trace.lower_bound)},"
                  f"{formats._fmt_entry_time(trace.upper_bound)}] "
                  f"{'pass' if ok else 'FAIL'} -> {trace_path}")
    print(f"simulate: certification report -> {report_path}")
    return EXIT_OK if all_ok else EXIT_CERTIFICATION


def cmd_export_plot(controller_path, out_path, timestamp=True) -> int:
    controller, grid = formats.parse_controller(controller_path)
    quantizer = Quantizer(grid) if grid is not None else None
    formats.write_plot(out_path, controller, quantizer, timestamp=timestamp)
    rows = len(controller.domain())
    print(f"export-plot: {rows} rows -> {out_path}")
    return EXIT_OK


def cmd_bounds(cfg: ProblemConfig, system_path) -> int:
    """Print-only bound report for the configured initial states (or all states)."""
    system, grid = formats.parse_system(system_path)
    controller, lower = _synthesize(cfg, system, grid)
    lo = lower.entry_times()
    up = controller.values()
    print("state,lower,upper")
    if grid is not None and cfg.initial_states:
        quantizer = Quantizer(grid)
        for k, x0 in cfg.initial_states.items():
            try:
                cell = int(quantizer.quantize(x0))
            except OutOfDomainError as e:
                raise ConfigError(f"key 'simulate.initial.{k}': {e}") from None
            print(f"{cell},{formats._fmt_entry_time(lo[cell])},{formats._fmt_entry_time(up[cell])}")
    else:
        for x in range(system.num_states):
            print(f"{x},{formats._fmt_entry_time(lo[x])},{formats._fmt_entry_time(up[x])}")
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
    p.add_argument("--threads", type=int, default=1, help="parallel builder threads")

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
    try:
        cfg = parse_config(args.config) if args.config else None
        if args.command == "abstract":
            return cmd_abstract(cfg, out_dir=args.out, threads=args.threads,
                                timestamp=not args.no_timestamp)
        if args.command == "synthesize":
            system_path = args.system or os.path.join(args.out, cfg.output_path("system"))
            return cmd_synthesize(cfg, system_path, out_dir=args.out,
                                  timestamp=not args.no_timestamp)
        if args.command == "simulate":
            ctl_path = args.controller or os.path.join(args.out, cfg.output_path("controller"))
            return cmd_simulate(cfg, ctl_path, out_dir=args.out,
                                bounds_path=args.bounds,
                                timestamp=not args.no_timestamp)
        if args.command == "export-plot":
            if args.controller is None and cfg is None:
                raise ConfigError("export-plot needs --controller or --config")
            ctl_path = args.controller or os.path.join(args.out, cfg.output_path("controller"))
            plot_name = cfg.output_path("plot") if cfg else "controller_plot.csv"
            return cmd_export_plot(ctl_path, _out_path(args.out, plot_name),
                                   timestamp=not args.no_timestamp)
        if args.command == "bounds":
            system_path = args.system or os.path.join(args.out, cfg.output_path("system"))
            return cmd_bounds(cfg, system_path)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, formats.FormatError, FileNotFoundError, DivergenceError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
