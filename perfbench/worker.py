"""One pipeline run in a fresh interpreter; run.py starts one per measurement.

Runs the chosen symtoc commands in process through `symtoc.cli.main` with
--no-timestamp, in --rounds rounds. Within a round each command repeats until
its runs in that round add up to --min-seconds of wall time (at most MAX_RUNS
runs), so short commands get as many samples as long ones, spread over the
whole process. No round starts once --budget seconds have passed.

Writes a JSON result: for each call the exit code, wall time, CPU time (user
plus system, all threads), the process's peak RSS so far and the sha256 of
every file in the output directory after it; the peak RSS after the first
round; and format-independent digests of what the CLI parsed back (the CSR
system in `synthesize`, the controller and the bounds table in `simulate`). With --trace it also records spans and
counts and writes them to the trace file.

    python3 perfbench/worker.py --config CFG --out DIR --result OUT.json \
        [--threads N] [--commands abstract,synthesize,simulate] [--rounds 2]
        [--min-seconds 2] [--budget SECONDS] [--trace SPANS.json]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import conveyor  # noqa: E402
import tracer as tracing  # noqa: E402

COMMANDS = ("abstract", "synthesize", "simulate")
MAX_RUNS = 30  # per command and round


def digest(*arrays) -> str:
    """sha256 over arrays widened to 64-bit little-endian, chunk by chunk.

    The widening makes the digest independent of the dtypes a format picks;
    chunking keeps the copy small so the check adds nothing to peak RSS.
    """
    import numpy as np
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a).ravel()
        wide = "<f8" if a.dtype.kind == "f" else "<i8"
        h.update(f"{a.size}:{wide};".encode())
        for i in range(0, a.size, 1 << 20):
            h.update(a[i:i + (1 << 20)].astype(wide).tobytes())
    return h.hexdigest()


def file_hashes(out) -> dict:
    hashes = {}
    for path in sorted(Path(out).iterdir()) if Path(out).is_dir() else ():
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 22), b""):
                h.update(block)
        hashes[path.name] = h.hexdigest()
    return hashes


def system_digest(system) -> str:
    return digest([system.num_states, system.num_inputs], system._offsets, system._targets)


def controller_digest(ctrl) -> str:
    return digest([ctrl.num_states, ctrl.num_inputs], ctrl.levels, ctrl.offsets,
                  ctrl.enabled_inputs_flat, ctrl.worst_values_flat)


def _schedule(commands, rounds, min_seconds, budget, runs):
    """Yield (command, round) until a command fails; reads `runs`."""
    start = time.perf_counter()
    for rnd in range(rounds):
        if rnd and time.perf_counter() - start > budget:
            return
        for cmd in commands:
            spent = 0.0
            for _ in range(MAX_RUNS):
                yield cmd, rnd
                if runs[-1]["rc"] != 0:
                    return
                spent += runs[-1]["s"]
                if spent >= min_seconds:
                    break


def _put(digests: dict, kind: str, value: str):
    """Record a digest; a repeated command that parses something else spoils it."""
    digests[kind] = value if digests.get(kind, value) == value else "differs between repeats"


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def layer_metrics(tr: tracing.Tracer) -> dict:
    """Per-layer metrics of one traced run."""
    c = tr.counts
    spans = tr.summary()
    busy = {
        "config.parse_s": "config.parse",
        "abstraction.build_s": "abstraction.build",
        "abstraction.target_cover_s": "abstraction.target_cover",
        "dynamics.integrate_s": "dynamics.integrate",
        "dynamics.radius_s": "dynamics.radius",
        "fts.reverse_s": "fts.reverse",
        "fts.restrict_s": "fts.restrict",
        "synthesis.safety_s": "synthesis.safety",
        "synthesis.pessimistic_s": "synthesis.pessimistic",
        "synthesis.optimistic_s": "synthesis.optimistic",
        "synthesis.extract_s": "synthesis.extract",
        "formats.sts_write_s": "formats.write_system",
        "formats.sts_parse_s": "formats.parse_system",
        "formats.ctl_write_s": "formats.write_controller",
        "formats.ctl_parse_s": "formats.parse_controller",
        "formats.bounds_write_s": "formats.write_bounds",
        "formats.bounds_parse_s": "formats.parse_bounds",
        "formats.trace_write_s": "formats.write_trace",
        "refine.simulate_s": "refine.simulate",
    }
    m = {metric: spans.get(name, (0, 0.0, 0.0))[1] for metric, name in busy.items()}
    m["abstraction.build_self_s"] = spans.get("abstraction.build", (0, 0.0, 0.0))[2]
    m["cli.self_s"] = sum(spans.get(f"cli.{cmd}", (0, 0.0, 0.0))[2] for cmd in COMMANDS)
    for key in ("abstraction.cells", "abstraction.inputs", "abstraction.transitions",
                "abstraction.succ_size_max", "dynamics.integrate_calls", "dynamics.points",
                "dynamics.field_evals", "synthesis.safety_sweeps", "synthesis.pessimistic_levels",
                "synthesis.optimistic_levels", "synthesis.safe_states",
                "synthesis.winning_states", "formats.sts_bytes", "refine.steps",
                "refine.certified", "refine.margin_min"):
        m[key] = c.get(key, 0.0)
    pairs = c["abstraction.cells"] * c["abstraction.inputs"]
    m["abstraction.enabled_pair_ratio"] = c["abstraction.enabled_pairs"] / pairs if pairs else 0.0
    enabled = c["abstraction.enabled_pairs"]
    m["abstraction.succ_size_mean"] = c["abstraction.transitions"] / enabled if enabled else 0.0
    gap_cells = c["synthesis.gap_cells"]
    m["synthesis.bound_gap_mean"] = c["synthesis.gap_sum"] / gap_cells if gap_cells else 0.0
    parse_s = m["formats.sts_parse_s"]
    m["formats.sts_parse_mb_per_s"] = m["formats.sts_bytes"] / 1e6 / parse_s if parse_s else 0.0
    steps = m["refine.steps"]
    m["refine.step_us"] = 1e6 * m["refine.simulate_s"] / steps if steps else 0.0
    return m


def run(args) -> dict:
    import symtoc.cli

    conveyor.register()
    tr = tracing.Tracer() if args.trace else None
    capture = tracing.Capture()
    missing = tracing.install(tr, capture)
    if missing:
        print("worker: hooks not found: " + ", ".join(missing), file=sys.stderr)

    result = {"runs": [], "digests": {}, "missing_hooks": missing}
    opts = {"abstract": ["--threads", str(args.threads)], "synthesize": [], "simulate": []}
    commands = args.commands.split(",")
    for cmd, rnd in _schedule(commands, args.rounds, args.min_seconds, args.budget,
                              result["runs"]):
        argv = [cmd, "--config", args.config, "--out", args.out, "--no-timestamp"] + opts[cmd]
        span = tr.span(f"cli.{cmd}") if tr is not None else contextlib.nullcontext()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            c0, t0 = _cpu(), time.perf_counter()
            with span:
                rc = symtoc.cli.main(argv)
            elapsed, cpu = time.perf_counter() - t0, _cpu() - c0
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["runs"].append({"command": cmd, "round": rnd, "rc": rc, "s": elapsed,
                               "cpu_s": cpu, "maxrss_mb": maxrss, "files": file_hashes(args.out)})
        # digests are taken between commands, outside the timed calls
        if capture.system is not None:
            system = capture.system[0]
            _put(result["digests"], "system", system_digest(system))
            result["size"] = {"cells": system.num_states, "inputs": system.num_inputs,
                              "transitions": system.num_transitions}
            capture.system = system = None
        if capture.controller is not None:
            _put(result["digests"], "controller", controller_digest(capture.controller[0]))
            capture.controller = None
        if capture.bounds is not None:
            _put(result["digests"], "bounds", digest(*capture.bounds))
            capture.bounds = None
    # one pass of the pipeline; later rounds add allocator growth of a few MB
    result["peak_rss_mb"] = max(r["maxrss_mb"] for r in result["runs"] if r["round"] == 0)
    if tr is not None:
        result["layers"] = layer_metrics(tr)
        result["spans"] = tr.summary()
        with open(args.trace, "w") as fh:
            json.dump({"spans": [{"name": n, "start": s, "end": e, "parent": p, "thread": t}
                                 for n, s, e, p, t in tr.spans],
                       "counts": dict(tr.counts)}, fh)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--commands", default=",".join(COMMANDS))
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--min-seconds", type=float, default=0.0)
    p.add_argument("--budget", type=float, default=float("inf"))
    p.add_argument("--trace", default=None, help="write spans here and report layer metrics")
    args = p.parse_args(argv)
    result = run(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
