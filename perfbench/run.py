"""The symtoc benchmark: abstract, synthesize and simulate, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from anywhere; the checkout is the directory above this file. A run:

1. writes the workload's config with start states drawn from --seed (untimed);
2. times `setup_s`: a fresh interpreter that imports symtoc and parses that
   config, started several times before and after step 3, median reported;
3. runs the pipeline in a fresh worker process (worker.py), in rounds; in a
   round each command repeats until it has run for ROUND_SECONDS (at least
   once, at most 30 times). No round starts after --seconds, so on a much
   slower machine or commit a run measures less instead of running long. A
   command's metric is the median CPU time of its runs, and pipeline_cpu_s
   sums those;
4. checks every run's outputs: exit codes, digests of the parsed-back
   system, controller and bounds table against reference.json, byte identity
   with the command's first run, and a certified verdict for every trace;
5. prints a table, then one JSON line with `correct`, `attempted`, `failed`
   and the metrics BENCHMARK.json lists: `end_to_end` with --trace 0,
   `per_layer` with --trace 1.

With --trace 1 the untraced worker makes one round, then a traced worker
runs each command once; the per-layer metrics come from it, the tracing overhead is the
difference between the first runs of the commands in the two workers, and
one extra `abstract` with the other thread count must reproduce the system
file byte for byte. Spans go to
.bench_work/<workload>/trace.json.

An operation is a command or a trace; one that exits non-zero, produces an
artifact that differs from the reference or from the command's first run, or a
trace that is not certified, counts as failed. Any failure makes the exit
code 1, after the JSON line. A checkout without symtoc exits 2 and prints no
result. --self-check corrupts artifacts of a small run and exits 0 only if
the checks count them as failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMANDS = ("abstract", "synthesize", "simulate")
# Interference from other tenants comes in spells of seconds to minutes:
# identical `simulate` runs have read from 0.19 s to 0.45 s of CPU on a 2-vCPU
# VM. The median of many short runs spread over the process averages the
# spells out; the least of them rests on the few quiet moments a run happens
# to catch, so it spread more between runs. Users rerun synthesize and
# simulate alone anyway.
MAX_ROUNDS = 200
ROUND_SECONDS = 0.5
SETUP_PROBES = 6  # before the worker, and as many after it
# One BLAS thread. On 2 vCPUs an idle BLAS pool spin-waits against symtoc's
# own --threads and against other tenants: in alternating runs one
# di_pipeline `abstract` read 0.60 s to 0.76 s of CPU with OpenBLAS's default
# pool and 0.27 s to 0.43 s with one thread. The gated metrics are CPU
# seconds, which a BLAS pool never lowers.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 150


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def producer(filename: str) -> str:
    """The command that writes an output file."""
    if filename.endswith(".sts"):
        return "abstract"
    if filename.endswith(".ctl") or filename.endswith("_bounds.csv"):
        return "synthesize"
    return "simulate"


class Bench:
    """One benchmark run: a workload, its generated config and its checks."""

    def __init__(self, workload, seed: int, work: Path):
        import workloads
        self.w = workload
        self.work = work
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.ref = workloads.load_reference()[workload.name]
        self.config = workloads.write_inputs(ROOT, workload, seed, work / "config.cfg")
        from symtoc.config import parse_config
        self.report = parse_config(self.config).output_path("report")
        self.first_hashes = {}  # command -> {file: sha256} of its first run
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def worker(self, out: Path, commands=COMMANDS, threads=None, trace=None,
               rounds=1, min_seconds=0.0, budget=float("inf")) -> dict | None:
        """Run worker.py once; None if it did not finish."""
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(self.config),
               "--out", str(out), "--result", str(result),
               "--threads", str(threads or self.w.threads), "--commands", ",".join(commands),
               "--rounds", str(rounds), "--min-seconds", str(min_seconds),
               "--budget", str(budget)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  env=child_env(), timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0 or not result.exists():
            sys.stderr.write(proc.stderr[-4000:])
            return None
        return json.loads(result.read_text())

    def check(self, label: str, result: dict | None, out: Path, commands=COMMANDS):
        """Count the operations of one worker and record the failed ones."""
        failed = set()
        traces = self.w.starts if "simulate" in commands else 0
        if result is None:
            self.attempted += len(commands) + traces
            self.failures.append(f"{label}: worker did not finish")
            self.failed += len(commands) + traces
            return
        ran = {r["command"] for r in result["runs"]}
        runs = result["runs"] + [{"command": c, "rc": None} for c in commands if c not in ran]
        self.attempted += len(runs) + traces
        first = {}  # command -> index of its first run
        for i, r in enumerate(runs):
            first.setdefault(r["command"], i)
            if r["rc"] != 0:
                failed.add(i)
                self.failures.append(f"{label}: {r['command']} exited {r['rc']}")
        digests = result["digests"]
        for kind, cmd in (("system", "abstract"), ("controller", "synthesize"),
                          ("bounds", "synthesize")):
            if kind in digests and digests[kind] != self.ref["digests"][kind]:
                failed.add(first.get(cmd, cmd))
                self.failures.append(f"{label}: {kind} digest differs from reference.json")
        # every run must leave the bytes the first run of its command left
        for i, r in enumerate(result["runs"]):
            mine = {n: h for n, h in r["files"].items() if producer(n) == r["command"]}
            if mine != self.first_hashes.setdefault(r["command"], mine):
                failed.add(i)
                self.failures.append(f"{label}: {r['command']} run {i} wrote other bytes "
                                     "than its first run")
        if traces:
            rows = {}
            report = out / self.report
            if report.exists():
                with open(report, newline="") as fh:
                    rows = {row["trace"]: row for row in csv.DictReader(fh)}
            for k in range(1, traces + 1):
                row = rows.get(str(k))
                if row is None or row["certified"] != "pass" or row["reason"] != "reached-target":
                    failed.add(f"trace {k}")
                    self.failures.append(f"{label}: trace {k} not certified: {row}")
        self.failed += len(failed)

    def iterate(self, i: int, trace: bool, rounds: int, budget: float) -> dict | None:
        out = self.work / f"out{i}"
        shutil.rmtree(out, ignore_errors=True)
        if trace:
            result = self.worker(out, trace=self.work / "trace.json")
        else:
            result = self.worker(out, rounds=rounds, min_seconds=ROUND_SECONDS, budget=budget)
        self.check("traced run" if trace else "run", result, out)
        shutil.rmtree(out, ignore_errors=True)
        return result

    def setup_times(self, warm_up: bool) -> tuple:
        """CPU and wall seconds of SETUP_PROBES setup probes."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(self.config)]
        cpu, wall = [], []
        for k in range(SETUP_PROBES + warm_up):
            c0, t0 = _children_cpu(), time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  env=child_env(), timeout=60)
            elapsed, used = time.perf_counter() - t0, _children_cpu() - c0
            if proc.returncode != 0:
                raise SetupError("setup probe failed:\n" + proc.stderr[-2000:])
            if k or not warm_up:  # a warm-up probe fills the bytecode and page caches
                cpu.append(used)
                wall.append(elapsed)
        return cpu, wall

    def thread_invariance(self):
        """`abstract` with the other thread count must write the same bytes."""
        out = self.work / "out_threads"
        shutil.rmtree(out, ignore_errors=True)
        other = 2 if self.w.threads == 1 else 1
        result = self.worker(out, commands=("abstract",), threads=other)
        self.attempted += 1
        same = (result is not None and result["runs"][0]["rc"] == 0
                and result["runs"][0]["files"] == self.first_hashes["abstract"])
        if not same:
            self.failed += 1
            self.failures.append(f"abstract --threads {other} output differs from --threads {self.w.threads}")
        shutil.rmtree(out, ignore_errors=True)


def child_env() -> dict:
    """The environment of every process the benchmark starts."""
    return {**os.environ, **BLAS_ENV}


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def pipeline_samples(result: dict) -> dict:
    """Samples per metric: each run of a command; the pipeline sums the commands' medians."""
    m = {}
    for clock, key in (("cpu_s", "cpu_s"), ("s", "wall_s")):
        per = {cmd: [r[clock] for r in result["runs"] if r["command"] == cmd] for cmd in COMMANDS}
        m[f"pipeline_{key}"] = [sum(statistics.median(v) for v in per.values())]
        m.update({f"{cmd}_{key}": v for cmd, v in per.items()})
    m["peak_rss_mb"] = [result["peak_rss_mb"]]
    return m


def high_percentile(values):
    """(label, value): the highest percentile with at least ten samples above it, else the max."""
    n = len(values)
    if n <= 10:
        return "max", max(values)
    q = int(100 * (n - 10) / n)
    return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def print_table(title, samples: dict, units: dict):
    print(title)
    print(f"  {'metric':34s} {'unit':6s} {'median':>12s} {'min':>12s} {'high':>16s} {'n':>3s}")
    for name, values in samples.items():
        label, high = high_percentile(values)
        print(f"  {name:34s} {units.get(name, ''):6s} {statistics.median(values):12.6g} "
              f"{min(values):12.6g} {label + ' ' + format(high, '.6g'):>16s} {len(values):3d}")


def run(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if not (ROOT / "src" / "symtoc" / "cli.py").exists():
        raise SetupError(f"no symtoc sources under {ROOT / 'src'}")
    import conveyor
    import workloads
    conveyor.register()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = workloads.WORKLOADS[args.workload]
    if w.config and not (ROOT / w.config).exists():
        raise SetupError(f"missing {w.config}")
    bench = Bench(w, args.seed, ROOT / ".bench_work" / w.name)
    setup_cpu, setup_wall = bench.setup_times(warm_up=True)

    # a traced run needs the untraced pipeline only for the overhead: one round
    plain = bench.iterate(0, False, 1 if args.trace else MAX_ROUNDS, args.seconds)
    cpu, wall = bench.setup_times(warm_up=False)
    setup_cpu += cpu
    setup_wall += wall
    traced = bench.iterate(1, True, 1, args.seconds) if args.trace else None
    if args.trace and "abstract" in bench.first_hashes:
        bench.thread_invariance()

    size = next((r["size"] for r in (plain, traced) if r and "size" in r), {})
    print(f"workload {w.name}  seed {args.seed}  N={size.get('cells')} M={size.get('inputs')} "
          f"T={size.get('transitions')}")
    e2e = {"setup_s": setup_cpu, "setup_wall_s": setup_wall}
    e2e.update(pipeline_samples(plain) if plain else {})
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({k: "s" for k in e2e if k.endswith("_s")})
    print_table("end to end (untraced; setup_s and *_cpu_s are CPU seconds, *_wall_s wall)",
                e2e, units)
    print(f"  failed_frac = {bench.failed}/{bench.attempted} = "
          f"{bench.failed / max(bench.attempted, 1):.4f}")
    for note in bench.failures[:20]:
        print(f"  FAILED {note}")

    if args.trace:
        layers = {k: [v] for k, v in traced["layers"].items()} if traced else {}
        print("spans (traced): calls, busy = summed wall seconds, self = busy minus child spans")
        for name, (calls, busy, own) in sorted((traced or {}).get("spans", {}).items()):
            print(f"  {name:34s} {calls:8d} {busy:12.6f} {own:12.6f}")
        print("per layer (traced)")
        for name, (value,) in layers.items():
            print(f"  {name:34s} {units.get(name, ''):6s} {value:14.6g}")
        # first runs only: the traced worker runs each command once
        for clock in ("s", "cpu_s") if traced and plain else ():
            on, off = (sum(next(r[clock] for r in res["runs"] if r["command"] == cmd)
                           for cmd in COMMANDS) for res in (traced, plain))
            print(f"  tracing overhead, first run of each command ({clock}): {on:.4f} traced "
                  f"- {off:.4f} untraced = {on - off:+.4f} ({100 * (on - off) / off:+.2f}%)")
        wanted, samples = spec["per_layer"], layers
    else:
        wanted, samples = spec["end_to_end"], e2e
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
               for m in wanted if m["name"] in samples}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if bench.failed == 0 and len(metrics) == len(wanted) else 1


def self_check() -> int:
    """Corrupt a system file, then a bounds file; the checks must count both."""
    sys.path.insert(0, str(ROOT / "src"))
    import conveyor
    import workloads
    conveyor.register()
    bench = Bench(workloads.WORKLOADS["game_chain"], 0, ROOT / ".bench_work" / "self_check")
    out = bench.work / "out"

    def failed_in(commands):
        before = bench.failed
        bench.check("self-check", bench.worker(out, commands=commands), out, commands)
        return bench.failed - before

    clean = failed_in(COMMANDS)
    # one successor of the first transition line moves to the next cell
    sts = next(out.glob("*.sts"))
    lines = sts.read_text().splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.startswith("t "))
    head, _, succ = lines[k].partition(": ")
    lines[k] = f"{head}: {(int(succ.split()[0]) + 1) % bench.ref['cells']}\n"
    sts.write_text("".join(lines))
    bad_system = failed_in(("synthesize", "simulate"))

    clean_again = failed_in(COMMANDS)
    # the first finite upper bound grows by one step
    bounds = next(out.glob("*_bounds.csv"))
    rows = bounds.read_text().splitlines(keepends=True)
    j = next(i for i, row in enumerate(rows) if row[0].isdigit() and "inf" not in row)
    state, lower, upper = rows[j].rstrip("\n").split(",")
    rows[j] = f"{state},{lower},{int(upper) + 1}\n"
    bounds.write_text("".join(rows))
    bad_bounds = failed_in(("simulate",))
    shutil.rmtree(bench.work, ignore_errors=True)

    ok = clean == 0 and clean_again == 0 and bad_system > 0 and bad_bounds > 0
    print(f"self-check: clean run {clean} failed; corrupted system file {bad_system} failed; "
          f"clean rerun {clean_again} failed; corrupted bounds file {bad_bounds} failed "
          f"-> {'ok' if ok else 'corruption NOT detected'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            p.error("--workload is required")
        return run(args)
    except SetupError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
