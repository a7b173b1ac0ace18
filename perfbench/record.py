"""Re-record perfbench/reference.json from the code in this checkout.

    python3 perfbench/record.py

For each workload this runs `abstract` and `synthesize` once on the base
config, with the other thread count than the benchmark uses, so every
benchmark run also checks that the thread count does not change the output.
It stores N, M, T, the format-independent digests of the parsed-back system,
controller and bounds table, and the winning cells the seeded start states
are drawn from. Record only from code whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def record(w: workloads.Workload) -> dict:
    from symtoc import formats
    from symtoc.config import parse_config

    out = ROOT / ".bench_work" / "record" / w.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg_path = out / "config.cfg"
    cfg_path.write_text(workloads.base_config(ROOT, w))
    threads = 2 if w.threads == 1 else 1
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--config", str(cfg_path),
                    "--out", str(out), "--result", str(out / "result.json"),
                    "--threads", str(threads), "--commands", "abstract,synthesize"],
                   env=run.child_env(), check=True)
    result = json.loads((out / "result.json").read_text())
    if any(r["rc"] != 0 for r in result["runs"]):
        raise SystemExit(f"{w.name}: a command failed: {result['runs']}")
    cfg = parse_config(cfg_path)
    controller, _ = formats.parse_controller(out / cfg.output_path("controller"))
    bounds = formats.parse_bounds(out / cfg.output_path("bounds"))
    winning = controller.levels <= controller.num_states
    shutil.rmtree(out)
    return {
        **result["size"],
        "recorded_threads": threads,
        "digests": {"system": result["digests"]["system"],
                    "controller": worker.controller_digest(controller),
                    "bounds": worker.digest(*bounds)},
        "winning_cells": int(winning.sum()),
        "winning": workloads.encode_mask(winning),
    }


def main() -> int:
    import conveyor
    conveyor.register()
    refs = {}
    for w in workloads.WORKLOADS.values():
        refs[w.name] = record(w)
        print(f"{w.name}: N={refs[w.name]['cells']} M={refs[w.name]['inputs']} "
              f"T={refs[w.name]['transitions']} winning={refs[w.name]['winning_cells']}")
    with open(workloads.REFERENCE, "w") as fh:
        json.dump({"workloads": refs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
