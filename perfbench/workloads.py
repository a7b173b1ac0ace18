"""The benchmark's workloads and the seeded inputs each run gives the program.

A workload is a config, the keys it overrides, and a thread count. Each run
writes one config file: the workload's base config with its
`simulate.initial.<k>` lines replaced by start states drawn from the run's
seed. The system the program abstracts is
the same for every seed, so its digests can be checked against
reference.json; the seed moves the closed-loop simulations.
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | None  # shipped config, relative to the checkout; None for CHAIN_CONFIG
    threads: int        # --threads given to `abstract`
    starts: int         # seeded start states appended to the config
    overrides: tuple = ()  # (key, value) pairs that replace the config's lines


# Each command takes well under a second, so a run repeats the pipeline a
# dozen times or more: on a shared VM the least of many short runs is steady,
# the least of two runs of several seconds is not.
WORKLOADS = {w.name: w for w in (
    # N=2601 cells, M=21 inputs, T=394k transitions; linear model, no obstacles;
    # the shipped config on [-7.5, 7.5]^2 instead of [-30, 30]^2
    Workload("di_pipeline", "configs/double_integrator.cfg", threads=1, starts=200,
             overrides=(("grid.domain_lower", "[-7.5, -7.5]"),
                        ("grid.domain_upper", "[7.5, 7.5]"))),
    # N=18304, M=6, T=385k; nonlinear RK4, periodic heading, three obstacles;
    # the shipped config with input step 0.5 instead of 0.1
    Workload("unicycle_pipeline", "configs/unicycle.cfg", threads=2, starts=20,
             overrides=(("grid.mu", "0.5"),)),
    # N=3001, M=4, T=30k; about 1500 safety sweeps and 1400 pessimistic levels
    Workload("game_chain", None, threads=1, starts=2),
)}

CHAIN_CONFIG = """\
# game_chain: the `conveyor` model (perfbench/conveyor.py) on a line of 3001
# unit cells. Cells left of 1500 form a road that reaches the target box in
# up to 1400 worst-case steps; right of it a conveyor drags every state into
# the unsafe sink at the right end, so the safety game peels the conveyor off
# one cell per sweep.
model.id = conveyor
model.param.length = 3000

grid.tau = 1
grid.eta = 1
grid.mu = 1
grid.domain_lower = [0]
grid.domain_upper = [3000]
grid.input_lower = [-1]
grid.input_upper = [2]

target.shape = box
target.lower = [1380]
target.upper = [1400]

obstacle.1.lower = [2990]
obstacle.1.upper = [3000]

simulate.max_steps = 2000
"""


def base_config(root: Path, workload: Workload) -> str:
    """The workload's config with its overrides and without simulate.initial lines."""
    text = (root / workload.config).read_text() if workload.config else CHAIN_CONFIG
    overrides = dict(workload.overrides)
    lines = []
    for line in text.splitlines(keepends=True):
        key = line.split("=", 1)[0].strip()
        if key.startswith("simulate.initial."):
            continue
        lines.append(f"{key} = {overrides.pop(key)}\n" if key in overrides else line)
    if overrides:
        raise KeyError(f"{workload.name}: overridden keys not in its config: {sorted(overrides)}")
    return "".join(lines)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"]


def encode_mask(mask: np.ndarray) -> str:
    return base64.b64encode(zlib.compress(np.packbits(mask).tobytes(), 9)).decode()


def decode_mask(text: str, size: int) -> np.ndarray:
    packed = np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype=np.uint8)
    return np.unpackbits(packed, count=size).astype(bool)


def sample_starts(grid, winning: np.ndarray, count: int, seed: int) -> np.ndarray:
    """`count` states drawn uniformly inside winning cells, stratified by cell index.

    The winning cells, in index order, are cut into `count` equal slices and
    one cell is drawn from each. Slices pair up from both ends and a pair's
    draws mirror each other (u and 1 - u), so where the work of a trace grows
    with its cell index the total work is almost the same for every seed.
    """
    from symtoc import Quantizer

    rng = np.random.default_rng(seed)
    cells = np.flatnonzero(winning)
    if cells.size < count:
        raise ValueError(f"{count} starts requested from {cells.size} winning cells")
    edges = np.linspace(0, cells.size, count + 1).astype(np.int64)
    u = rng.random((2, count))
    half = count // 2
    u[:, count - half:] = 1.0 - u[:, :half][:, ::-1]
    picks = cells[edges[:-1] + (u[0] * (edges[1:] - edges[:-1])).astype(np.int64)]
    lo, hi = Quantizer(grid).cell_bounds(picks)
    periodic = np.array(grid.periodic)
    lo = np.where(periodic, lo, np.maximum(lo, grid.domain_lower))
    hi = np.where(periodic, hi, np.minimum(hi, grid.domain_upper))
    x = lo + u[1][:, None] * (hi - lo)
    period = grid.domain_upper - grid.domain_lower
    return np.where(periodic, grid.domain_lower + np.mod(x - grid.domain_lower, period), x)


def write_inputs(root: Path, workload: Workload, seed: int, path: Path) -> Path:
    """Write the run's config (base config plus seeded starts) to `path`."""
    from symtoc.config import parse_config_text

    text = base_config(root, workload)
    grid = parse_config_text(text).grid
    ref = load_reference()[workload.name]
    winning = decode_mask(ref["winning"], ref["cells"])
    starts = sample_starts(grid, winning, workload.starts, seed)
    lines = [f"simulate.initial.{k} = [{', '.join(repr(float(v)) for v in x)}]\n"
             for k, x in enumerate(starts, start=1)]
    path.write_text(text.rstrip("\n") + "\n\n# seeded start states\n" + "".join(lines))
    return path
