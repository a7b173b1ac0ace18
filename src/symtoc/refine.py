"""Refinement of symbolic controllers to the sampled state space and
certified closed-loop simulation.

The refined controller is one table over the cells (`applied_inputs`): the
first (lowest) input enabled at a cell, or TARGET or OUTSIDE where there is
none, applied at every concrete state of the cell. Every enabled input
leads one level closer to the target, so runs are deterministic and the
cell value strictly decreases until the target is entered. A run stops at
the first state without an input: a negative entry, or a state off the grid
or non-finite (`Quantizer.cell_index` gives -1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abstraction import Quantizer, TargetSpec
from .dynamics import Model, SampledFlow, integrate
from .synthesis import SymbolicController

TARGET = -1   # applied_inputs sentinel: target cell, no move needed
OUTSIDE = -2  # applied_inputs sentinel: cell outside the winning set


def applied_inputs(controller: SymbolicController) -> np.ndarray:
    """Per cell, the first enabled input; TARGET or OUTSIDE where there is none."""
    levels, offsets = controller.levels, controller.offsets
    table = np.where(levels == 1, TARGET, OUTSIDE)
    moving = (np.diff(offsets) > 0) & (levels > 1) & (levels <= controller.num_states)
    table[moving] = controller.enabled_inputs_flat[offsets[:-1][moving]]
    return table


class RefinedController:
    """Symbolic controller lifted to concrete states through the quantizer:
    per cell the applied input index `inputs` (from `applied_inputs`) and the
    value `values`; `input_values` holds the grid inputs by index."""

    def __init__(self, controller: SymbolicController, quantizer: Quantizer):
        if controller.num_states != quantizer.num_cells:
            raise ValueError("controller and quantizer disagree on the cell count")
        self.quantizer = quantizer
        self.inputs = applied_inputs(controller)
        self.values = controller.values()
        self.input_values = quantizer.grid.input_values()


@dataclass
class TraceStep:
    k: int
    state: np.ndarray
    input_index: int
    input: np.ndarray
    cell: int
    value: int


@dataclass
class Trace:
    """Closed-loop run with its certification bracket.

    reason is one of "reached-target", "left-winning-set", "step-limit";
    achieved is the step count at target entry (None otherwise). The
    certificate records lower <= achieved <= upper for the initial cell.
    """
    steps: list
    reason: str
    achieved: int | None
    initial_cell: int | None
    lower_bound: float
    upper_bound: float
    certified: bool


def simulate(model: Model, flow: SampledFlow, rc: RefinedController,
             x0, W: TargetSpec, max_steps: int,
             lower: np.ndarray | None = None) -> Trace:
    """Run the refined controller from x0 until the concrete state enters W.

    Each step applies the table's input at the state's cell and integrates
    one period, recording state, input, cell and cell value. The run ends as
    "left-winning-set" at a state with a negative entry (it would indicate
    an unsound abstraction), or at max_steps. `lower` holds per-cell
    lower-bound entry times (`EntryTimeTable.entry_times()`).

    A TARGET entry is never read for a controller solved on the inner cover
    of W: a state lies in its cell's closed box, which lies in W (up to the
    cover's 1e-9*eta tolerance), so the W test has already ended the run.
    """
    grid = rc.quantizer.grid
    x = np.asarray(x0, dtype=float).copy()
    cell = rc.quantizer.cell_index(x)
    initial_cell = cell if cell >= 0 else None
    lower_bound = float(lower[cell]) if lower is not None and cell >= 0 else 0.0
    upper_bound = float(rc.values[cell]) if cell >= 0 else np.inf
    steps = []
    reason, achieved = "step-limit", None
    while not W.contains(x, grid):
        if len(steps) >= max_steps:
            break
        u = int(rc.inputs[cell]) if cell >= 0 else OUTSIDE
        if u < 0:
            reason = "left-winning-set"
            break
        steps.append(TraceStep(k=len(steps), state=x.copy(), input_index=u,
                               input=rc.input_values[u].copy(), cell=cell,
                               value=int(rc.values[cell])))
        x = integrate(model, flow, x, rc.input_values[u])
        cell = rc.quantizer.cell_index(x)
    else:
        reason, achieved = "reached-target", len(steps)
    certified = (reason == "reached-target"
                 and lower_bound <= achieved <= upper_bound)
    return Trace(steps=steps, reason=reason, achieved=achieved,
                 initial_cell=initial_cell, lower_bound=lower_bound,
                 upper_bound=upper_bound, certified=certified)
