"""Refinement of symbolic controllers to the sampled state space and
certified closed-loop simulation.

The refined controller applies, at a concrete state, the first (lowest)
input enabled at the cell containing that state. Every enabled input leads
one level closer to the target, so runs are deterministic and the cell value
strictly decreases until the target is entered. `applied_inputs` makes that
choice once per cell, for simulation and plot export alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abstraction import OutOfDomainError, Quantizer, TargetSpec
from .dynamics import Model, SampledFlow, integrate
from .synthesis import SymbolicController

TARGET = -1   # applied_inputs sentinel: target cell, no move needed
OUTSIDE = -2  # applied_inputs sentinel: cell outside the winning set


class OutOfWinningSetError(ValueError):
    """The current cell carries no control decision."""


def applied_inputs(controller: SymbolicController) -> np.ndarray:
    """Per cell, the first enabled input; TARGET or OUTSIDE where there is none."""
    levels, offsets = controller.levels, controller.offsets
    table = np.where(levels == 1, TARGET, OUTSIDE)
    moving = (np.diff(offsets) > 0) & (levels > 1) & (levels <= controller.num_states)
    table[moving] = controller.enabled_inputs_flat[offsets[:-1][moving]]
    return table


class RefinedController:
    """Symbolic controller lifted to concrete states through the quantizer,
    with its per-cell table: `inputs` from `applied_inputs` and cell `values`."""

    def __init__(self, controller: SymbolicController, quantizer: Quantizer):
        if controller.num_states != quantizer.num_cells:
            raise ValueError("controller and quantizer disagree on the cell count")
        self.controller = controller
        self.quantizer = quantizer
        self.inputs = applied_inputs(controller)
        self.values = controller.values()
        self._input_values = quantizer.grid.input_values()

    def cell_of(self, x) -> int:
        return int(self.quantizer.quantize(np.asarray(x, dtype=float)))

    def select_input_index(self, cell: int) -> int | None:
        """Input index applied at a cell; None when the cell is a target cell."""
        u = int(self.inputs[cell])
        if u == OUTSIDE:
            raise OutOfWinningSetError(f"cell {cell} is outside the winning set")
        return None if u == TARGET else u

    def control_input(self, x) -> np.ndarray | None:
        """Grid input to apply at concrete state x; None signals target reached."""
        u = self.select_input_index(self.cell_of(x))
        return None if u is None else self._input_values[u].copy()


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
    final_state: np.ndarray = field(default=None)


def simulate(model: Model, flow: SampledFlow, rc: RefinedController,
             x0, W: TargetSpec, max_steps: int,
             lower: np.ndarray | None = None) -> Trace:
    """Run the refined controller from x0 until the concrete state enters W.

    Each step applies the selected grid input and integrates one period.
    The trace records, per executed step, the state, applied input, cell and
    cell value. Leaving the winning set aborts the run (it would indicate an
    unsound abstraction); the loop also stops at max_steps. `lower` holds
    per-cell lower-bound entry times (`EntryTimeTable.entry_times()`).
    """
    grid = rc.quantizer.grid
    x = np.asarray(x0, dtype=float).copy()
    steps = []
    values = rc.values
    try:
        cell0 = rc.cell_of(x)
    except OutOfDomainError:
        cell0 = None
    lower_bound = 0.0
    if lower is not None and cell0 is not None:
        lower_bound = float(lower[cell0])
    upper_bound = float(values[cell0]) if cell0 is not None else np.inf
    reason = "step-limit"
    achieved = None
    k = 0
    while k <= max_steps:
        if W.contains(x, grid):
            reason = "reached-target"
            achieved = k
            break
        if k == max_steps:
            break
        try:
            cell = rc.cell_of(x)
            uidx = rc.select_input_index(cell)
        except (OutOfDomainError, OutOfWinningSetError):
            reason = "left-winning-set"
            break
        if uidx is None:
            # target cell but concrete point outside W cannot happen when the
            # upper game used the inner cell cover of W; stop defensively
            reason = "left-winning-set"
            break
        u = rc._input_values[uidx]
        steps.append(TraceStep(k=k, state=x.copy(), input_index=uidx,
                               input=u.copy(), cell=cell, value=int(values[cell])))
        x = integrate(model, flow, x, u)
        k += 1
    certified = (reason == "reached-target"
                 and lower_bound <= achieved <= upper_bound)
    return Trace(steps=steps, reason=reason, achieved=achieved,
                 initial_cell=cell0, lower_bound=lower_bound,
                 upper_bound=upper_bound, certified=certified, final_state=x)
