"""symtoc: certified approximately time-optimal controllers from grid abstractions.

Pipeline: quantize a sampled control system into a finite abstraction whose
transitions over-approximate the one-period reachable sets, solve the
reachability game backwards to get per-cell entry-time levels (pessimistic
for a guaranteed upper bound, optimistic for a lower bound), extract the
nondeterministic time-optimal controller, and refine it to the concrete
state space where simulations certify that the achieved entry time lies
inside the computed bracket. Safety constraints compose by first solving
the least restrictive safety game.
"""

from .abstraction import (GridSpec, OutOfDomainError, Quantizer, TargetBox,
                          TargetSpec, build_abstraction, target_over, target_under)
from .dynamics import (DivergenceError, Model, SampledFlow, double_integrator,
                       growth_radius, input_deviation_radius, integrate, make_model,
                       one_period, reach_radius, register_model, unicycle)
from .fts import FiniteSystem, StateSet
from .refine import RefinedController, Trace, TraceStep, simulate
from .synthesis import (EntryTimeTable, IntegrityError, SafetyController,
                        SymbolicController, extract_controller, reach_step,
                        solve_optimistic, solve_pessimistic, solve_safety,
                        synthesize)

__version__ = "0.1.0"
