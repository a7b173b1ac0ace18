"""The one-dimensional `conveyor` model behind the game_chain workload.

x' = g(x) + u on a line of unit cells. The drift g is 0 on the left half and
rises smoothly to 1.2 on the right half, so the left half is a controllable
road and the right half a conveyor that carries every state, whatever the
input, into the unsafe sink at its end. Every input box is about one cell
wide, so most pairs have two or three successors.

The model reaches symtoc through `symtoc.register_model`, the extension point
a user model takes; call `register()` before parsing a config that names it.
"""

import numpy as np

MODEL_ID = "conveyor"
DRIFT = 1.2    # conveyor speed, cells per period; above 1 - (growth radius - 0.5)
RAMP = 10.0    # width of the tanh ramp between road and conveyor, in cells


def conveyor(length: float = 8000.0):
    from symtoc import Model

    mid = 0.5 * length

    def field(x, u):
        return 0.5 * DRIFT * (1.0 + np.tanh((x - mid) / RAMP)) + u

    # |g'| <= DRIFT / (2 RAMP) bounds the Jacobian entrywise
    return Model(name=MODEL_ID, dim=1, input_dim=1, field=field,
                 contraction_matrix=np.array([[0.5 * DRIFT / RAMP]]))


def register():
    from symtoc import register_model
    register_model(MODEL_ID, conveyor)
