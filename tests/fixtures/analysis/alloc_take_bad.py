"""Fixture: @steady_state function with buffered np.take(out=) gathers."""

import numpy as np


def steady_state(fn):
    return fn


@steady_state
def hot_gather(state, values, idx):
    np.take(values, idx, out=state.default_mode)
    np.take(values, idx, out=state.raise_mode, mode="raise")
    return state
