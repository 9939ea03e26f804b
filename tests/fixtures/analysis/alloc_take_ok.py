"""Fixture: unbuffered np.take(out=) gathers and cold-path takes."""

import numpy as np


def steady_state(fn):
    return fn


@steady_state
def hot_gather(state, values, idx, mode):
    np.take(values, idx, out=state.clipped, mode="clip")
    np.take(values, idx, out=state.wrapped, mode="wrap")
    # A computed mode cannot be judged statically; it is not flagged.
    np.take(values, idx, out=state.dynamic, mode=mode)
    return state


def cold_gather(values, idx, out):
    # Not steady-state: the buffered default mode is fine here.
    np.take(values, idx, out=out)
    return out
