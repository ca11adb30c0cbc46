"""cos(2 pi m x) and sin(2 pi m x) from the rounded argument 2 pi m x.

This is the mode sum's trigonometry before particles._cos_sin reduced the
argument by quarter turns: one product fl(2 pi m x), then libm's cos and sin
on [0, 2 pi m).  That product carries up to ~m 4e-16 absolute error, which
the quarter-turn reduction avoids, so the two differ by about that much.
With the same signature as _cos_sin it can be swapped in for it, which
reproduces the earlier stepper and rate worker bit for bit and measures how
far the reduction moves their results.
"""
import numpy as np


def plain_cos_sin(m, x, cos, sin, work):
    """cos(2 pi m x) and sin(2 pi m x) into cos and sin; work[0] is scratch."""
    arg = np.multiply(x, 2 * np.pi * m, out=work[0])
    np.cos(arg, out=cos)
    np.sin(arg, out=sin)
