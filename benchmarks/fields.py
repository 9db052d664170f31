"""Seeded manufactured solutions: a cutoff-bump family like the paper's.

Each seed draws a bump centre, a rotation strength and the coefficients of
linear polynomials that multiply the bump.  The bump is 1 within radius
r_in of its centre and 0 beyond r_out, and r_out never reaches the
boundary, so every velocity field vanishes there.  The fields are smooth
apart from the two kink circles, like the paper's reference field
(`stokesmg.bench.exact_velocity`), which is the member with centre
(1/2, 1/2), radii 1/4 and 1/2, rotation 1 and no polynomial terms.
"""

from __future__ import annotations

import numpy as np


class BumpField:
    """Velocity and pressure callables for one seed."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.cx, self.cy = 0.5 + rng.uniform(-0.1, 0.1, size=2)
        self.r_out = min(self.cx, 1.0 - self.cx, self.cy, 1.0 - self.cy)
        self.r_in = 0.5 * self.r_out
        self.rotation = rng.uniform(0.5, 1.5)
        # coefficients of a0 + a1 (x - cx) + a2 (y - cy)
        self.ux = rng.uniform(-1.0, 1.0, size=3)
        self.uy = rng.uniform(-1.0, 1.0, size=3)
        self.p = np.concatenate([[1.0], rng.uniform(-1.0, 1.0, size=2)])

    def bump(self, x, y):
        r = np.hypot(x - self.cx, y - self.cy)
        return np.clip((self.r_out - r) / (self.r_out - self.r_in), 0.0, 1.0)

    def velocity(self, x, y):
        phi = self.bump(x, y)
        X, Y = x - self.cx, y - self.cy
        a, b = self.ux, self.uy
        return (
            phi * (self.rotation * Y + a[0] + a[1] * X + a[2] * Y),
            phi * (-self.rotation * X + b[0] + b[1] * X + b[2] * Y),
        )

    def pressure(self, x, y):
        X, Y = x - self.cx, y - self.cy
        c = self.p
        return self.bump(x, y) * (c[0] + c[1] * X + c[2] * Y)
