"""Machine-speed references: fixed work timed next to the program's.

The machine's CPU runs in slow and fast phases that last from seconds to
minutes and differ in speed by up to a factor of two (see README.md), so
raw times from runs a few minutes apart differ by far more than any
regression bound with the program unchanged.  A ``Reference`` is fixed
work that calls nothing in the program and that a phase slows by the same
factor as the operations it is timed next to.  A ``Pacer`` runs a
workload's reference between operations, outside their timing, at most
every ``EVERY_S`` seconds; ``calibrated`` rescales each operation's time
to the speed at which the reference takes its nominal time.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import minimize

pc = time.perf_counter

EVERY_S = 0.2        # at most one reference per this much timed work
HALF_WINDOW = 3      # references on each side of an operation that scale it

_RNG = np.random.default_rng(0)
_FLOATS = [float(x) for x in _RNG.standard_normal(300)]
_MATS = _RNG.standard_normal((32, 3, 3))
_VECS = _RNG.standard_normal((32, 3))
_BATCH = _RNG.standard_normal((1000, 3, 3))
_INTS = _RNG.integers(0, 20_000, 4000)
_A = _RNG.standard_normal((6, 6))
_A = _A @ _A.T + 6.0 * np.eye(6)
_B = _RNG.standard_normal(6)


def formatted_lines():
    """Float formatting and dict updates, as the syncsim writers do."""
    table = {}
    for i, x in enumerate(_FLOATS):
        table["%.17g %d" % (x, i)] = i
    return "\n".join(table) + "\n"


def small_products():
    """3x3 products on single vectors, as the chain walks do."""
    acc = 0
    for m, v in zip(_MATS, _VECS):
        acc += int(np.cross(m @ v, v)[0] > 0.0) + int(np.linalg.norm(m @ m) > 3.0)
    return acc


def _objective(x):
    y = _A @ x - _B
    value = sum(float(np.dot(y[k:k + 1], y[k:k + 1])) + float(np.sin(x[k]) ** 2)
                for k in range(6))
    return value, 2.0 * _A.T @ y + np.sin(2.0 * x)


def small_solve():
    """A bounded 6-variable SLSQP solve with a Python objective."""
    return minimize(_objective, np.zeros(6), jac=True, method="SLSQP",
                    bounds=[(-1.0, 1.0)] * 6, options={"ftol": 1e-12, "maxiter": 30}).nit


def batch_sets():
    """Batched 3x3 products, integer packing, unique and intersect, as
    the workspace sampler does."""
    pts = np.einsum("nij,nj->ni", _BATCH, _BATCH[:, 0])
    keys = np.floor(pts * 8.0).astype(np.int64) @ np.array([1 << 20, 1 << 10, 1])
    return np.intersect1d(np.unique(keys), np.unique(_INTS)).size


class Reference:
    """Fixed pieces of work and their median time on the reference machine
    (README.md)."""

    def __init__(self, nominal_s, *pieces):
        self.nominal_s = nominal_s
        self.pieces = pieces

    def __call__(self):
        for piece in self.pieces:
            piece()

    def median(self, n):
        """Median seconds of ``n`` back-to-back runs."""
        samples = []
        for _ in range(n):
            t0 = pc()
            self()
            samples.append(pc() - t0)
        return float(np.median(samples))


def interpreter_reference(work):
    """Formatted lines written to a file under ``work``, and 3x3 products:
    slowed by a phase as much as retargeting frames and syncsim runs."""

    def write_lines():
        with open(work / "reference.txt", "w", encoding="utf-8") as fh:
            for _ in range(8):
                fh.write(formatted_lines())

    return Reference(0.0060, write_lines, small_products)


# One piece of each kind: slowed by a phase as much as the workspace
# operations and as the set-up, which is mostly imports.
MIXED = Reference(0.0070, formatted_lines, small_products, batch_sets, small_solve)


class Pacer:
    """Runs a reference between operations when it is due.

    Workloads call the pacer at every operation boundary and read
    ``count`` right after, as the number of references taken before the
    operation starts.  Without a reference every call is a no-op (traced
    runs, self-tests).
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.samples = []
        self._last = -float("inf")

    @property
    def count(self):
        return len(self.samples)

    def __call__(self, force=False):
        if self.reference is None:
            return
        t0 = pc()
        if force or t0 - self._last >= EVERY_S:
            self.reference()
            self._last = pc()
            self.samples.append(self._last - t0)


def calibrated(times, marks, samples, nominal_s):
    """Operation times rescaled to the reference's nominal speed.

    ``marks[k]`` is the number of references taken before operation k
    began.  Each time is multiplied by ``nominal_s`` over the median of
    the ``HALF_WINDOW`` references before and after the operation.
    """
    ref = np.asarray(samples, float)
    out = np.empty(len(times))
    for k, (t, m) in enumerate(zip(times, marks)):
        out[k] = t * nominal_s / float(np.median(ref[max(m - HALF_WINDOW, 0):m + HALF_WINDOW]))
    return out
