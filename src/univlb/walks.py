"""Random walks on graphs and Monte Carlo validation of the expander-walk
confinement bound.

A t-step walk starts at a uniform vertex and moves to a uniform neighbor at
each step. Traces are reproducible bit-exactly from (graph, generator state).

``walk_confinement_stats`` estimates Pr[walk stays inside B] and compares it
with the classical spectral bound (alpha + beta)^t, alpha = |B| / n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph


@dataclass(frozen=True)
class WalkTrace:
    vertices: tuple[int, ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The steps (v_i, v_{i+1}) in walk order."""
        return tuple(zip(self.vertices, self.vertices[1:]))

    @property
    def steps(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        """The distinct vertices, built once per walk."""
        return frozenset(self.vertices)


def random_walk(g: Graph, t: int, rng: np.random.Generator) -> WalkTrace:
    """Uniform-start t-step random walk; each step is a uniform neighbor."""
    if t < 0:
        raise ValueError("walk length must be nonnegative")
    start = int(rng.integers(g.n))
    verts = [start]
    table = g.neighbor_table
    if table is not None and t > 0:
        d = table.shape[1]
        flat = memoryview(table).cast("B").cast("q")  # flat[v * d + c] = table[v, c]
        v = start
        for c in rng.integers(0, d, size=t).tolist():
            v = flat[v * d + c]
            verts.append(v)
    else:
        indptr, indices = g.neighbors
        v = start
        for _ in range(t):
            deg = indptr[v + 1] - indptr[v]
            if deg == 0:
                raise ValueError(f"walk stuck at isolated vertex {v}")
            v = int(indices[indptr[v] + rng.integers(deg)])
            verts.append(v)
    return WalkTrace(vertices=tuple(verts))


@dataclass(frozen=True)
class WalkBoundReport:
    frequency: float
    bound: float
    trials: int
    stderr: float

    def within(self, sigmas: float = 3.0) -> bool:
        return self.frequency <= self.bound + sigmas * self.stderr


def _binomial_stderr(freq: float, trials: int) -> float:
    if trials == 0:
        return 0.0
    return float(np.sqrt(max(freq * (1.0 - freq), 0.0) / trials))


def walk_confinement_stats(
    g: Graph,
    subset: np.ndarray,
    t: int,
    beta: float,
    trials: int,
    rngs: list[np.random.Generator],
) -> WalkBoundReport:
    """Monte Carlo Pr[all t+1 walk positions lie in ``subset``] with its bound.

    ``rngs`` supplies one independent stream per trial.
    """
    mask = np.zeros(g.n, dtype=bool)
    mask[subset] = True
    if not mask.any():
        raise ValueError("subset must be nonempty")
    if len(rngs) < trials:
        raise ValueError("need one rng stream per trial")
    alpha = float(mask.sum()) / g.n
    hits = sum(bool(mask[list(random_walk(g, t, rngs[i]).vertices)].all())
               for i in range(trials))
    freq = hits / trials if trials else 0.0
    bound = (alpha + beta) ** t
    return WalkBoundReport(frequency=freq, bound=bound, trials=trials,
                           stderr=_binomial_stderr(freq, trials))
