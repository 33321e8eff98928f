"""Rooted finite metric spaces and shortest-path metric closure.

Distances of graph metrics are exact integers, found for all sources at once
by a BFS over the graph's distinct-neighbour slots; general metrics (random
test instances, metric files) use floats with a fixed comparison tolerance.

The dense n x n table is built only for readers of every pair: the exact
oracles, FRT and file graphs. An LPS graph's distances are otherwise read
from ``expanders.CayleyMetric`` in O(n) memory. The lower-bound pipelines
read distances only through ``gather(u, v)``, which both metrics serve.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .graphs import Graph, GraphError, neighbor_slots

#: Comparison tolerance for float-valued metrics.
FLOAT_TOL = 1e-9


class MetricError(ValueError):
    pass


class Metric(Protocol):
    """What the lower-bound pipelines read of a metric: ``MetricSpace`` or
    ``expanders.CayleyMetric``."""

    n: int
    root: int

    def gather(self, u: np.ndarray, v: np.ndarray) -> np.ndarray: ...

    def d(self, u: int, v: int) -> float: ...


@dataclass(frozen=True)
class MetricSpace:
    n: int
    dist: np.ndarray
    root: int

    def __post_init__(self) -> None:
        if self.dist.shape != (self.n, self.n):
            raise MetricError(f"distance table shape {self.dist.shape} != ({self.n}, {self.n})")
        if not (0 <= self.root < self.n):
            raise MetricError(f"root {self.root} out of range")
        self.dist.setflags(write=False)

    def gather(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """d(u, v) for the broadcast index arrays ``u`` and ``v``."""
        return self.dist[u, v]

    def d(self, u: int, v: int) -> float:
        return float(self.dist[u, v])

    @property
    def is_integral(self) -> bool:
        return np.issubdtype(self.dist.dtype, np.integer)


@dataclass(frozen=True)
class MetricViolation:
    kind: str  # "self" | "symmetry" | "negative" | "nonpositive" (zero) | "triangle"
    triple: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind} violation at {self.triple}"


def shortest_path_metric(g: Graph, root: int) -> MetricSpace:
    """Metric closure of a connected unit-cost graph, rooted at ``root``:
    exact integer distances via levelwise BFS over the whole vertex set at
    once.

    Raises GraphError naming an unreachable pair if ``g`` is disconnected.
    """
    if g.n == 0:
        raise MetricError("empty graph has no metric")
    dist = _unit_all_pairs(g)
    bad = np.argwhere(dist < 0)
    if bad.size:
        u, v = int(bad[0][0]), int(bad[0][1])
        raise GraphError(f"graph is disconnected: no path between {u} and {v}")
    return MetricSpace(n=g.n, dist=dist, root=root)


def _unit_all_pairs(g: Graph) -> np.ndarray:
    """All BFS levels at once: column s of ``frontier`` is source s's
    frontier, and a vertex joins the next one if any of its neighbour slots
    holds a frontier vertex (an OR, so no count can wrap at 256; padding
    reads the empty row n). A pair at distance k is still unreached when
    each of levels 1..k starts, so adding ``unreached`` at the start of
    every level counts out its distance; pairs never reached get -1."""
    n = g.n
    cols, _ = neighbor_slots(g)
    dist = np.zeros((n, n), dtype=np.int32)
    frontier = np.zeros((n + 1, n), dtype=bool)
    np.fill_diagonal(frontier, True)
    unreached = ~frontier[:n]
    reached = np.empty((n, n), dtype=bool)
    while True:
        dist += unreached
        reached.fill(False)
        for slot in cols:
            reached |= frontier[slot]
        reached &= unreached
        if not reached.any():
            break
        unreached ^= reached
        frontier[:n] = reached
    dist[unreached] = -1
    return dist


def validate_metric(m: MetricSpace) -> MetricViolation | None:
    """First violated axiom, or None for a valid metric.

    Violations are a return value, not an error: callers probe candidate
    tables with this.
    """
    d = m.dist.astype(np.float64, copy=False)
    tol = 0.0 if m.is_integral else FLOAT_TOL
    diag = np.diagonal(d)
    bad = np.nonzero(np.abs(diag) > tol)[0]
    if bad.size:
        return MetricViolation("self", (int(bad[0]),))
    asym = np.argwhere(np.abs(d - d.T) > tol)
    if asym.size:
        u, v = map(int, asym[0])
        return MetricViolation("symmetry", (u, v))
    off = d.copy()
    np.fill_diagonal(off, np.inf)
    bad = np.argwhere(off <= tol)
    if bad.size:
        u, v = map(int, bad[0])
        return MetricViolation("negative" if d[u, v] < 0 else "nonpositive", (u, v))
    slack = np.empty_like(d)
    viol = np.empty(d.shape, dtype=bool)
    for w in range(m.n):
        np.add(d[:, w, None], d[None, w, :], out=slack)
        np.subtract(d, slack, out=slack)
        np.greater(slack, tol, out=viol)
        if not viol.any():
            continue
        for u, v in np.argwhere(viol):
            if u != w and v != w and u != v:
                return MetricViolation("triangle", (int(u), int(w), int(v)))
    return None


def write_metric(m: MetricSpace, path: str | Path) -> None:
    """Text format: first line ``n root``, then n rows of n numbers."""
    lines = [f"{m.n} {m.root}"]
    for row in m.dist:
        if m.is_integral:
            lines.append(" ".join(str(int(x)) for x in row))
        else:
            lines.append(" ".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_metric(path: str | Path) -> MetricSpace:
    text = Path(path).read_text().split("\n")
    try:
        n, root = map(int, text[0].split())
    except ValueError:
        raise MetricError(f"{path}: the first line must be 'n root', two integers") from None
    values = " ".join(text[1:]).split()
    if len(values) != n * n:
        raise MetricError(f"{path}: expected {n * n} entries, found {len(values)}")
    integral = all("." not in v and "e" not in v and "inf" not in v for v in values)
    dtype = np.int64 if integral else np.float64
    m = MetricSpace(n=n, dist=np.array(values, dtype=dtype).reshape(n, n), root=root)
    violation = validate_metric(m)
    if violation is not None:
        raise MetricError(f"{path}: not a metric: {violation}")
    return m


def random_euclidean_metric(n: int, rng: np.random.Generator, root: int = 0) -> MetricSpace:
    """Pairwise distances of n uniform points in the unit square."""
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    return MetricSpace(n=n, dist=dist, root=root)


def random_uniform_metric(n: int, rng: np.random.Generator, root: int = 0) -> MetricSpace:
    """Random metric: uniform [1,2) off-diagonal entries (triangle-safe by range)."""
    a = rng.uniform(1.0, 2.0, size=(n, n))
    dist = np.triu(a, 1)
    dist = dist + dist.T
    return MetricSpace(n=n, dist=dist, root=root)
