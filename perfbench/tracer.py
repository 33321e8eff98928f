"""Span tracing from outside the program, by rebinding public names.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``univlb`` module namespace that holds it, so calls between modules
(``experiments`` -> ``adversary``, ``expanders`` -> ``graphs``) pass through
the wrapper. Spans nest on a stack; a span's self time is its duration
minus the time its child spans cover. Spans are aggregated in memory per
name and per (parent, child) edge and handed out by ``summary`` at the end.
``restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

#: Traced functions, as ``<module>.<name>`` under ``univlb``.
TRACED = (
    "expanders.lps_graph", "expanders.second_eigenvalue",
    "graphs.girth", "graphs.bipartition", "graphs.is_connected", "graphs.diameter_ecc",
    "metric.shortest_path_metric",
    "walks.random_walk",
    "adversary.is_good_walk", "adversary.steiner_certificate",
    "adversary.check_separation", "adversary.block_alternation",
    "adversary.tsp_certificate",
    "solutions.bfs_tree", "solutions.tree_to_path_collection",
    "solutions.project_paths", "solutions.project_tour", "solutions.project_tree",
    "solutions.tree_to_tour", "solutions.restricted_dfs_order",
    "oracles.steiner_exact", "oracles.opt_surrogates",
    "frt.frt_sample", "frt.hst_dominates", "frt.hst_to_spanning_tree",
    "frt.stretch_stats",
    "privacy.exponential_mechanism", "privacy.dp_audit", "privacy.transfer_check",
    "privacy.transfer_lower_bound", "privacy.all_subsets",
    "rng.stream",
    "experiments.load_instance", "experiments.suite_mechanism",
    "experiments.run_steiner_lb", "experiments.run_tsp_lb",
    "experiments.run_universal_upper", "experiments.run_dp_transfer",
    "experiments.ExperimentReport.write",
)


def _dense_bytes(args, kwargs, result) -> list[tuple[str, float]]:
    return [("metric.dense_bytes", float(result.dist.nbytes))]


def _tour_positions(args, kwargs, result) -> list[tuple[str, float]]:
    return [("adversary.tour_positions_scanned", float(len(args[0].order)))]


def _dw_work(args, kwargs, result) -> list[tuple[str, float]]:
    """Dreyfus-Wagner table cells and min-plus operations of one call.

    With b = |X + root| - 1 base terminals the table has 2^b rows of n; each
    of the 2^b - 1 subsets pays an n x n extension, and the subset splits
    add n * (3^b - 2^(b+1) + 1) / 2 merge operations.
    """
    m, xs = args[0], args[1]
    b = len(set(xs) | {m.root}) - 1
    if b < 1:
        return [("oracles.steiner_exact.dp_cells", 0.0),
                ("oracles.steiner_exact.minplus_ops", 0.0)]
    n = m.n
    merges = n * (3 ** b - 2 ** (b + 1) + 1) // 2
    return [("oracles.steiner_exact.dp_cells", float(2 ** b * n)),
            ("oracles.steiner_exact.minplus_ops", float((2 ** b - 1) * n * n + merges))]


def _audit_pairs(args, kwargs, result) -> list[tuple[str, float]]:
    u = len(args[0].universe)
    d = args[2] if len(args) > 2 else kwargs.get("distance", 1)
    return [("privacy.dp_audit.pairs", float(2 ** (u - 1) * math.comb(u, d)))]


#: Counts computed from a traced call's arguments and result.
COUNTERS = {
    "metric.shortest_path_metric": _dense_bytes,
    "adversary.block_alternation": _tour_positions,
    "oracles.steiner_exact": _dw_work,
    "privacy.dp_audit": _audit_pairs,
}
COUNTER_UNITS = {
    "metric.dense_bytes": "bytes", "adversary.tour_positions_scanned": "count",
    "oracles.steiner_exact.dp_cells": "count", "oracles.steiner_exact.minplus_ops": "count",
    "privacy.dp_audit.pairs": "count",
}


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []          # [name, child seconds] per open span
        self.stats: dict[str, list] = {}      # name -> [calls, total s, self s]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, total s]
        self.counts: dict[str, float] = {name: 0.0 for name in COUNTER_UNITS}
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                edge = self.edges.setdefault((parent[0] if parent else "", name), [0, 0.0])
                edge[0] += 1
                edge[1] += dur
            if counter is not None:
                for key, value in counter(args, kwargs, result):
                    self.counts[key] += value
            return result

        return traced

    def install(self, names=TRACED) -> None:
        """Rebind each traced name wherever a ``univlb`` module holds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "univlb" or key.startswith("univlb.")]
        for qual in names:
            module_name, _, attr = qual.partition(".")
            owner = importlib.import_module(f"univlb.{module_name}")
            if "." in attr:  # a method: rebind it on its class
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._rebind(cls, attr, original, self._wrap(qual, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(qual, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._rebound.append((owner, key, original))

    def restore(self) -> bool:
        """Put back every original object; True if all of them are back."""
        for owner, key, original in reversed(self._rebound):
            setattr(owner, key, original)
        ok = all(getattr(owner, key) is original for owner, key, original in self._rebound)
        self._rebound.clear()
        return ok

    def summary(self) -> dict[str, object]:
        return {
            "functions": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                          for name, s in self.stats.items()},
            "edges": [{"parent": p, "child": c, "calls": e[0], "total_s": e[1]}
                      for (p, c), e in sorted(self.edges.items())],
            "counts": dict(self.counts),
        }
