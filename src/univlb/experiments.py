"""Experiment orchestration: configs, pipelines, reports, CSV emission.

Four pipelines drive every empirical claim in the package:

* ``steiner-lb``  -- walk adversary vs a path-collection solution; exact
  girth certificates on every good walk.
* ``tsp-lb``      -- two-walk adversary vs a tour distribution; exact
  alternation certificates on every E1-and-E2 sample.
* ``universal-upper`` -- FRT trees on random metrics: domination, stretch,
  tour doubling, contiguity, and exact-oracle ratios.
* ``dp-transfer`` -- mechanism suite audits plus the transfer-theorem check.

Reproducibility contract: a (config, master seed) pair determines every row
byte-for-byte, because each trial consumes only its own derived substreams.
A certificate that fails on inputs meeting its preconditions contradicts a
theorem; the harness raises ``CertificateFalsification`` and the CLI maps it
to exit code 2.

``steiner-lb`` and ``tsp-lb`` run their trials in chunks of at most
``CHUNK_BYTES // row_bytes`` trials, so a run's peak memory does not grow
with its trial count. Each trial draws only from its own substreams: its
solution index (SOLUTION, only when there are several solutions) and its
walk (WALK, and WALK2 for tsp-lb's second walk: the start, then the
neighbour slots). A chunk's draws are computed in bulk by ``rng.draw_rows``,
bit for bit what each trial's own stream gives; its first row is checked
against ``stream``, and the rare rows the array pass does not cover are
drawn by ``stream`` itself. Only walks on an irregular graph, whose draws
depend on the vertices reached, take one generator per trial. Everything
after the draws is an array pass over the chunk's rows: the walks advance
in lockstep, then the good-walk, separation and block tests and the path
and tour projections. Only the certificates and the exact oracles run one
trial at a time, on the rows that call for them, so the rows equal those
of a per-trial loop, and a falsification names the first failing trial.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import rng as rngs
from .adversary import (
    CertificateFalsification,
    SteinerAdversaryConfig,
    TspAdversaryConfig,
    alternation,
    good_walks,
    separated,
    steiner_certificate,
    tour_blocks,
    tsp_certificate,
)
from .expanders import lps_graph
from .frt import frt_sample, hst_dominates, hst_to_spanning_tree, stretch_stats
from .graphs import Graph, csr_rows, diameter_ecc, girth as graph_girth, read_graph
from .metric import MetricSpace, random_euclidean_metric, shortest_path_metric
from .oracles import (
    OracleBudget,
    OracleRefusal,
    opt_surrogates,
    steiner_exact,
    steiner_table,
    tsp_exact,
)
from .privacy import (
    LowerBoundWitness,
    MechanismTable,
    dp_audit,
    exponential_mechanism,
    transfer_check,
    transfer_lower_bound,
)
from .solutions import (
    PathCollection,
    SpanningTree,
    TourOrder,
    bfs_tree,
    distinct_counts,
    project_path_rows,
    project_tour_rows,
    project_tree,
    restricted_dfs_order,
    stack_edge_keys,
    tour_tables,
    tree_to_path_collection,
    tree_to_tour,
)
from .walks import slot_bounds, walk_block
from .walks import random_walk  # noqa: F401 (perfbench's tracer test checks this binding)


class ConfigError(ValueError):
    pass


PIPELINES = ("steiner-lb", "tsp-lb", "universal-upper", "dp-transfer")

@dataclass(frozen=True)
class RunConfig:
    """One run's settings. The fields are exactly the keys that ``make``,
    config files and the ``run-*`` flags accept; each annotation names the
    type a string value is coerced to (``int | str``: a count or "auto")."""

    pipeline: str = ""
    graph: str = ""
    solution: str = "spt"
    solution_count: int = 16
    trials: int = 1000
    t: int | str = "auto"
    blocks: int | str = "auto"
    oracle_cap: int = 0
    metric_cap: int = 6000
    seed: int = 0
    csv: str = ""
    json: str = ""
    # universal-upper specifics
    metrics: int = 20
    metric_size_min: int = 32
    metric_size_max: int = 64
    trees_per_metric: int = 10
    terminals_per_metric: int = 3
    max_terminals: int = 10
    # dp-transfer specifics
    universe: int = 8
    mechanisms: int = 20
    eps: float = 0.5

    def __post_init__(self) -> None:
        for key, low in (("trials", 0), ("metrics", 0), ("mechanisms", 0), ("eps", 0),
                         ("solution_count", 1), ("t", 1), ("blocks", 1),
                         ("trees_per_metric", 1), ("max_terminals", 2), ("universe", 1),
                         ("metric_size_min", 2), ("metric_size_max", self.metric_size_min)):
            value = getattr(self, key)
            if value != "auto" and not value >= low:  # "not >=" also rejects NaN
                raise ConfigError(f"{key} must be >= {low}, got {value}")

    @property
    def values(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def make(**overrides) -> "RunConfig":
        types = {f.name: f.type for f in fields(RunConfig)}
        values = {}
        for key, val in overrides.items():
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            if val is not None:
                values[key] = _coerce(types[key], val)
        cfg = RunConfig(**values)
        if cfg.pipeline not in PIPELINES:
            raise ConfigError(f"pipeline must be one of {PIPELINES}")
        return cfg

    @staticmethod
    def parse_file(path: str | Path) -> dict[str, str]:
        values: dict[str, str] = {}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
        return values


def _coerce(annotation: str, val: object) -> object:
    if annotation == "int | str":
        return val if val == "auto" else int(val)
    return {"int": int, "float": float, "str": str}[annotation](val)


@dataclass
class ExperimentReport:
    config: dict[str, object]
    columns: list[str]
    rows: list[dict[str, object]]
    aggregates: dict[str, object] = field(default_factory=dict)
    series: list[dict[str, object]] = field(default_factory=list)
    wall_clock_sec: float = 0.0

    def csv_text(self) -> str:
        """The rows as CSV, each cell as ``_cell`` writes it, converted a
        column at a time (``_column``)."""
        columns = [_column([row.get(k) for row in self.rows]) for k in self.columns]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(zip(*columns))
        return buf.getvalue()

    def write(self, csv_path: str | Path | None, json_path: str | Path | None) -> None:
        if csv_path:
            Path(csv_path).write_text(self.csv_text())
        if json_path:
            doc = {
                "config": self.config,
                "aggregates": self.aggregates,
                "series": self.series,
                "row_count": len(self.rows),
                "wall_clock_sec": self.wall_clock_sec,
            }
            Path(json_path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cell(value) -> object:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return value


def _column(values: list) -> list:
    """``_cell`` of each value, by one converter when all share a type."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is float:
            return list(map(float.__repr__, values))
        if kind is bool:
            return list(map(int, values))
        if kind is type(None):
            return [""] * len(values)
        if kind is int or kind is str:
            return values
    return list(map(_cell, values))


@dataclass(frozen=True)
class InstanceBundle:
    graph: Graph
    label: str
    d: int
    girth: int | None
    diameter: int          # exact for vertex-transitive constructions, else an upper bound
    beta: float | None = None
    metric: MetricSpace | None = None


def load_instance(spec_str: str, metric_cap: int, need_metric: bool) -> InstanceBundle:
    """Resolve a graph spec: ``lps:p,q``, ``file:path`` or a bare path.

    The recorded diameter is exact for LPS graphs (vertex-transitivity), and
    exact for a file graph whenever the dense metric is built; otherwise it
    is the upper bound 2 * ecc(v0), which keeps the walk surrogates valid
    upper bounds. The dense metric is built at most once, rooted at vertex 0.
    """
    kind, sep, rest = spec_str.partition(":")
    metric: MetricSpace | None = None
    if sep and kind == "lps":
        p, q = (int(x) for x in rest.split(","))
        g, cert = lps_graph(p, q)
        gir, diam, beta = cert.girth, cert.diameter, cert.beta
        label = f"lps({p},{q})"
    else:
        label = rest if sep and kind == "file" else spec_str
        g = read_graph(label)
        gir = graph_girth(g)
        beta = None
        diam, metric = _diameter_bound(g, metric_cap)
    g.neighbors  # the walk rows: built with the instance, not in the first trial
    if not need_metric:
        metric = None
    elif g.n > metric_cap:
        raise ConfigError(
            f"n={g.n} exceeds metric_cap={metric_cap}; this pipeline needs the full metric"
        )
    elif metric is None:
        metric = shortest_path_metric(g, 0)
    return InstanceBundle(graph=g, label=label, d=int(g.degrees.max()), girth=gir,
                          diameter=diam, beta=beta, metric=metric)


def _diameter_bound(g: Graph, metric_cap: int) -> tuple[int, MetricSpace | None]:
    """The exact diameter and the dense metric it was read from, up to
    ``metric_cap`` vertices; above it, the upper bound 2 * ecc(v0) and None."""
    if g.n <= metric_cap:
        m = shortest_path_metric(g, 0)
        return int(m.dist.max()), m
    return 2 * diameter_ecc(g), None


LB_COLUMNS = [
    "trial", "n", "d", "girth", "t", "x_size", "good", "e1", "e2",
    "shared", "lhs", "rhs", "ratio", "opt_kind",
]


def _steiner_solutions(cfg: RunConfig, inst: InstanceBundle) -> list[PathCollection]:
    if cfg.solution == "spt":
        return [tree_to_path_collection(bfs_tree(inst.graph, 0))]
    if cfg.solution == "frt":
        if inst.metric is None:
            raise ConfigError("frt solutions need the metric (raise metric_cap)")
        out = []
        for i in range(cfg.solution_count):
            h = frt_sample(inst.metric, rngs.stream(cfg.seed, rngs.TREE, i))
            out.append(tree_to_path_collection(hst_to_spanning_tree(h, inst.metric)))
        return out
    raise ConfigError(f"unknown steiner solution {cfg.solution!r}")


#: Bytes one chunk of trials may spend on its largest gather: the (B, t+1, L)
#: path keys of steiner-lb, the (B, t+1, t+1) cross distances of tsp-lb.
#: Chunks keep the peak memory of a run independent of its trial count.
CHUNK_BYTES = 1 << 21


def _chunks(trials: int, row_bytes: int) -> list[range]:
    """Consecutive ranges of the trials, each of CHUNK_BYTES // row_bytes
    trials or fewer (at least one)."""
    size = max(1, CHUNK_BYTES // row_bytes)
    return [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]


def _picks(cfg: RunConfig, count: int, trials: range) -> np.ndarray:
    """Each trial's solution index, drawn from its own SOLUTION substream
    when there is more than one solution."""
    if count == 1:
        return np.zeros(len(trials), dtype=np.int64)
    return rngs.draw_rows(cfg.seed, rngs.SOLUTION, trials, [count])[:, 0]


def _walks(cfg: RunConfig, g: Graph, t: int, tag: int, trials: range) -> np.ndarray:
    """The trials' walks, row i drawn from trial i's own ``tag`` substream:
    in bulk on a regular graph, one generator per trial elsewhere."""
    bounds = slot_bounds(g, t)
    if bounds is None:
        return walk_block(g, t, [rngs.stream(cfg.seed, tag, trial) for trial in trials])
    return walk_block(g, t, rngs.draw_rows(cfg.seed, tag, trials, bounds))


def run_steiner_lb(cfg: RunConfig) -> ExperimentReport:
    inst = load_instance(cfg.graph, cfg.metric_cap,
                         need_metric=(cfg.solution == "frt" or cfg.oracle_cap > 0))
    if inst.girth is None:
        raise ConfigError("acyclic graph has no girth; steiner-lb needs cycles")
    t = max(1, inst.girth // 3) if cfg.t == "auto" else int(cfg.t)
    adv = SteinerAdversaryConfig(t=t, certificate_mode=(3 * t <= inst.girth))
    solutions = _steiner_solutions(cfg, inst)
    keys = stack_edge_keys(solutions)
    first_steps = np.stack([p.first_steps for p in solutions])
    roots = np.array([p.root for p in solutions])
    # The girth certificate argues about graph cycles; it only applies to
    # collections whose paths are walks in the graph (SPT yes; contracted
    # tree solutions carry metric edges and are measured, not certified).
    certifiable = np.array([adv.certificate_mode and _graph_paths(p, inst.graph)
                            for p in solutions])
    budget = _budget(cfg.oracle_cap)
    surrogate = _surrogate("steiner", 1, adv.t, inst.diameter)

    rows: list[dict[str, object]] = []
    good_count = 0
    certified = 0
    ratios: list[float] = []
    for trials in _chunks(cfg.trials, (adv.t + 1) * keys.shape[2] * 8):
        pick = _picks(cfg, len(solutions), trials)
        walks = _walks(cfg, inst.graph, adv.t, rngs.WALK, trials)
        good, _, distinct = good_walks(walks, first_steps[pick[:, None], walks], adv)
        x_size = distinct - (walks == roots[pick, None]).any(axis=1)
        certify = good & certifiable[pick]
        lhs = np.empty(len(trials))
        lhs[~certify] = project_path_rows(keys, pick[~certify], walks[~certify], inst.metric)
        for i in np.flatnonzero(certify):
            # the certificate projects the same X on the same metric
            cert = steiner_certificate(solutions[pick[i]], walks[i], inst.girth, adv, inst.metric)
            if not cert.holds:
                raise CertificateFalsification(
                    f"steiner certificate failed at trial {trials[i]}: {cert.witness}"
                )
            lhs[i] = cert.lhs
        good_count += int(good.sum())
        certified += int(certify.sum())
        opts = _optima("steiner", inst.metric, [walks], x_size, surrogate, budget,
                       cfg.oracle_cap)
        for trial, size, is_good, cost, (opt, opt_kind) in zip(
                trials, x_size.tolist(), good.tolist(), lhs.tolist(), opts):
            ratio = cost / opt if opt > 0 else float("nan")
            if size:
                ratios.append(ratio)
            rows.append({
                "trial": trial, "n": inst.graph.n, "d": inst.d, "girth": inst.girth,
                "t": adv.t, "x_size": size, "good": is_good, "e1": None, "e2": None,
                "shared": None, "lhs": cost, "rhs": size * inst.girth / 6.0, "ratio": ratio,
                "opt_kind": opt_kind,
            })

    report = ExperimentReport(config=cfg.values, columns=LB_COLUMNS, rows=rows)
    arr = np.array(ratios) if ratios else np.array([np.nan])
    freq = good_count / cfg.trials if cfg.trials else 0.0
    report.aggregates = {
        "good_walk_frequency": freq,
        "certified_samples": certified,
        "ratio_median": float(np.median(arr)),
        "ratio_q25": float(np.quantile(arr, 0.25)),
        "ratio_q75": float(np.quantile(arr, 0.75)),
        "girth": inst.girth, "diameter": inst.diameter, "beta": inst.beta,
        "t": adv.t, "label": inst.label,
    }
    stderr = math.sqrt(max(freq * (1 - freq), 0.0) / cfg.trials) if cfg.trials else 0.0
    report.series = [
        {
            "series": "ratio-vs-n", "x": inst.graph.n,
            "y": report.aggregates["ratio_median"],
            "ci_lo": report.aggregates["ratio_q25"],
            "ci_hi": report.aggregates["ratio_q75"],
        },
        {
            "series": "good-freq-vs-t", "x": adv.t, "y": freq,
            "ci_lo": freq - 3 * stderr, "ci_hi": freq + 3 * stderr,
        },
    ]
    return report


def _graph_paths(p: PathCollection, g: Graph) -> bool:
    """Whether every step of every root path in ``p`` (paths over ``g``'s
    vertices) is an edge of ``g``. A step's key u * n + v (u <= v, from
    ``p.edge_keys``) is looked up by ``searchsorted`` among the keys
    row * n + col of ``g.csr``, which ascend because its rows are sorted."""
    _, indices = g.csr
    keys = csr_rows(g) * g.n + indices
    steps = p.edge_keys[p.edge_keys >= 0]
    at = np.searchsorted(keys, steps)
    return bool(np.all(at < keys.size) and np.array_equal(keys[at], steps))


def _budget(oracle_cap: int) -> OracleBudget:
    if oracle_cap <= 0:
        return OracleBudget()
    return OracleBudget(steiner_terminals=max(2, oracle_cap + 1),
                        tsp_terminals=max(2, oracle_cap))


def _surrogate(problem: str, walk_count: int, t: int, diam: int) -> tuple[float, str]:
    """The walk surrogate of ``problem`` ("steiner" or "tsp") for every trial
    of a run: the bounds read only the walks' step counts, t each."""
    bounds = opt_surrogates([t] * walk_count, diam)
    if problem == "steiner":
        return bounds.steiner, "walk-bound"
    return bounds.tsp, "walk-tour"


def _optima(problem, m, walk_blocks, x_size, surrogate, budget,
            oracle_cap) -> list[tuple[float, str]]:
    """OPT of ``problem`` on each row's X, the row's vertices in all
    ``walk_blocks`` less the root: the exact oracle when the metric is built
    and |X| <= oracle_cap, else the run's walk surrogate."""
    opts = [surrogate] * len(x_size)
    if m is None or oracle_cap <= 0:
        return opts
    exact = steiner_exact if problem == "steiner" else tsp_exact
    for i in np.flatnonzero(x_size <= oracle_cap):
        x = set(np.concatenate([w[i] for w in walk_blocks]).tolist()) - {m.root}
        try:
            opts[i] = exact(m, x, budget), "oracle"
        except OracleRefusal:
            pass
    return opts


def run_tsp_lb(cfg: RunConfig) -> ExperimentReport:
    inst = load_instance(cfg.graph, cfg.metric_cap, need_metric=True)
    m = inst.metric
    assert m is not None
    base = TspAdversaryConfig.paper_default(inst.graph.n, inst.d)
    t = base.t if cfg.t == "auto" else int(cfg.t)
    blocks = base.blocks if cfg.blocks == "auto" else int(cfg.blocks)
    adv = TspAdversaryConfig(t=t, blocks=blocks)
    tours = _tour_solutions(cfg, inst)
    positions, orders = tour_tables(tours)
    block_of = tour_blocks(positions, adv.blocks)
    budget = _budget(cfg.oracle_cap)
    surrogate = _surrogate("tsp", 2, adv.t, inst.diameter)

    rows: list[dict[str, object]] = []
    qualifying = 0
    e1_count = 0
    ratios: list[float] = []
    for trials in _chunks(cfg.trials, (adv.t + 1) ** 2 * 8):
        pick = _picks(cfg, len(tours), trials)
        q1 = _walks(cfg, inst.graph, adv.t, rngs.WALK, trials)
        q2 = _walks(cfg, inst.graph, adv.t, rngs.WALK2, trials)
        both = np.concatenate([q1, q2], axis=1)
        x_size = distinct_counts(np.where(both == m.root, -1, both))
        e1 = separated(q1, q2, m, adv.t)
        _, _, shared, e2 = alternation(block_of[pick[:, None], q1], block_of[pick[:, None], q2],
                                       adv.blocks, adv.alternation_fraction)
        lhs = project_tour_rows(positions, orders, pick, both, m)
        for i in np.flatnonzero(e1 & e2):
            cert = tsp_certificate(tours[pick[i]], m, q1[i], q2[i], adv.t, adv.blocks)
            if not cert.holds:
                raise CertificateFalsification(
                    f"tsp certificate failed at trial {trials[i]}: {cert.witness}"
                )
        e1_count += int(e1.sum())
        qualifying += int((e1 & e2).sum())
        opts = _optima("tsp", m, [q1, q2], x_size, surrogate, budget, cfg.oracle_cap)
        for trial, size, is_e1, is_e2, hits, cost, (opt, opt_kind) in zip(
                trials, x_size.tolist(), e1.tolist(), e2.tolist(), shared.tolist(),
                lhs.tolist(), opts):
            ratio = cost / opt if opt > 0 else float("nan")
            if size:
                ratios.append(ratio)
            rows.append({
                "trial": trial, "n": inst.graph.n, "d": inst.d, "girth": inst.girth,
                "t": adv.t, "x_size": size, "good": None, "e1": is_e1, "e2": is_e2,
                "shared": hits, "lhs": cost, "rhs": float(hits * adv.t), "ratio": ratio,
                "opt_kind": opt_kind,
            })

    report = ExperimentReport(config=cfg.values, columns=LB_COLUMNS, rows=rows)
    arr = np.array(ratios) if ratios else np.array([np.nan])
    report.aggregates = {
        "qualifying_samples": qualifying,
        "e1_samples": e1_count,
        "ratio_median": float(np.median(arr)),
        "blocks": adv.blocks, "t": adv.t,
        # no sample qualifies when E1's walks cannot start 3t apart, or when
        # E2 asks a walk's t + 1 vertices to hit more blocks than that
        "vacuous": (3 * adv.t > inst.diameter
                    or adv.t + 1 < adv.alternation_fraction * adv.blocks),
        "girth": inst.girth, "diameter": inst.diameter, "beta": inst.beta,
        "label": inst.label,
    }
    report.series = [{
        "series": "ratio-vs-n", "x": inst.graph.n,
        "y": report.aggregates["ratio_median"], "ci_lo": None, "ci_hi": None,
    }]
    return report


def _tour_solutions(cfg: RunConfig, inst: InstanceBundle) -> list[TourOrder]:
    root = inst.metric.root
    if cfg.solution == "spt-tour":
        return [tree_to_tour(bfs_tree(inst.graph, root))]
    if cfg.solution in ("random-tour", "spt"):
        non_root = np.delete(np.arange(inst.graph.n), root)
        out = []
        for i in range(cfg.solution_count):
            perm = rngs.stream(cfg.seed, rngs.TOUR, i).permutation(non_root)
            out.append(TourOrder(root=root, order=tuple(perm.tolist())))
        return out
    raise ConfigError(f"unknown tour solution {cfg.solution!r}")


UNIVERSAL_COLUMNS = [
    "trial", "n", "x_size", "mean_tree_cost", "opt", "ratio",
    "domination", "cost_bound", "doubling", "contiguity", "opt_kind",
]


def run_universal_upper(cfg: RunConfig) -> ExperimentReport:
    """FRT upper-bound pipeline on random metrics.

    Per metric: sample FRT trees, verify HST domination and the contraction
    cost bound per sample, then for each terminal set check tour doubling
    and DFS contiguity exactly on every tree, and compare the mean projected
    cost against the exact Steiner optimum.
    """
    budget = OracleBudget()
    rows: list[dict[str, object]] = []
    stretch_max_all: list[float] = []
    stretch_mean_all: list[float] = []
    mean_ratios: list[float] = []
    violations = {"domination": 0, "cost_bound": 0, "doubling": 0, "contiguity": 0}
    trial = 0
    for mi in range(cfg.metrics):
        mrng = rngs.stream(cfg.seed, rngs.METRIC, mi)
        n = int(mrng.integers(cfg.metric_size_min, cfg.metric_size_max + 1))
        m = random_euclidean_metric(n, mrng)

        trees: list[SpanningTree] = []
        tours: list[TourOrder] = []
        dominated = True
        costs_bounded = True
        for ti in range(cfg.trees_per_metric):
            h = frt_sample(m, rngs.stream(cfg.seed, rngs.TREE, mi, ti))
            if not hst_dominates(h, m):
                dominated = False
                violations["domination"] += 1
            tree = hst_to_spanning_tree(h, m)
            if tree.total_cost > h.total_weight + 1e-9:
                costs_bounded = False
                violations["cost_bound"] += 1
            trees.append(tree)
            tours.append(tree_to_tour(tree))

        st = stretch_stats(m, trees)
        stretch_max_all.append(st["max_pair_stretch"])
        stretch_mean_all.append(st["mean_pair_stretch"])
        tables = tour_tables(tours)
        every_tour = np.arange(len(tours))

        for xi in range(cfg.terminals_per_metric):
            xr = rngs.stream(cfg.seed, rngs.SUBSET, mi, xi)
            k = int(xr.integers(2, cfg.max_terminals + 1))
            pool = [v for v in range(n) if v != m.root]
            x = set(int(v) for v in xr.choice(pool, size=min(k, len(pool)), replace=False))

            doubling_ok = True
            contiguity_ok = True
            costs = []
            xs = np.fromiter(x, dtype=np.int64)
            tour_costs = project_tour_rows(*tables, every_tour,
                                           np.broadcast_to(xs, (len(tours), len(xs))), m)
            for tree, tour, c_sx in zip(trees, tours, tour_costs.tolist()):
                c_tx = project_tree(tree, x)
                costs.append(c_tx)
                if c_sx > 2.0 * c_tx + 1e-9:
                    doubling_ok = False
                    violations["doubling"] += 1
                pos = tour.positions
                if restricted_dfs_order(tree, x) != tuple(sorted(x, key=pos.__getitem__)):
                    contiguity_ok = False
                    violations["contiguity"] += 1

            opt = steiner_exact(m, x, budget)
            mean_cost = float(np.mean(costs))
            ratio = mean_cost / opt
            mean_ratios.append(ratio)
            rows.append({
                "trial": trial, "n": n, "x_size": len(x),
                "mean_tree_cost": mean_cost, "opt": opt, "ratio": ratio,
                "domination": dominated, "cost_bound": costs_bounded,
                "doubling": doubling_ok, "contiguity": contiguity_ok,
                "opt_kind": "oracle",
            })
            trial += 1

    report = ExperimentReport(config=cfg.values, columns=UNIVERSAL_COLUMNS, rows=rows)
    report.aggregates = {
        "mean_ratio": float(np.mean(mean_ratios)) if mean_ratios else float("nan"),
        "max_ratio": float(np.max(mean_ratios)) if mean_ratios else float("nan"),
        "measured_stretch_max": float(np.max(stretch_max_all)) if stretch_max_all else float("nan"),
        "measured_stretch_mean": float(np.mean(stretch_mean_all)) if stretch_mean_all else float("nan"),
        "violations": violations,
    }
    report.series = [{
        "series": "stretch-vs-n", "x": cfg.metric_size_max,
        "y": report.aggregates["measured_stretch_mean"], "ci_lo": None,
        "ci_hi": report.aggregates["measured_stretch_max"],
    }]
    return report


DP_COLUMNS = [
    "trial", "mech", "eps", "audit_pass", "worst_ratio", "eps0",
    "prob_beat", "bound", "transfer_ok",
]


def star_metric(universe_size: int) -> MetricSpace:
    """Unit star: root 0 at distance 1 from everyone, leaves pairwise 2."""
    n = universe_size + 1
    dist = np.full((n, n), 2, dtype=np.int64)
    dist[0, :] = 1
    dist[:, 0] = 1
    np.fill_diagonal(dist, 0)
    return MetricSpace(n=n, dist=dist, root=0)


def suite_mechanism(
    m: MetricSpace, universe: frozenset[int], eps: float, rng: np.random.Generator,
    groups: int = 4,
) -> tuple[MechanismTable, np.ndarray, LowerBoundWitness]:
    """One structured suite mechanism, its cost table ``cost[mask, j]`` (tree
    j projected on terminal set ``mask``) and an exact transfer witness.

    The universe is randomly split into ``groups`` groups; candidate tree j
    serves group j with direct spokes and detours everyone else through the
    group's hub (cost 3 instead of 1 per terminal). On the empty input the
    mechanism is exactly uniform (all projections cost 0), so each singleton
    {v} beats ratio 1 with probability exactly 1/groups -- an (alpha=1, rho)
    witness with rho(1) = 1/groups, giving eps0 = ln(groups / 2).
    """
    items = sorted(universe)
    groups = min(groups, len(items))
    perm = [items[i] for i in rng.permutation(len(items))]
    group_of = {v: i % groups for i, v in enumerate(perm)}
    hubs = {j: min(v for v in items if group_of[v] == j) for j in range(groups)}

    n = m.n
    candidates: dict[str, SpanningTree] = {}
    for j in range(groups):
        parent = [m.root] * n
        parent[m.root] = m.root
        for v in items:
            if group_of[v] != j and v != hubs[j]:
                parent[v] = hubs[j]
        costs = tuple(0.0 if v == m.root else float(m.dist[v, parent[v]])
                      for v in range(n))
        candidates[f"t{j}"] = SpanningTree(root=m.root, parent=tuple(parent),
                                           edge_cost=costs)

    cost = _subtree_mask_costs(m, items, list(candidates.values()))
    mech = exponential_mechanism(universe, candidates, cost, eps)

    # Singleton {items[i]} is row 1 << i; its optimum is one spoke of cost 1.
    alpha, opt = 1.0, 1.0
    beats = cost[[1 << i for i in range(len(items))]] <= alpha * opt
    rho_1 = float((beats * mech.probs[0]).sum(axis=1).max(initial=0.0))
    witness = LowerBoundWitness(alpha=alpha, rho={1: min(rho_1 + 1e-12, 1.0)},
                                sets=tuple(frozenset({v}) for v in items))
    return mech, cost, witness


def _subtree_mask_costs(m: MetricSpace, items: list[int],
                        trees: list[SpanningTree]) -> np.ndarray:
    """``cost[mask, j]``: ``project_tree`` of tree j on the terminal set
    ``mask`` over ``items`` (bit i for ``items[i]``), for every mask at once.

    Vertex v's edge to its parent is in tree j's projection on X exactly when
    X meets the items below v, ``sub_j(v)`` as a mask, so
    ``cost[mask, j] = sum_v w(v) [mask & sub_j(v) != 0]``. The weights are
    the metric's distances along the tree edges, summed as int64, so the
    table is exact; a metric whose tree edges are not integral is refused."""
    masks = np.arange(1 << len(items), dtype=np.int64)
    bits = 1 << np.arange(len(items), dtype=np.int64)
    cost = np.zeros((len(masks), len(trees)), dtype=np.int64)
    for j, tree in enumerate(trees):
        parent = np.asarray(tree.parent, dtype=np.int64)
        w = m.dist[np.arange(m.n), parent]
        if not np.array_equal(w, np.round(w)):
            raise ConfigError("suite mechanism costs need integral tree edges in the metric")
        below = np.zeros(m.n, dtype=np.int64)
        node = np.asarray(items, dtype=np.int64)
        while (live := node != tree.root).any():  # each item's bit on its root path
            np.bitwise_or.at(below, node[live], bits[live])
            node = parent[node]
        hit = (masks[:, None] & below[None, :]) != 0
        cost[:, j] = hit @ w.astype(np.int64)
    return cost.astype(np.float64)


def run_dp_transfer(cfg: RunConfig) -> ExperimentReport:
    m = star_metric(cfg.universe)
    items = list(range(1, cfg.universe + 1))
    universe = frozenset(items)
    # One Dreyfus-Wagner table with the root last: its root column holds the
    # optimum of every terminal set X plus the root, row X's mask.
    opt = steiner_table(m, [*items, m.root])[:, m.root]
    bit = {v: 1 << i for i, v in enumerate(items)}

    rows: list[dict[str, object]] = []
    audit_failures = 0
    transfer_failures = 0
    applicable = 0
    for i in range(cfg.mechanisms):
        mech, cost, witness = suite_mechanism(m, universe, cfg.eps,
                                              rngs.stream(cfg.seed, rngs.SOLUTION, i))
        audit = dp_audit(mech, cfg.eps)
        if not audit.passed:
            audit_failures += 1
        eps0 = transfer_lower_bound(witness)
        ok = prob_beat = bound = None
        if eps0 > 0 and cfg.eps <= eps0:
            applicable += 1
            chk = transfer_check(mech, cost, witness, cfg.eps,
                                 opt_fn=lambda X: float(opt[sum(bit[v] for v in X)]))
            ok, prob_beat, bound = chk.ok, chk.prob_beat, chk.bound
            if not ok:
                transfer_failures += 1
        rows.append({
            "trial": i, "mech": f"expmech-{i}", "eps": cfg.eps,
            "audit_pass": audit.passed, "worst_ratio": audit.worst_ratio,
            "eps0": eps0, "prob_beat": prob_beat, "bound": bound,
            "transfer_ok": ok,
        })
    report = ExperimentReport(config=cfg.values, columns=DP_COLUMNS, rows=rows)
    report.aggregates = {
        "audit_failures": audit_failures,
        "transfer_failures": transfer_failures,
        "transfer_applicable": applicable,
    }
    return report


def run_experiment(cfg: RunConfig) -> ExperimentReport:
    """Dispatch a pipeline, write its outputs, return the report."""
    start = time.perf_counter()
    pipeline = cfg.pipeline
    if pipeline == "steiner-lb":
        report = run_steiner_lb(cfg)
    elif pipeline == "tsp-lb":
        report = run_tsp_lb(cfg)
    elif pipeline == "universal-upper":
        report = run_universal_upper(cfg)
    elif pipeline == "dp-transfer":
        report = run_dp_transfer(cfg)
    else:
        raise ConfigError(f"unknown pipeline {pipeline!r}")
    report.wall_clock_sec = time.perf_counter() - start
    report.write(cfg.csv or None, cfg.json or None)
    return report


def emit_plot_data(reports: list) -> str:
    """Tidy plot CSV with columns exactly: series, x, y, ci_lo, ci_hi."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["series", "x", "y", "ci_lo", "ci_hi"],
                            lineterminator="\n")
    writer.writeheader()
    count = 0
    for rep in reports:
        series = rep.series if isinstance(rep, ExperimentReport) else rep.get("series", [])
        for point in series:
            writer.writerow({k: _cell(point.get(k)) for k in
                             ("series", "x", "y", "ci_lo", "ci_hi")})
            count += 1
    if count == 0:
        raise ValueError("no series data in the given reports")
    return buf.getvalue()
