"""The benchmark's two workloads, their pipelines, pinned outputs and gates.

A workload runs a suite of ``run_experiment`` calls through
``univlb.experiments``, one after another, each in a fresh process, on
configs generated here from the repetition's input seed. The program sees
only those configs. Each of the package's four pipelines spends its time in
a different set of layers:

* ``steiner-lps41-29`` is the only setup-heavy pipeline (LPS group
  closure, beta, girth and diameter of a 24,360-vertex graph) and the only
  one with long walks; it never builds the dense metric.
* ``tsp-lps5-13`` spends its trial loop in the O(n) tour scan of
  ``block_alternation`` with 2-step walks, and builds the dense metric.
* ``universal-frt`` has no graph and no walks: FRT trees and few large
  Dreyfus-Wagner calls on metrics with n <= 64.
* ``dp-transfer-u10`` is the only pipeline in ``privacy``, with many tiny
  ``project_tree`` and ``steiner_exact`` calls on an 11-point star.

Why two workloads of two pipelines each, not four of one: the host's speed
drifts by up to 1.5x over tens of seconds, so a run has to last about a
minute before its figures repeat within their bounds, and the benchmark's
time budget holds two such workloads, not four. The split keeps a workload
that bypasses each layer: ``lps-lower-bounds`` holds every expander, graph,
metric, walk and adversary layer and ``frt-dp`` none of them; ``frt-dp``
holds every FRT, oracle and privacy layer and ``lps-lower-bounds`` none.
Both project tours, so a tour-side change that pays off on the tsp pipeline
should move nothing on the n <= 64 tours of the universal one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The seed of the acceptance manifest (``tests/test_acceptance.py``).
DEFAULT_SEED = 20250808


@dataclass(frozen=True)
class Acceptance:
    """The acceptance config a pipeline is cut from, at DEFAULT_SEED."""

    name: str                    # key in tests/test_acceptance.py::RUNS
    overrides: dict[str, object]  # where it differs from the pipeline's config
    sha256: str                  # sha256 of its CSV


@dataclass(frozen=True)
class Pipeline:
    """One ``run_experiment`` config of a workload's suite."""

    name: str
    config: dict[str, object]
    #: Overrides that shrink the pipeline for the benchmark's smoke tests.
    tiny: dict[str, object]
    acceptance: Acceptance
    #: csv sha256 by seed, for the full-size config.
    pinned: dict[int, str] = field(default_factory=dict)

    def make_config(self, seed: int, tiny: bool = False) -> dict[str, object]:
        cfg = dict(self.config, seed=seed)
        if tiny:
            cfg.update(self.tiny)
        return cfg


# Trials, metrics and mechanisms each draw from their own substreams, so a
# pipeline with fewer of them than its acceptance config writes the first
# lines of that config's CSV. The smaller sizes let one run hold many
# repetitions on different input seeds: a run then averages over inputs
# (the universal pipeline's time depends on its terminal set sizes, as
# Dreyfus-Wagner is 3^k) and over the host's speed drifts.
PIPELINES: dict[str, Pipeline] = {p.name: p for p in (
    Pipeline(
        name="steiner-lps41-29",
        config=dict(pipeline="steiner-lb", graph="lps:41,29", solution="spt",
                    trials=10000, t=64),
        tiny=dict(graph="lps:5,13", trials=40, t=8),
        acceptance=Acceptance("goodwalk-q29", {},
                              "8efa69e73b2c939e3e6d384c83fb31f397c6bd77cd904080ad3904c17429bae9"),
        pinned={DEFAULT_SEED: "8efa69e73b2c939e3e6d384c83fb31f397c6bd77cd904080ad3904c17429bae9"},
    ),
    Pipeline(
        name="tsp-lps5-13",
        config=dict(pipeline="tsp-lb", graph="lps:5,13", solution="random-tour",
                    solution_count=64, trials=2000, t=2),
        tiny=dict(trials=40, solution_count=4),
        acceptance=Acceptance("tsp-cert-t2", dict(trials=10000),
                              "b05ddfe906588b6e743dd67dd17e26eb33c1abbe69abd472071a83080ff9f744"),
        pinned={DEFAULT_SEED: "5dfda7e7bfd607b330ff0ecc16674c5b363d8505b0235ab968d9e5dfb93c2add"},
    ),
    Pipeline(
        name="universal-frt",
        config=dict(pipeline="universal-upper", metrics=25, trees_per_metric=10,
                    terminals_per_metric=3, max_terminals=10,
                    metric_size_min=32, metric_size_max=64),
        tiny=dict(metrics=3, trees_per_metric=2, max_terminals=4),
        acceptance=Acceptance("universal", dict(metrics=100),
                              "9ba9f7c982fc00bf00390de2f54bf42f9dd8a80e024a017e6a6b7ccd45cc6e3d"),
        pinned={DEFAULT_SEED: "1b30a88e7e83a03b6a01d5e19a73161d3b723a240b53f60d8931d7471fe19b01"},
    ),
    Pipeline(
        name="dp-transfer-u10",
        config=dict(pipeline="dp-transfer", universe=10, mechanisms=25, eps=0.5),
        tiny=dict(universe=5, mechanisms=3),
        acceptance=Acceptance("dp-suite", dict(mechanisms=100),
                              "e305869a094cd7823ce985b78572b144a7c39f1a49265ecbd72f0ea30212be9d"),
        pinned={DEFAULT_SEED: "d1e03c2d4dd871a5ec81fe02b65d1c916f5e2c499a9d5f40e0dede8e0d8121f8"},
    ),
)}

#: Each workload's suite, in the order a repetition runs it.
WORKLOADS: dict[str, tuple[Pipeline, ...]] = {
    "lps-lower-bounds": (PIPELINES["steiner-lps41-29"], PIPELINES["tsp-lps5-13"]),
    "frt-dp": (PIPELINES["universal-frt"], PIPELINES["dp-transfer-u10"]),
}


def gate_errors(config: dict[str, object], report) -> list[str]:
    """Checks on one report that hold on every correct run of the program."""
    pipeline = config["pipeline"]
    agg = report.aggregates
    errors: list[str] = []
    if pipeline == "steiner-lb":
        girth = agg["girth"]
        bad = [r["trial"] for r in report.rows
               if r["good"] and 6.0 * r["lhs"] < r["x_size"] * girth]
        if bad:
            errors.append(f"{len(bad)} good rows break 6*lhs >= x_size*girth, first trial {bad[0]}")
    elif pipeline == "tsp-lb":
        bad = [r["trial"] for r in report.rows
               if r["e1"] and r["e2"] and r["lhs"] < r["rhs"]]
        if bad:
            errors.append(f"{len(bad)} qualifying rows break lhs >= rhs, first trial {bad[0]}")
    elif pipeline == "universal-upper":
        broken = {k: v for k, v in agg["violations"].items() if v}
        if broken:
            errors.append(f"universal violations {broken}")
    elif pipeline == "dp-transfer":
        for key in ("audit_failures", "transfer_failures"):
            if agg[key]:
                errors.append(f"{key}={agg[key]}")
        if agg["transfer_applicable"] != config["mechanisms"]:
            errors.append(f"transfer_applicable={agg['transfer_applicable']} "
                          f"!= mechanisms={config['mechanisms']}")
    if len(report.rows) < 1:
        errors.append("report has no rows")
    return errors


#: Useful-outcome ratios of the adversary layer, read from the report.
RATIO_NAMES = ("adversary.good_walk_frac", "adversary.e1_frac",
               "adversary.qualifying_frac")


def report_ratios(report) -> dict[str, float]:
    """The ratios whose aggregates the report has; a suite takes each from
    the one pipeline that reports it."""
    agg = report.aggregates
    trials = max(len(report.rows), 1)
    out = {}
    if "good_walk_frequency" in agg:
        out["adversary.good_walk_frac"] = float(agg["good_walk_frequency"])
    if "e1_samples" in agg:
        out["adversary.e1_frac"] = agg["e1_samples"] / trials
    if "qualifying_samples" in agg:
        out["adversary.qualifying_frac"] = agg["qualifying_samples"] / trials
    return out
