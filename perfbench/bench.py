"""Benchmark of univlb's four pipelines, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/bench.py --workload frt-dp --seed 3 --seconds 60 --trace 0

A workload is a suite of pipelines (``workloads.WORKLOADS``). One
repetition runs the suite's ``run_experiment`` calls one after another,
each in a fresh single-threaded process. A run repeats that, one repetition
at a time (closed loop, one client), until ``--seconds`` have passed (a
repetition starts only if it should end within half a repetition of that)
and at least ``MIN_REPS`` ran. Repetition ``i`` runs on the input seed
``rep_seed(seed, i)``: the first two share the run's own seed, so every run
checks that the program is deterministic, and the rest each get a new one,
so a run averages over many inputs. With ``--trace 0`` it prints the
end-to-end metrics of the suite:

* ``wall_s``: the ``run_experiment`` calls, mean over the repetitions;
* ``setup_s``: importing ``univlb.experiments`` plus ``load_instance``, what
  a CLI user pays before the first trial of each call, median over the
  repetitions;
* ``trials_per_s``: CSV rows / (``wall_s`` - time in ``load_instance``),
  summed over the repetitions;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of a repetition's processes,
  median over the repetitions.

Means and sums rather than medians for the times: the host's speed drifts
over tens of seconds, and a mean moves smoothly with the share of a run
spent fast, where a median of a few repetitions jumps between the fast and
the slow figure.

With ``--trace 1`` it alternates untraced and traced repetitions, each pair
on one input seed, and prints the per-layer metrics of the traced ones,
summed over the suite, plus the tracing overhead.

A repetition fails if the program raised, a gate failed, or a CSV differs
from the pinned sha256 of its pipeline and input seed (pinned seeds) or
from the CSV of the other repetition on that seed; ``failed`` /
``attempted`` in the result is the failed share. The last stdout line is
the result JSON; the traced spans go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import COUNTER_UNITS, TRACED
from workloads import RATIO_NAMES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
MIN_REPS = 3
# The input seeds after a run's own are this far apart, so runs on nearby
# seeds share no inputs.
SEED_STRIDE = 1_000_003
# No repetition starts after this many seconds of a run, and one still
# running then is killed, so a run ends within the 180 s it is allowed.
DEADLINE_S = 150
SINGLE_THREAD = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "trials_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTER_UNITS)
    units.update({name: "fraction" for name in RATIO_NAMES})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "trace.self_sum_frac": "fraction"})
    return units


def run_rep(config: dict, trace: bool, workdir: Path, index: int | str,
            inject: str | None = None, timeout: float = DEADLINE_S) -> dict:
    """One ``run_experiment`` call in a fresh process; returns the child's
    JSON or an error."""
    job = {"config": config, "csv": str(workdir / f"rep{index}.csv"),
           "trace": trace, "inject": inject}
    env = dict(os.environ, **SINGLE_THREAD)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(job)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition killed after {timeout:.0f} s", "gate_errors": []}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}", "gate_errors": []}
    return json.loads(lines[-1])


def rep_seed(seed: int, index: int, trace: bool) -> int:
    """Input seed of repetition ``index``.

    Untraced: repetitions 0 and 1 run on ``seed``, then one new seed each.
    Traced: each untraced/traced pair shares a seed.
    """
    k = index // 2 if trace else max(index - 1, 0)
    return seed + k * SEED_STRIDE


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, inject: str | None = None,
                 pinned: dict[str, dict[int, str]] | None = None) -> dict:
    """Run one workload; return the result object and the repetitions."""
    suite = WORKLOADS[name]
    if pinned is None:
        pinned = {} if tiny else {p.name: p.pinned for p in suite}
    reps: list[dict] = []
    start = time.perf_counter()
    # A traced run needs one untraced and one traced repetition at least.
    min_reps = 2 if trace else MIN_REPS
    with tempfile.TemporaryDirectory(prefix="reps-", dir=_out_dir()) as tmp:
        while len(reps) < min_reps or _room_for_another(reps, start, seconds):
            left = DEADLINE_S - (time.perf_counter() - start)
            if left <= 0:
                break
            traced = trace and len(reps) % 2 == 1
            reps.append(run_suite(suite, rep_seed(seed, len(reps), trace), traced,
                                  Path(tmp), len(reps), tiny, inject, left))
    references: dict[tuple[str, int], str] = {}
    for rep in reps:
        rep["failures"] = []
        for part in rep["parts"]:
            key = (part["pipeline"], rep["seed"])
            expected = pinned.get(part["pipeline"], {}).get(rep["seed"])
            if "csv_sha256" in part:
                references.setdefault(key, expected or part["csv_sha256"])
            rep["failures"] += [f"{part['pipeline']}: {f}" for f in
                                _failures(part, references.get(key), expected is not None)]
    failed = sum(1 for rep in reps if rep["failures"])
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": _layer_metrics(reps) if trace else _end_to_end(reps)}
    return {"result": result, "reps": reps,
            "configs": {p.name: p.make_config(seed, tiny) for p in suite},
            "pinned_sha256": {p.name: pinned.get(p.name, {}).get(seed) for p in suite}}


def run_suite(suite: tuple, seed: int, traced: bool, workdir: Path, index: int,
              tiny: bool = False, inject: str | None = None,
              timeout: float = DEADLINE_S) -> dict:
    """One repetition: each pipeline of the suite in a fresh process, in turn.

    The repetition's end-to-end figures are the suite's: times, rows and
    setup summed over its pipelines, memory the largest of them.
    """
    start = time.perf_counter()
    parts = []
    for pipeline in suite:
        left = timeout - (time.perf_counter() - start)
        if left > 0:
            part = run_rep(pipeline.make_config(seed, tiny), traced, workdir,
                           f"{index}-{pipeline.name}", inject, left)
        else:
            part = {"error": "run deadline passed", "gate_errors": []}
        parts.append({"pipeline": pipeline.name, **part})
    rep = {"seed": seed, "traced": traced, "parts": parts,
           "elapsed_s": time.perf_counter() - start}
    if all("wall_s" in part for part in parts):
        for key in ("wall_s", "import_s", "load_s", "rows"):
            rep[key] = sum(part[key] for part in parts)
        rep["peak_rss_mb"] = max(part["peak_rss_mb"] for part in parts)
    return rep


def _room_for_another(reps: list[dict], start: float, seconds: float) -> bool:
    """Whether one more repetition, as long as the last, ends by ``seconds``
    give or take half of it, so runs last ``seconds`` on average."""
    elapsed = time.perf_counter() - start
    return elapsed + reps[-1]["elapsed_s"] / 2 < seconds


def _out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def _failures(rep: dict, reference: str | None, pinned: bool) -> list[str]:
    out = list(rep.get("gate_errors", []))
    if rep.get("error"):
        out.append(rep["error"])
    if "csv_sha256" in rep and rep["csv_sha256"] != reference:
        what = "pinned sha256" if pinned else "CSV of the other repetition on its seed"
        out.append(f"csv sha256 {rep['csv_sha256'][:12]} differs from the {what}")
    if rep.get("restored") is False:
        out.append("tracer left a rebound name behind")
    return out


def _completed(reps: list[dict]) -> list[dict]:
    """Repetitions whose program call returned, failed gates or not."""
    return [r for r in reps if "wall_s" in r]


def _median(values: list[float]) -> float:
    # 0.0 only when no repetition completed, and then the run is not correct.
    return statistics.median(values) if values else 0.0


def _end_to_end(reps: list[dict]) -> dict[str, dict]:
    ok = _completed(reps)
    trial_s = sum(r["wall_s"] - r["load_s"] for r in ok)
    values = {
        "wall_s": statistics.fmean(r["wall_s"] for r in ok) if ok else 0.0,
        "setup_s": _median([r["import_s"] + r["load_s"] for r in ok]),
        "trials_per_s": sum(r["rows"] for r in ok) / trial_s if ok else 0.0,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _layer_metrics(reps: list[dict]) -> dict[str, dict]:
    ok = _completed(reps)
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    samples: dict[str, list[float]] = {}
    for rep in traced:
        calls: dict[str, float] = {}
        self_s: dict[str, float] = {}
        values: dict[str, float] = {}
        for part in rep["parts"]:
            for name, stats in part["trace"]["functions"].items():
                calls[name] = calls.get(name, 0) + stats["calls"]
                self_s[name] = self_s.get(name, 0.0) + stats["self_s"]
            for name, value in part["trace"]["counts"].items():
                values[name] = values.get(name, 0.0) + value
            values.update(part["ratios"])
        for name in TRACED:
            samples.setdefault(f"{name}.calls", []).append(calls.get(name, 0))
            samples.setdefault(f"{name}.self_s", []).append(self_s.get(name, 0.0))
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
        samples.setdefault("trace.wall_s", []).append(rep["wall_s"])
        samples.setdefault("trace.self_sum_frac", []).append(sum(self_s.values()) / rep["wall_s"])
    untraced_wall = _median([r["wall_s"] for r in plain])
    samples["trace.overhead_s"] = [_median(samples.get("trace.wall_s", [])) - untraced_wall]
    units = per_layer_units()
    return {name: {"value": _median(samples.get(name, [])), "unit": unit}
            for name, unit in units.items()}


def provenance() -> dict[str, object]:
    import numpy
    import scipy
    src = ROOT / "src"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "git_rev": _git_rev(), "src_lines": lines}


def _git_rev() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "univlb" / "__init__.py").is_file():
        print(f"bench: no univlb sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    prov = provenance()
    print(json.dumps({"provenance": prov}))
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"configs": run["configs"], "pinned_sha256": run["pinned_sha256"]}))
    for i, rep in enumerate(run["reps"]):
        parts = [{k: part.get(k) for k in ("pipeline", "wall_s", "cpu_s", "import_s", "load_s",
                                           "rows", "peak_rss_mb", "csv_sha256")}
                 for part in rep["parts"]]
        summary = {k: rep.get(k) for k in ("seed", "traced", "wall_s", "failures")}
        print(json.dumps({"rep": i, **summary, "parts": parts}))
    if args.trace:
        spans = {"workload": args.workload, "seed": args.seed, "configs": run["configs"],
                 "provenance": prov,
                 "spans": [{"rep": i, "pipeline": part["pipeline"], **part["trace"]}
                           for i, rep in enumerate(run["reps"])
                           for part in rep["parts"] if "trace" in part]}
        path = _out_dir() / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans, indent=1) + "\n")
        print(json.dumps({"trace_file": str(path.relative_to(ROOT))}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
