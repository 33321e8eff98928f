"""Paired benchmark of two revisions, written as ``BENCH_<tag>.json``.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent REV --change REV --tag TAG \\
        [--seconds 60] [--seed 7] [--workload W ...] [--workdir DIR]

Each revision is cloned from this checkout into ``--workdir`` (a new
temporary directory by default) and its sources compiled, so no timed run
writes bytecode. Then, per workload, ten pairs of

    python3 perfbench/bench.py --workload W --seed S --seconds T --trace 0

run one side after the other, each from its own clone; the side that goes
first alternates from pair to pair. After its timed run each side reads
its memory peak once more with ``MALLOC_MMAP_THRESHOLD_=131072`` in
bench.py's environment, in a 1 s run (the fewest repetitions). A fixed
threshold keeps glibc from raising it when a large mapped block is freed,
which moves the default reading between ~8 MB modes with the order of
frees (``mallopt(3)``). After a workload's pairs, each side runs once more
with ``--trace 1`` for the same seconds, and that run's per-layer metrics
(calls and self seconds of each traced function, medians over its traced
repetitions) go under the workload's ``per_layer``.

After the workloads, each side runs every config of
``tests/test_acceptance.py::RUNS`` once, in one fresh process, and records
each config's wall seconds and CSV sha256 (with, per config, whether both
sides wrote the same bytes); then it runs the Tier-1 suite
(``python -m pytest -q --continue-on-collection-errors`` with ``src`` on
``PYTHONPATH``) once and records its wall clock and summary line.

Each bench.py run is its own session; if the tool stops early (an error or
Ctrl-C), the run's process group is killed, so no bench.py or child.py is
left running.

The file holds each side's provenance (with its ``src/`` line count), every
pair's results and, per metric, both sides' median and quartiles, the
relative change of the medians, the pairs the change won and the bound and
direction ``BENCHMARK.json`` gives it. ``notes`` is left empty for the
reader's account of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXED_THRESHOLD = {"MALLOC_MMAP_THRESHOLD_": "131072"}
FIXED_METRIC = "peak_rss_mb_fixed_threshold"
PAIRS = 10  # the fewest alternating pairs a claimed gain is judged on
RSS_SECONDS = 1.0


def clone(rev: str, into: Path) -> None:
    """Clone this checkout at ``rev`` into ``into`` and compile its sources."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=ROOT)
    _git("clone", "--quiet", "--no-checkout", str(ROOT), str(into), cwd=ROOT)
    _git("checkout", "--quiet", sha, cwd=into)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=into, check=True, capture_output=True)


def _git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench(checkout: Path, workload: str, seed: int, seconds: float,
          env: dict[str, str] | None = None, trace: int = 0) -> tuple[dict, dict]:
    """One bench.py run in ``checkout``: (provenance, result)."""
    proc = _run([sys.executable, "perfbench/bench.py", "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)], checkout, env)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"bench.py printed nothing in {checkout}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


# Run in a checkout: each acceptance config once, its wall seconds and CSV
# sha256 printed as one JSON object.
ACCEPTANCE_RUNS = """
import hashlib, json, sys, tempfile, time
from pathlib import Path
sys.path[:0] = ["src", "tests"]
from test_acceptance import RUNS
from univlb.experiments import RunConfig, run_experiment
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, config in RUNS.items():
        csv = Path(tmp) / f"{name}.csv"
        start = time.perf_counter()
        run_experiment(RunConfig.make(csv=str(csv), **config))
        wall_s = time.perf_counter() - start
        out[name] = {"wall_s": wall_s, "csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest()}
print(json.dumps(out))
"""


def acceptance(checkout: Path) -> dict:
    """Each ``RUNS`` config of ``checkout``, run once: wall seconds and sha256."""
    proc = _run([sys.executable, "-c", ACCEPTANCE_RUNS], checkout, _src_path(checkout))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1(checkout: Path) -> dict:
    """One run of ``checkout``'s Tier-1 suite: wall clock, exit code, summary."""
    start = time.perf_counter()
    proc = _run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                 "-p", "no:cacheprovider"], checkout, _src_path(checkout), check=False)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall_s, "returncode": proc.returncode,
            "summary": lines[-1] if lines else proc.stderr.strip()[-300:]}


def _src_path(checkout: Path) -> dict[str, str]:
    return {"PYTHONPATH": os.pathsep.join(filter(None, [str(checkout / "src"),
                                                        os.environ.get("PYTHONPATH")]))}


def _run(argv: list[str], checkout: Path, env: dict[str, str] | None = None,
         check: bool = True) -> subprocess.CompletedProcess:
    """``argv`` in ``checkout``, ``env`` added to this environment. The run
    has a session of its own, and its process group (say bench.py and the
    child it is running) is killed if this returns early, say on Ctrl-C."""
    proc = subprocess.Popen(argv, cwd=checkout, env=dict(os.environ, **(env or {})),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if check and proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} failed in {checkout}: {stderr.strip()[-500:]}")
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Medians, quartiles and wins of one metric over the pairs."""
    name, lower = spec["name"], spec["better"] == "lower"
    values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
              for side in ("parent", "change")}
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    out = {"unit": spec["unit"], "better": spec["better"], "bound": spec.get("bound")}
    for side, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        out[side] = {"median": median, "q1": q1, "q3": q3}
    out["change_vs_parent"] = out["change"]["median"] / out["parent"]["median"] - 1.0
    out["change_wins"] = f"{wins}/{len(pairs)}"
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--what", default="")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = list(spec["end_to_end"])
    peak = next(m for m in metrics if m["name"] == "peak_rss_mb")
    metrics.append(dict(peak, name=FIXED_METRIC, bound=None))
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    checkouts = {"parent": workdir / "parent", "change": workdir / "change"}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        clone(rev, checkouts[side])

    provenance: dict[str, dict] = {}
    results: dict[str, dict] = {}
    for workload in workloads:
        pairs = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair: dict[str, object] = {"pair": i, "first": order[0]}
            for side in order:
                prov, result = bench(checkouts[side], workload, args.seed, args.seconds)
                _, fixed = bench(checkouts[side], workload, args.seed, RSS_SECONDS,
                                 FIXED_THRESHOLD)
                result["metrics"][FIXED_METRIC] = fixed["metrics"]["peak_rss_mb"]
                result["fixed_threshold_correct"] = fixed["correct"]
                provenance.setdefault(side, prov)
                pair[side] = result
            pairs.append(pair)
            print(f"{workload} pair {i}: " + ", ".join(
                f"{side} {pair[side]['metrics']['peak_rss_mb']['value']:.1f} MB"
                for side in order), file=sys.stderr)
        per_layer = {side: bench(checkouts[side], workload, args.seed, args.seconds,
                                 trace=1)[1]["metrics"] for side in checkouts}
        results[workload] = {"pairs": pairs,
                             "summary": {m["name"]: summarize(pairs, m) for m in metrics},
                             "per_layer": per_layer}

    runs = {side: acceptance(checkouts[side]) for side in checkouts}
    configs = {name: {side: runs[side].get(name) for side in checkouts}
               for name in {**runs["parent"], **runs["change"]}}
    for entry in configs.values():
        entry["same_csv"] = (None not in entry.values()
                             and entry["parent"]["csv_sha256"] == entry["change"]["csv_sha256"])
    suites = {side: tier1(checkouts[side]) for side in checkouts}

    command = (f"python3 perfbench/bench.py --workload W --seed {args.seed} --seconds "
               f"{args.seconds:g} --trace 0 from a git clone of each side, pairs alternating "
               f"which side runs first; then --seconds {RSS_SECONDS:g} with "
               f"MALLOC_MMAP_THRESHOLD_=131072 for {FIXED_METRIC}; after the pairs, one "
               f"--trace 1 run per side for per_layer; then, per side, each acceptance "
               f"config once and the Tier-1 suite once")
    out = {"tag": args.tag, "what": args.what, "command": command,
           "provenance": provenance, "workloads": results,
           "acceptance": configs, "tier1": suites,
           "src_lines": {side: prov["src_lines"] for side, prov in provenance.items()},
           "notes": []}
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
