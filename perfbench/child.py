"""One benchmark repetition, run in a fresh process by ``bench.py``.

Usage: ``python3 perfbench/child.py '<job json>'``. The job holds the
generated config, the CSV path, whether to trace and an optional fault to
inject. Prints one JSON line: timings, ``ru_maxrss``, the CSV sha256, gate
errors, the error the program raised (if any) and, when traced, the spans.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(job: dict) -> dict:
    start = time.perf_counter()
    from univlb import experiments
    import_s = time.perf_counter() - start

    from tracer import Tracer
    from workloads import gate_errors, report_ratios

    # load_instance is timed by rebinding it in experiments' namespace, the
    # one name the pipelines call it by.
    load = {"s": 0.0}
    real_load = experiments.load_instance

    def timed_load(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real_load(*args, **kwargs)
        finally:
            load["s"] += time.perf_counter() - t0

    experiments.load_instance = timed_load
    if job.get("inject") == "falsification":
        _inject_falsification(experiments)

    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    out: dict[str, object] = {"import_s": import_s, "error": None, "gate_errors": []}
    cfg = experiments.RunConfig.make(csv=job["csv"], **job["config"])
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        report = experiments.run_experiment(cfg)
    except Exception as exc:  # the benchmark counts any raise as a failed run
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
        if tracer is not None:
            out["restored"] = tracer.restore()
        experiments.load_instance = real_load
    out.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        load_s=load["s"],
        rows=len(report.rows),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        csv_sha256=hashlib.sha256(Path(job["csv"]).read_bytes()).hexdigest(),
        gate_errors=gate_errors(job["config"], report),
        ratios=report_ratios(report),
    )
    if tracer is not None:
        out["trace"] = tracer.summary()
    return out


def _inject_falsification(experiments) -> None:
    """Make the program raise CertificateFalsification on its first draw.

    Every pipeline draws from ``rng.stream`` inside its trial loop, so this
    reaches all four pipelines; the benchmark's tests use it to show that a
    falsification counts as a failed run.
    """
    def stream(*path):
        raise experiments.CertificateFalsification("injected by the benchmark self-test")

    experiments.rngs.stream = stream


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
