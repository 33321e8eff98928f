"""Command-line harness.

Subcommands: gen-expander, gen-instance, run-steiner-lb, run-tsp-lb,
run-universal, oracle, audit-dp, transfer, report.

Exit codes: 0 success, 1 usage or input error, 2 certificate falsification
(a theorem-contradicting event; never expected on valid inputs).

The master seed comes from --seed, falling back to the UNIVLB_SEED
environment variable, then 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .expanders import lps_graph, write_certificate
from .experiments import (
    CertificateFalsification,
    ConfigError,
    RunConfig,
    emit_plot_data,
    run_experiment,
)
from .graphs import GraphError, write_graph
from .metric import (
    random_euclidean_metric,
    random_uniform_metric,
    read_metric,
    write_metric,
)
from .oracles import OracleRefusal, steiner_exact_witness, tsp_exact_witness
from .privacy import LowerBoundWitness, dp_audit, read_mechanism, transfer_lower_bound
from .rng import stream


def _default_seed() -> int:
    return int(os.environ.get("UNIVLB_SEED", "0"))


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ``ConfigError`` (exit code 1, one line);
    argparse itself would exit with 2, the certificate-falsification code.
    Subcommand parsers inherit this class."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="univlb", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-expander", help="construct an LPS expander and its certificate")
    p.add_argument("--p", type=int, required=True, help="LPS prime p (degree p+1)")
    p.add_argument("--q", type=int, required=True, help="LPS prime q (group size)")
    p.add_argument("--out", required=True, help="graph file; certificate lands at <out>.cert.json")

    p = sub.add_parser("gen-instance", help="generate a random metric instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("euclidean", "uniform"), default="euclidean")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--out", required=True)

    for name in ("run-steiner-lb", "run-tsp-lb", "run-universal", "run-dp-transfer"):
        p = sub.add_parser(name, help=f"run the {name[4:]} pipeline")
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--graph", help="lps:p,q | file:path | path")
        p.add_argument("--solution", help="spt | frt | random-tour | spt-tour")
        p.add_argument("--solution-count", type=int, dest="solution_count")
        p.add_argument("--trials", type=int)
        p.add_argument("--t", help="walk length or 'auto'")
        p.add_argument("--blocks", help="tour block count or 'auto'")
        p.add_argument("--oracle-cap", type=int, dest="oracle_cap")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--csv", help="per-trial rows")
        p.add_argument("--json", help="report summary")
        p.add_argument("--metrics", type=int)
        p.add_argument("--universe", type=int)
        p.add_argument("--mechanisms", type=int)
        p.add_argument("--eps", type=float)

    p = sub.add_parser("oracle", help="exact optimum on a terminal set")
    p.add_argument("problem", choices=("steiner", "tsp"))
    p.add_argument("--metric", required=True)
    p.add_argument("--terminals", required=True, help="comma-separated vertex list")

    p = sub.add_parser("audit-dp", help="audit a mechanism file at a given eps")
    p.add_argument("--mech", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--distance", type=int, default=1)

    p = sub.add_parser("transfer", help="privacy threshold eps0 of a witness file")
    p.add_argument("--witness", required=True, help="JSON: {alpha, rho: {k: prob}}")

    p = sub.add_parser("report", help="merge report JSONs into tidy plot CSV")
    p.add_argument("--json", nargs="+", required=True)
    p.add_argument("--csv", required=True)

    return top


def cmd_gen_expander(args) -> int:
    g, cert = lps_graph(args.p, args.q)
    write_graph(g, args.out)
    write_certificate(cert, str(args.out) + ".cert.json")
    print(f"wrote {args.out} (n={g.n}, m={g.m}) and {args.out}.cert.json "
          f"(beta in [{cert.beta_lo:.6f}, {cert.beta:.6f}])")
    return 0


def cmd_gen_instance(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    rng = stream(seed, 6)
    if args.kind == "euclidean":
        m = random_euclidean_metric(args.n, rng, root=args.root)
    else:
        m = random_uniform_metric(args.n, rng, root=args.root)
    write_metric(m, args.out)
    print(f"wrote {args.out} (n={m.n}, root={m.root})")
    return 0


def cmd_run(args, pipeline: str) -> int:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    overrides["pipeline"] = pipeline
    file_values = RunConfig.parse_file(args.config) if args.config else {}
    # seed precedence: --seed > config file > UNIVLB_SEED > 0
    if overrides.get("seed") is None and "seed" not in file_values:
        overrides["seed"] = _default_seed()
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig.make(**merged)
    report = run_experiment(cfg)
    summary = {k: v for k, v in report.aggregates.items() if not isinstance(v, dict)}
    print(json.dumps(summary, sort_keys=True, default=str))
    return 0


def cmd_oracle(args) -> int:
    m = read_metric(args.metric)
    terminals = [int(x) for x in args.terminals.split(",") if x.strip()]
    if args.problem == "steiner":
        cost, edges = steiner_exact_witness(m, terminals)
        print(f"opt_steiner = {cost}")
        for u, v in edges:
            print(f"edge {u} {v}")
    else:
        cost, order = tsp_exact_witness(m, terminals)
        print(f"opt_tsp = {cost}")
        print("order " + " ".join(map(str, order)))
    return 0


def cmd_audit_dp(args) -> int:
    mech = read_mechanism(args.mech)
    report = dp_audit(mech, args.eps, distance=args.distance)
    verdict = "pass" if report.passed else "fail"
    print(f"{verdict} worst_ratio={report.worst_ratio}")
    if not report.passed and report.witness_pair is not None:
        a, b = report.witness_pair
        print(f"witness X={sorted(a)} X'={sorted(b)} solution={report.witness_solution}")
    return 0 if report.passed else 1


def cmd_transfer(args) -> int:
    doc = json.loads(Path(args.witness).read_text())
    if not (isinstance(doc, dict) and _is_number(doc.get("alpha"))
            and isinstance(doc.get("rho"), dict)
            and all(_is_number(v) for v in doc["rho"].values())):
        raise ConfigError(f"{args.witness}: a witness is a JSON object with a numeric "
                          "'alpha' and an object 'rho' of numbers")
    witness = LowerBoundWitness(
        alpha=float(doc["alpha"]),
        rho={int(k): float(v) for k, v in doc["rho"].items()},
    )
    eps0 = transfer_lower_bound(witness)
    print(f"eps0 = {eps0}")
    return 0


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def cmd_report(args) -> int:
    docs = [json.loads(Path(p).read_text()) for p in args.json]
    Path(args.csv).write_text(emit_plot_data(docs))
    print(f"wrote {args.csv}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen-expander":
            return cmd_gen_expander(args)
        if args.command == "gen-instance":
            return cmd_gen_instance(args)
        if args.command == "run-steiner-lb":
            return cmd_run(args, "steiner-lb")
        if args.command == "run-tsp-lb":
            return cmd_run(args, "tsp-lb")
        if args.command == "run-universal":
            return cmd_run(args, "universal-upper")
        if args.command == "run-dp-transfer":
            return cmd_run(args, "dp-transfer")
        if args.command == "oracle":
            return cmd_oracle(args)
        if args.command == "audit-dp":
            return cmd_audit_dp(args)
        if args.command == "transfer":
            return cmd_transfer(args)
        if args.command == "report":
            return cmd_report(args)
        parser.error(f"unknown command {args.command!r}")
    except CertificateFalsification as exc:
        print(f"CERTIFICATE FALSIFIED: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, GraphError, OracleRefusal, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
