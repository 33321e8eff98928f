"""Finite differential-privacy auditing and the universal-to-private transfer.

Everything here is exact: universes are capped small enough that all 2^|U|
terminal sets, all neighboring pairs, and all support probabilities are
enumerated and compared with rational-strength arithmetic (floats plus a
relative tolerance on ratio comparisons only).

A terminal set is a bitmask over the universe: bit i stands for the i-th
smallest element. A mechanism is a distribution over rooted spanning trees
at each terminal set: one array of shape (2^|U|, trees) whose row ``mask``
is the distribution at that set. Its costs are one array of the same shape,
``cost[mask, j]`` = c(T_j[X]), built once by whoever builds the trees.

The transfer theorem machinery: an (alpha, rho) lower-bound witness for
universal algorithms yields the privacy threshold

    eps0 = inf over witness sizes k of (1/k) * ln(1 / (2 * rho(k))),

and any mechanism audited at eps <= eps0 keeps probability at most 1/2 of
beating alpha times the optimum on the witness set. ``transfer_check``
verifies the full chain on a concrete mechanism by exhaustive arithmetic.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adversary import CertificateFalsification
from .solutions import SpanningTree

#: Relative tolerance on probability-ratio comparisons.
RATIO_RTOL = 1e-9


class MechanismError(ValueError):
    pass


@dataclass(frozen=True)
class MechanismTable:
    """Explicit finite mechanism: read-only ``probs[mask, j]`` is the
    probability of the j-th tree of ``solutions`` on terminal set ``mask``."""

    universe: frozenset[int]
    solutions: dict[str, SpanningTree]
    probs: np.ndarray
    claimed_eps: float | None = None

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=np.float64)
        shape = (1 << len(self.universe), len(self.solutions))
        if probs.shape != shape:
            raise MechanismError(f"probability table has shape {probs.shape}, not {shape}")
        negative = (probs < 0).any(axis=1)
        # "not <=" also rejects NaN rows
        bad = np.flatnonzero(negative | ~(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12))
        if bad.size:
            mask = int(bad[0])
            problem = "is negative" if negative[mask] else f"sums to {probs[mask].sum()}"
            raise MechanismError(
                f"distribution at X={sorted(_members(mask, self.universe))} {problem}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    worst_ratio: float
    witness_pair: tuple[frozenset[int], frozenset[int]] | None
    witness_solution: str | None


def _members(mask: int, universe: frozenset[int]) -> frozenset[int]:
    return frozenset(v for i, v in enumerate(sorted(universe)) if mask >> i & 1)


def _mask(X: frozenset[int], universe: frozenset[int]) -> int:
    """The bitmask of terminal set X; the inverse of ``_members``."""
    if not X <= universe:
        raise MechanismError(f"mechanism not defined on X={sorted(X)}")
    return sum(1 << i for i, v in enumerate(sorted(universe)) if v in X)


def all_subsets(universe: frozenset[int]) -> list[frozenset[int]]:
    """Every terminal set, listed by mask."""
    return [_members(mask, universe) for mask in range(1 << len(universe))]


def neighbor_pairs(size: int, distance: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Masks (a, b), a < b, of every pair of terminal sets over a universe of
    ``size`` elements whose symmetric difference has ``distance`` elements."""
    flips = np.array([sum(1 << i for i in bits)
                      for bits in itertools.combinations(range(size), distance)],
                     dtype=np.int64)
    a = np.arange(1 << size, dtype=np.int64)[:, None]
    b = a ^ flips
    keep = a < b
    return np.broadcast_to(a, b.shape)[keep], b[keep]


def dp_audit(
    mech: MechanismTable, eps: float, distance: int = 1
) -> AuditReport:
    """Check the eps-DP ratio bound on every pair at the given distance.

    Pointwise per-solution checks suffice for finite supports (any event is
    a union of atoms). Convention: 0/0 passes; p/0 fails for every finite
    eps. At ``distance`` k the allowed ratio is exp(k * eps) (group
    privacy).
    """
    try:
        bound = math.exp(distance * eps)
    except OverflowError:
        bound = math.inf
    a, b = neighbor_pairs(len(mech.universe), distance)
    pa, pb = mech.probs[a], mech.probs[b]
    za, zb = pa == 0.0, pb == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(pa / pb, pb / pa)  # p/0 is inf
    ratio[za & zb] = 1.0
    worst, pair, sid = 1.0, None, None
    if ratio.size and ratio.max() > 1.0:
        i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
        worst, sid = float(ratio[i, j]), list(mech.solutions)[j]
        pair = _members(int(a[i]), mech.universe), _members(int(b[i]), mech.universe)
    return AuditReport(worst <= bound * (1.0 + RATIO_RTOL) and not (za != zb).any(),
                       worst, pair, sid)


def exponential_mechanism(
    universe: frozenset[int],
    candidates: dict[str, SpanningTree],
    cost: np.ndarray,
    eps: float,
) -> MechanismTable:
    """Reference mechanism: Pr_X[s] proportional to exp(-eps*cost/(2*sens)).

    ``cost[mask, j]`` is the cost of the j-th candidate on terminal set
    ``mask``; sens is its exact sensitivity, the largest change of one
    candidate's cost between neighboring sets (floored at 1e-12).
    Probabilities are shifted by the minimum exponent before
    exponentiation so the table never overflows.
    """
    cost = np.asarray(cost, dtype=np.float64)
    a, b = neighbor_pairs(len(universe))
    sensitivity = max(float(np.abs(cost[b] - cost[a]).max(initial=0.0)), 1e-12)
    exponents = -eps * cost / (2.0 * sensitivity)
    weights = np.exp(exponents - exponents.max(axis=1, keepdims=True))
    total = sum(weights.T)  # column by column: each row summed left to right
    return MechanismTable(universe=universe, solutions=dict(candidates),
                          probs=weights / total[:, None], claimed_eps=eps)


def empty_support_check(mech: MechanismTable) -> tuple[bool, str | None]:
    """Every tree with mass at the empty set must span all of U.

    This is the first step of the transfer argument: privacy forces the
    empty-input distribution to stay inside the feasible set of the full
    universe, otherwise running the mechanism on U would emit an infeasible
    solution with positive probability.
    """
    for (sid, tree), prob in zip(mech.solutions.items(), mech.probs[0].tolist()):
        if prob > 0.0 and not mech.universe <= set(range(tree.n)):
            return False, sid
    return True, None


@dataclass(frozen=True)
class LowerBoundWitness:
    """(alpha, rho) lower bound: any solution distribution has a terminal
    set in ``sets`` where beating ratio alpha has probability at most
    rho(|X|)."""

    alpha: float
    rho: dict[int, float]
    sets: tuple[frozenset[int], ...] = ()

    def __post_init__(self) -> None:
        sizes = sorted(self.rho)
        for a, b in zip(sizes, sizes[1:]):
            if self.rho[b] > self.rho[a] + 1e-12:
                raise ValueError("rho must be non-increasing in |X|")
        for v in self.rho.values():
            if not 0.0 <= v <= 1.0:
                raise ValueError("rho values must lie in [0, 1]")


def transfer_lower_bound(w: LowerBoundWitness) -> float:
    """The privacy threshold eps0 = inf_k (1/k) ln(1 / (2 rho(k))).

    Nonpositive (transfer vacuous) whenever some rho(k) >= 1/2.
    """
    if not w.rho:
        raise ValueError("witness table is empty")
    values = []
    for k, r in w.rho.items():
        if k < 1:
            raise ValueError("witness sizes must be positive")
        if r <= 0.0:
            continue  # unbeatable size: contributes +infinity
        values.append(math.log(1.0 / (2.0 * r)) / k)
    return min(values) if values else math.inf


@dataclass(frozen=True)
class TransferCheck:
    ok: bool
    eps0: float
    witness_set: frozenset[int]
    prob_beat: float
    bound: float


def transfer_check(
    mech: MechanismTable,
    cost: np.ndarray,
    witness: LowerBoundWitness,
    eps: float,
    opt_fn,
) -> TransferCheck:
    """Verify the transfer conclusion on a concrete audited mechanism.

    ``cost[mask, j]`` is the cost of the j-th tree on terminal set ``mask``.
    Treats the mechanism's empty-input distribution as its universal
    solution, finds the witness set X for it (the rho-hardest of the witness
    family), and checks by exact arithmetic that

        Pr_{S ~ D_X}[cost(S on X) <= alpha * opt(X)]
            <= exp(eps |X|) * rho(|X|) <= 1/2.
    """
    cost = np.asarray(cost)
    if cost.shape != mech.probs.shape:
        raise MechanismError(f"cost table has shape {cost.shape}, not {mech.probs.shape}")
    ok_support, bad = empty_support_check(mech)
    if not ok_support:
        raise MechanismError(f"solution {bad!r} infeasible at the full universe")

    def beat_prob(row: int, X: frozenset[int]) -> float:
        costs = cost[_mask(X, mech.universe)].tolist()
        bar = witness.alpha * opt_fn(X)
        return sum(prob for prob, c in zip(mech.probs[row].tolist(), costs) if c <= bar)

    if not witness.sets:
        raise ValueError("witness family is empty")
    # The (alpha, rho) guarantee is existential: some family member must be
    # hard for this mechanism's universal (empty-input) distribution. Take
    # the hardest among those achieving their rho bound.
    best_x = None
    best_p = math.inf
    for X in sorted(witness.sets, key=sorted):
        p = beat_prob(0, X)
        if p <= witness.rho[len(X)] + 1e-12 and p < best_p:
            best_x, best_p = X, p
    if best_x is None:
        raise CertificateFalsification(
            "witness family does not achieve its rho bound on this mechanism"
        )
    rho_k = witness.rho[len(best_x)]

    prob_beat = beat_prob(_mask(best_x, mech.universe), best_x)
    bound = math.exp(eps * len(best_x)) * rho_k
    ok = prob_beat <= bound + 1e-12 and (bound <= 0.5 + 1e-12)
    return TransferCheck(
        ok=ok, eps0=transfer_lower_bound(witness), witness_set=best_x,
        prob_beat=prob_beat, bound=bound,
    )


def write_mechanism(mech: MechanismTable, path: str | Path) -> None:
    """JSON serialization: solution registry plus one probability row per
    mask, keyed by the mask in decimal."""
    doc = {
        "universe": sorted(mech.universe),
        "claimed_eps": mech.claimed_eps,
        "solutions": {sid: _solution_doc(s) for sid, s in mech.solutions.items()},
        "table": {str(mask): dict(sorted(zip(mech.solutions, row)))
                  for mask, row in enumerate(mech.probs.tolist())},
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_mechanism(path: str | Path) -> MechanismTable:
    """Inverse of ``write_mechanism``; a solution a row omits has probability 0."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise MechanismError(f"{path}: a mechanism file holds one JSON object")
    try:
        universe, solutions, rows = doc["universe"], doc["solutions"], doc["table"]
        if not (isinstance(universe, list) and all(type(v) is int for v in universe)
                and isinstance(solutions, dict) and isinstance(rows, dict)):
            raise MechanismError(f"{path}: universe must be a list of integers, and "
                                 "solutions and table JSON objects")
        universe = frozenset(universe)
        solutions = {sid: _solution_from_doc(d) for sid, d in solutions.items()}
    except KeyError as exc:
        raise MechanismError(f"{path}: missing key {exc}") from None
    size = 1 << len(universe)
    # A table of fewer rows than masks misses one of its first len(rows) + 1
    # masks, so a short table is refused before the (size, S) array exists.
    for mask in range(min(size, len(rows) + 1)):
        if not isinstance(rows.get(str(mask)), dict):
            raise MechanismError(
                f"{path}: no row {mask} (X={sorted(_members(mask, universe))})")
    if len(rows) != size:
        raise MechanismError(f"{path}: rows other than masks 0..{size - 1}")
    column = {sid: j for j, sid in enumerate(solutions)}
    probs = np.zeros((size, len(solutions)))
    for mask in range(size):
        for sid, prob in rows[str(mask)].items():
            if sid not in column:
                raise MechanismError(f"{path}: row {mask} names unknown solution {sid!r}")
            if type(prob) not in (int, float):
                raise MechanismError(f"{path}: row {mask} gives {sid!r} a non-number")
            probs[mask, column[sid]] = prob
    return MechanismTable(universe=universe, solutions=solutions, probs=probs,
                          claimed_eps=doc.get("claimed_eps"))


def _solution_doc(s: SpanningTree) -> dict:
    return {"kind": "tree", "root": s.root, "parent": s.parent.tolist(),
            "edge_cost": s.edge_cost.tolist()}


def _solution_from_doc(doc: dict) -> SpanningTree:
    kind = doc["kind"] if isinstance(doc, dict) else None
    if kind != "tree":
        raise MechanismError(f"unknown solution kind {kind!r}")
    root, parent, edge_cost = doc["root"], doc["parent"], doc["edge_cost"]
    # type(), not isinstance(): JSON true and false load as bool, an int subclass
    if not (isinstance(parent, list) and all(type(v) is int for v in [root, *parent])):
        raise MechanismError("tree root and parent entries must be integers")
    if not (isinstance(edge_cost, list) and all(type(c) in (int, float) for c in edge_cost)):
        raise MechanismError("tree edge_cost entries must be numbers")
    return SpanningTree(root=root, parent=parent, edge_cost=edge_cost)
