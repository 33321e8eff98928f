"""Expander construction and spectral certification.

Two constructions:

* ``lps_graph(p, q)`` -- the Lubotzky-Phillips-Sarnak Ramanujan Cayley graphs
  on PSL(2,q) / PGL(2,q), giving (p+1)-regular graphs whose normalized second
  eigenvalue is at most 2*sqrt(p)/(p+1) and whose girth grows logarithmically.
* ``random_regular(n, d, seed)`` -- configuration-model d-regular graphs, a
  practical stand-in when high girth is not required.

Certification measures the second-largest normalized adjacency eigenvalue by
power iteration with deflation of the trivial eigenvector(s); the raw
eigenvalue is never exposed, only ``beta = |lambda_2| / d``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .graphs import Graph, bipartition, diameter_ecc, girth, is_connected


class ExpanderError(ValueError):
    pass


@dataclass(frozen=True)
class ExpanderCertificate:
    n: int
    d: int
    beta: float
    girth: int | None
    diameter: int
    construction: str  # "lps" | "random-regular"
    ramanujan_bound: float | None = None
    bipartite: bool = False
    simple: bool = True

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExpanderCertificate":
        return ExpanderCertificate(**json.loads(text))


def write_certificate(cert: ExpanderCertificate, path: str | Path) -> None:
    Path(path).write_text(cert.to_json() + "\n")


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def legendre_symbol(a: int, p: int) -> int:
    """1 if a is a nonzero quadratic residue mod p, -1 if non-residue, 0 if p | a."""
    ls = pow(a % p, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def sqrt_mod(a: int, q: int) -> int:
    """Smallest x with x^2 = a (mod q); brute force is fine at desk-scale q."""
    a %= q
    for x in range(q):
        if x * x % q == a:
            return x
    raise ExpanderError(f"{a} is not a square mod {q}")


def _quaternion_solutions(p: int) -> list[tuple[int, int, int, int]]:
    """All (a,b,c,d) with a^2+b^2+c^2+d^2 = p, a odd positive, b,c,d even."""
    limit = int(math.isqrt(p))
    odds = [a for a in range(1, limit + 1) if a % 2 == 1]
    evens = [e for e in range(-limit, limit + 1) if e % 2 == 0]
    sols = []
    for a, b, c, d in itertools.product(odds, evens, evens, evens):
        if a * a + b * b + c * c + d * d == p:
            sols.append((a, b, c, d))
    return sols


def _canon(mat: tuple[int, int, int, int], q: int) -> tuple[int, int, int, int]:
    """Projective canonical form: scale so the first nonzero entry is 1."""
    for x in mat:
        if x % q != 0:
            inv = pow(x, q - 2, q)
            return tuple((inv * y) % q for y in mat)  # type: ignore[return-value]
    raise ExpanderError("zero matrix cannot be normalized")


def _matmul(a: tuple[int, int, int, int], b: tuple[int, int, int, int], q: int) -> tuple[int, int, int, int]:
    return (
        (a[0] * b[0] + a[1] * b[2]) % q,
        (a[0] * b[1] + a[1] * b[3]) % q,
        (a[2] * b[0] + a[3] * b[2]) % q,
        (a[2] * b[1] + a[3] * b[3]) % q,
    )


def lps_generators(p: int, q: int) -> list[tuple[int, int, int, int]]:
    """The p+1 canonical generator matrices of the LPS Cayley graph."""
    i = sqrt_mod(q - 1, q)
    gens = []
    for a, b, c, d in _quaternion_solutions(p):
        mat = ((a + i * b) % q, (c + i * d) % q, (-c + i * d) % q, (a - i * b) % q)
        det = (mat[0] * mat[3] - mat[1] * mat[2]) % q
        if det != p % q:
            raise ExpanderError("generator determinant mismatch")
        gens.append(_canon(mat, q))
    if len(gens) != p + 1:
        raise ExpanderError(f"expected {p + 1} quaternion solutions, found {len(gens)}")
    return gens


@functools.cache
def lps_graph(p: int, q: int, beta_tol: float = 1e-7) -> tuple[Graph, ExpanderCertificate]:
    """Construct the LPS Ramanujan graph X(p, q) with its certificate.

    Construction is deterministic, so results are memoized per (p, q);
    the returned objects are immutable and safe to share.

    Requires distinct primes p, q = 1 (mod 4). Vertices are the elements of
    PSL(2,q) when p is a quadratic residue mod q, and of PGL(2,q) (bipartite
    graph) otherwise; edges come from right-multiplication by the p+1
    generators. The graph is simple whenever q > 2*sqrt(p); smaller q gets
    its multi-edges kept and flagged in the certificate.

    Girth and diameter are computed from a single root, which is exact here
    because Cayley graphs are vertex-transitive.
    """
    if p == q:
        raise ExpanderError("p and q must be distinct")
    for name, val in (("p", p), ("q", q)):
        if not is_prime(val):
            raise ExpanderError(f"{name}={val} is not prime")
        if val % 4 != 1:
            raise ExpanderError(f"{name}={val} must be congruent to 1 mod 4")

    gens = lps_generators(p, q)
    gen_multiplicity: dict[tuple[int, int, int, int], int] = {}
    for gmat in gens:
        gen_multiplicity[gmat] = gen_multiplicity.get(gmat, 0) + 1

    # Breadth-first closure: ``order`` is the queue, so each element gets its
    # index when first reached and each product u * g is computed once.
    identity = _canon((1, 0, 0, 1), q)
    index: dict[tuple[int, int, int, int], int] = {identity: 0}
    order = [identity]
    pair_count: dict[tuple[int, int], int] = {}
    for u, mat in enumerate(order):
        for gmat, mult in gen_multiplicity.items():
            prod = _canon(_matmul(mat, gmat, q), q)
            v = index.setdefault(prod, len(order))
            if v == len(order):
                order.append(prod)
            key = (u, v) if u <= v else (v, u)
            pair_count[key] = pair_count.get(key, 0) + mult

    n = len(order)
    residue = legendre_symbol(p, q)
    expected = q * (q * q - 1) // 2 if residue == 1 else q * (q * q - 1)
    if n != expected:
        raise ExpanderError(f"group closure has {n} elements, expected {expected}")

    # Each undirected edge is produced twice (once from either endpoint via
    # the inverse generator), so halve the multiplicities.
    edges = []
    for (u, v), count in sorted(pair_count.items()):
        if count % 2 != 0:
            raise ExpanderError("generator set is not closed under inverses")
        edges.extend([(u, v)] * (count // 2))
    g = Graph(n=n, edges=tuple(edges))

    if g.regular_degree != p + 1:
        raise ExpanderError(f"graph is not {p + 1}-regular")
    if not is_connected(g):
        raise ExpanderError("Cayley graph is not connected")

    beta = second_eigenvalue(g, tol=beta_tol)
    bound = 2.0 * math.sqrt(p) / (p + 1)
    cert = ExpanderCertificate(
        n=n,
        d=p + 1,
        beta=beta,
        girth=girth(g, roots=(0,)),
        diameter=diameter_ecc(g),
        construction="lps",
        ramanujan_bound=bound,
        bipartite=bipartition(g) is not None,
        simple=g.simple,
    )
    return g, cert


def random_regular(n: int, d: int, seed: int, max_tries: int = 200) -> Graph:
    """Simple d-regular graph via incremental stub pairing with restarts.

    Stubs are paired one random suitable pair at a time (no self-loops, no
    duplicate edges); if the remaining stubs admit no suitable pair the whole
    attempt restarts. Deterministic for a fixed seed; raises after
    ``max_tries`` restarts (or immediately for infeasible n, d).
    """
    if n * d % 2 != 0:
        raise ExpanderError(f"n*d must be even, got n={n}, d={d}")
    if d >= n:
        raise ExpanderError(f"need d < n, got n={n}, d={d}")
    if d < 0:
        raise ExpanderError("degree must be nonnegative")
    if d == 0:
        return Graph(n=n, edges=())
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, d)))
    for _ in range(max_tries):
        edges = _pairing_attempt(n, d, rng)
        if edges is not None:
            return Graph(n=n, edges=tuple(sorted(edges)))
    raise ExpanderError(f"pairing budget exhausted for n={n}, d={d}")


def _pairing_attempt(n: int, d: int, rng: np.random.Generator) -> list | None:
    stubs = list(np.repeat(np.arange(n), d))
    present: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    misses = 0
    while stubs:
        i = int(rng.integers(len(stubs)))
        j = int(rng.integers(len(stubs)))
        if i == j:
            continue
        u, v = stubs[i], stubs[j]
        key = (u, v) if u < v else (v, u)
        if u == v or key in present:
            misses += 1
            if misses > 50 and not _suitable_exists(stubs, present):
                return None
            continue
        misses = 0
        present.add(key)
        edges.append((int(key[0]), int(key[1])))
        for k in sorted((i, j), reverse=True):
            stubs[k] = stubs[-1]
            stubs.pop()
    return edges


def _suitable_exists(stubs: list, present: set) -> bool:
    distinct = sorted(set(int(s) for s in stubs))
    for ai, a in enumerate(distinct):
        for b in distinct[ai + 1:]:
            if (a, b) not in present:
                return True
    return False


def second_eigenvalue(g: Graph, tol: float = 1e-9, max_iter: int = 20000, seed: int = 7) -> float:
    """Normalized second adjacency eigenvalue magnitude |lambda_2| / d.

    Power iteration on the adjacency operator after deflating the all-ones
    eigenvector (and, for bipartite graphs, the alternating +/-1 eigenvector
    that carries -d). The estimate is the norm ratio ||Ax|| / ||x||,
    which converges to the largest remaining magnitude even when positive and
    negative eigenvalues tie.
    """
    d = g.regular_degree
    if d is None:
        raise ExpanderError("second_eigenvalue requires a regular graph")
    if g.n == 1 or d == 0:
        return 0.0
    if not is_connected(g):
        raise ExpanderError("graph must be connected")

    adj = g.adjacency.astype(np.float64)
    n = g.n
    ones = np.full(n, 1.0 / math.sqrt(n))
    color = bipartition(g)
    alt = None
    if color is not None:
        alt = np.where(color == 0, 1.0, -1.0)
        alt /= np.linalg.norm(alt)

    def deflate(x: np.ndarray) -> np.ndarray:
        x = x - (x @ ones) * ones
        if alt is not None:
            x = x - (x @ alt) * alt
        return x

    rng = np.random.default_rng(seed)
    x = deflate(rng.standard_normal(n))
    norm = np.linalg.norm(x)
    if norm < 1e-12:
        return 0.0
    x /= norm
    est = 0.0
    for _ in range(max_iter):
        y = deflate(adj @ x)
        norm = float(np.linalg.norm(y))
        if norm < 1e-12:
            return 0.0
        new_est = norm  # ||Ax|| with ||x|| = 1
        x = y / norm
        if abs(new_est - est) < tol * d:
            return new_est / d
        est = new_est
    raise ExpanderError(f"power iteration did not converge within {max_iter} iterations")
