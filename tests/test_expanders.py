from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from univlb import expanders, experiments, graphs, solutions
from univlb.expanders import (
    ExpanderCertificate,
    ExpanderError,
    legendre_symbol,
    lps_generators,
    lps_graph,
    second_eigenvalue,
    sqrt_mod,
    write_certificate,
)
from univlb.experiments import RunConfig, run_experiment
from univlb.graphs import Graph, bipartition, diameter_ecc, girth, is_connected
from univlb.walks import walk_operator


def test_legendre_and_sqrt():
    # squares mod 13 are {1, 3, 4, 9, 10, 12}
    assert [a for a in range(1, 13) if legendre_symbol(a, 13) == 1] == [1, 3, 4, 9, 10, 12]
    assert legendre_symbol(5, 13) == -1
    i = sqrt_mod(12, 13)  # -1 mod 13
    assert (i * i) % 13 == 12


def test_lps_generator_count():
    gens = lps_generators(5, 13)
    assert len(gens) == 6


def test_lps_5_13_certificate(lps_5_13):
    g, cert = lps_5_13
    assert cert.n == 13 ** 3 - 13 == 2184  # PGL case: 5 is a non-residue mod 13
    assert cert.d == 6
    assert g.regular_degree == 6
    assert cert.bipartite
    assert cert.simple
    assert cert.beta_lo <= cert.beta <= cert.ramanujan_bound == 2 * math.sqrt(5) / 6
    assert cert.girth == girth(g, roots=(0,))
    assert is_connected(g)


def test_lps_build_sweeps_vertex_0_once(monkeypatch, lps_5_13):
    # connectivity, bipartiteness, beta's deflation, the diameter and the
    # steiner-lb shortest-path tree all read the one cached BFS from vertex 0
    sources = []
    real = graphs.bfs_parents

    def counting(g, source):
        sources.append(source)
        return real(g, source)

    monkeypatch.setattr(graphs, "bfs_parents", counting)
    monkeypatch.setattr(solutions, "bfs_parents", counting)
    g, cert = lps_graph.__wrapped__(5, 13)  # bypass the memo: a fresh build
    assert sources == [0]
    assert np.array_equal(g.edges, lps_5_13[0].edges)
    assert cert == lps_5_13[1]

    sources.clear()
    monkeypatch.setattr(experiments, "lps_graph", lps_graph.__wrapped__)
    run_experiment(RunConfig.make(pipeline="steiner-lb", graph="lps:5,13", trials=5))
    assert sources == [0]


def _canon(mat: tuple[int, int, int, int], q: int) -> tuple[int, int, int, int]:
    """Projective canonical form: scale so the first nonzero entry is 1."""
    for x in mat:
        if x % q != 0:
            inv = pow(x, q - 2, q)
            return tuple((inv * y) % q for y in mat)
    raise ExpanderError("zero matrix cannot be normalized")


def _matmul(a, b, q: int) -> tuple[int, int, int, int]:
    return (
        (a[0] * b[0] + a[1] * b[2]) % q,
        (a[0] * b[1] + a[1] * b[3]) % q,
        (a[2] * b[0] + a[3] * b[2]) % q,
        (a[2] * b[1] + a[3] * b[3]) % q,
    )


def _two_pass_lps(p: int, q: int) -> tuple[Graph, ExpanderCertificate]:
    """Reference LPS build: the frontier closure one product at a time over
    Python tuples, then a second pass that recomputes every product to
    collect the edges."""
    mult: dict = {}
    for gmat in map(tuple, lps_generators(p, q).tolist()):
        mult[gmat] = mult.get(gmat, 0) + 1
    identity = _canon((1, 0, 0, 1), q)
    index = {identity: 0}
    order = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for mat in frontier:
            for gmat in mult:
                prod = _canon(_matmul(mat, gmat, q), q)
                if prod not in index:
                    index[prod] = len(order)
                    order.append(prod)
                    nxt.append(prod)
        frontier = nxt
    pair_count: dict = {}
    for u, mat in enumerate(order):
        for gmat, k in mult.items():
            v = index[_canon(_matmul(mat, gmat, q), q)]
            key = (min(u, v), max(u, v))
            pair_count[key] = pair_count.get(key, 0) + k
    edges = []
    for key, count in sorted(pair_count.items()):
        assert count % 2 == 0
        edges.extend([key] * (count // 2))
    g = Graph(n=len(order), edges=tuple(edges))
    beta_lo, beta_hi = second_eigenvalue(g)
    cert = ExpanderCertificate(
        n=g.n, d=p + 1, beta=beta_hi, beta_lo=beta_lo, girth=girth(g, roots=(0,)),
        diameter=diameter_ecc(g), construction="lps",
        ramanujan_bound=2.0 * math.sqrt(p) / (p + 1),
        bipartite=bipartition(g) is not None, simple=g.simple,
    )
    return g, cert


# PGL, PSL, multi-edges, the steiner-lb graph, and 42 generators
@pytest.mark.parametrize("p, q", [(5, 13), (13, 17), (29, 5), (5, 29), (41, 13)])
def test_lps_one_pass_matches_two_pass_reference(p, q):
    g, cert = lps_graph(p, q)
    ref_g, ref_cert = _two_pass_lps(p, q)
    assert np.array_equal(g.edges, ref_g.edges)
    assert cert == ref_cert


def test_lps_generators_match_scalar_canon():
    for p, q in [(5, 13), (13, 17), (29, 5), (41, 29)]:
        gens = lps_generators(p, q)
        assert gens.shape == (p + 1, 4)
        assert [_canon(tuple(row), q) for row in gens.tolist()] == list(map(tuple, gens.tolist()))


def test_lps_computes_each_product_once(monkeypatch):
    rows = []
    real = expanders._canon_rows

    def counting(mats, q):
        rows.append(len(mats))
        return real(mats, q)

    monkeypatch.setattr(expanders, "_canon_rows", counting)
    _, cert = lps_graph.__wrapped__(5, 13)
    # the 6 generators, then one pass per BFS level (the last one discovers
    # nothing) over 2184 elements x 6 distinct generators
    assert rows[0] == 6
    assert len(rows) - 1 == cert.diameter + 1
    assert sum(rows[1:]) == 2184 * 6


def test_lps_guard_group_size(monkeypatch):
    # one generator spans a cyclic subgroup, not PGL(2,13)
    real = expanders.lps_generators
    monkeypatch.setattr(expanders, "lps_generators", lambda p, q: real(p, q)[:1])
    with pytest.raises(ExpanderError, match="group closure has .* elements, expected 2184"):
        lps_graph.__wrapped__(5, 13)
    # a generator of non-residue determinant 3 takes PSL(2,17) to PGL(2,17),
    # twice the 2448 elements the closure's table is sized for
    monkeypatch.setattr(expanders, "lps_generators",
                        lambda p, q: np.vstack([real(p, q), [[1, 0, 0, 3]]]))
    with pytest.raises(ExpanderError, match="group closure has over 2448 elements"):
        lps_graph.__wrapped__(13, 17)


def test_lps_guard_inverse_closure(monkeypatch):
    # dropping one generator keeps the whole group but not its inverse
    real = expanders.lps_generators
    monkeypatch.setattr(expanders, "lps_generators", lambda p, q: real(p, q)[:-1])
    with pytest.raises(ExpanderError, match="not closed under inverses"):
        lps_graph.__wrapped__(5, 13)
    # the identity once is half a self-loop
    monkeypatch.setattr(expanders, "lps_generators",
                        lambda p, q: np.vstack([real(p, q), [[1, 0, 0, 1]]]))
    with pytest.raises(ExpanderError, match="not closed under inverses"):
        lps_graph.__wrapped__(5, 13)
    # g twice in place of its inverse: every pair's count stays even, but
    # u lists u * g twice while u * g lists u never
    gens = real(5, 13)
    a, b, c, d = gens[0].tolist()
    inverse = list(_canon((d, -b % 13, -c % 13, a), 13))
    twice = np.vstack([[row for row in gens.tolist() if row != inverse], gens[:1]])
    assert len(twice) == 6
    monkeypatch.setattr(expanders, "lps_generators", lambda p, q: twice)
    with pytest.raises(ExpanderError, match="not closed under inverses"):
        lps_graph.__wrapped__(5, 13)


def test_lps_guard_regular_degree(monkeypatch):
    # the identity twice adds one self-loop per vertex: 8-regular, not 6
    real = expanders.lps_generators
    monkeypatch.setattr(expanders, "lps_generators",
                        lambda p, q: np.vstack([real(p, q), [[1, 0, 0, 1]] * 2]))
    with pytest.raises(ExpanderError, match="graph is not 6-regular"):
        lps_graph.__wrapped__(5, 13)


def test_lps_guard_connected(monkeypatch):
    # 312 disjoint copies of K7: 6-regular on 2184 vertices, disconnected
    def disjoint_k7s(p, q):
        n = 2184
        return Graph(n=n, edges=tuple((b + i, b + j) for b in range(0, n, 7)
                                      for i in range(7) for j in range(i + 1, 7)))

    monkeypatch.setattr(expanders, "_cayley_graph", disjoint_k7s)
    with pytest.raises(ExpanderError, match="Cayley graph is not connected"):
        lps_graph.__wrapped__(5, 13)


def test_lps_beta_gate_fails_end_to_end(monkeypatch):
    # C_2184(+-1, +-2, +-3): connected and 6-regular like lps(5,13), but no
    # expander, so its beta is over the Ramanujan bound 2 sqrt(5) / 6
    def circulant(p, q):
        n = 2184
        return Graph(n=n, edges=[(i, (i + k) % n) for k in (1, 2, 3) for i in range(n)])

    monkeypatch.setattr(expanders, "_cayley_graph", circulant)
    lps_graph.cache_clear()
    with pytest.raises(ExpanderError, match="exceeds the Ramanujan bound"):
        lps_graph(5, 13)
    with pytest.raises(ExpanderError, match="exceeds the Ramanujan bound"):
        run_experiment(RunConfig.make(pipeline="steiner-lb", graph="lps:5,13", trials=1))


def test_lps_psl_case():
    # 13 is a quadratic residue mod 17, so the graph lives on PSL(2,17).
    g, cert = lps_graph(13, 17)
    assert legendre_symbol(13, 17) == 1
    assert cert.n == 17 * (17 ** 2 - 1) // 2
    assert not cert.bipartite
    assert cert.beta <= cert.ramanujan_bound == 2 * math.sqrt(13) / 14


def test_lps_small_q_still_certifies():
    # q=5 < 2*sqrt(13): simplicity is no longer guaranteed by theory, but the
    # construction still yields a (p+1)-regular certified graph (multi-edges,
    # if any, are kept and flagged).
    g, cert = lps_graph(13, 5)
    assert cert.n == 120
    assert cert.d == 14
    assert (g.degrees == 14).all()
    assert cert.beta <= cert.ramanujan_bound
    assert cert.simple == g.simple


def test_lps_parameter_validation():
    with pytest.raises(ExpanderError):
        lps_graph(5, 5)
    with pytest.raises(ExpanderError):
        lps_graph(7, 13)  # 7 % 4 == 3
    with pytest.raises(ExpanderError):
        lps_graph(5, 15)  # not prime


def _dense_beta(g: Graph) -> float:
    """beta from dense ``eigvalsh``: drop the trivial eigenvalue d, and -d when
    the graph is bipartite; 0 when nothing is left (K2)."""
    indptr, indices = g.csr
    adjacency = np.zeros((g.n, g.n))  # entry = multiplicity, 2 per self-loop
    np.add.at(adjacency, (np.repeat(np.arange(g.n), np.diff(indptr)), indices), 1.0)
    dense = np.linalg.eigvalsh(adjacency)
    nontrivial = dense[1:-1] if bipartition(g) is not None else dense[:-1]
    return float(np.abs(nontrivial).max(initial=0.0)) / g.regular_degree


def _assert_encloses_dense(g: Graph) -> tuple[float, float]:
    lo, hi = second_eigenvalue(g)
    assert lo <= _dense_beta(g) <= hi
    assert hi <= 2 * math.sqrt(g.regular_degree - 1) / g.regular_degree
    assert hi <= 1.01 * lo or hi < 1e-7  # K_{3,3}: lo = 0
    return lo, hi


def test_second_eigenvalue_k4(k4):
    # adjacency spectrum {3, -1, -1, -1}: every non-trivial magnitude is 1, so the
    # norm ratio is exact from the first step and beta_lo is beta = 1/3
    lo, _ = _assert_encloses_dense(k4)
    assert lo == pytest.approx(1.0 / 3.0, rel=1e-8)


def test_second_eigenvalue_c6():
    c6 = Graph(n=6, edges=tuple((i, (i + 1) % 6) for i in range(6)))
    # circulant eigenvalues 2cos(2 pi k / 6); after deflating +/-2, all are +/-1
    lo, _ = _assert_encloses_dense(c6)
    assert lo == pytest.approx(0.5, rel=1e-8)


def test_second_eigenvalue_matches_dense_on_petersen(petersen):
    # spectrum {3, 1^5, -2^4}: beta = 2/3
    lo, _ = _assert_encloses_dense(petersen)
    assert lo == pytest.approx(2.0 / 3.0, rel=1e-8)


def test_second_eigenvalue_repeats_across_blas_thread_counts(tmp_path):
    # BLAS dot and norm sum in an order set by the thread count; beta must not
    code = """
from univlb.expanders import lps_graph, second_eigenvalue
g, _ = lps_graph(5, 29)
print(repr(second_eigenvalue(g)))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.strip())
    assert out[0] == out[1]


def test_lps_build_peak_memory_is_within_half_its_live_size(tmp_path):
    # every stage of the lps(41, 29) build holds the adjacency it has built
    # so far plus about two (n * d)-sized temporaries: the traced peak of
    # load_instance stays within 1.5x the 24 MiB it leaves live
    code = """
import tracemalloc
from univlb.experiments import load_instance
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
inst = load_instance("lps:41,29", 2000, False)
live, peak = tracemalloc.get_traced_memory()
print(live - base, peak - base)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    live, peak = map(int, proc.stdout.split())
    assert live > 20 * 2**20  # edges, csr and walk rows: 3 x 8.2 MB
    assert peak <= 1.5 * live, (live, peak)


def test_second_eigenvalue_requires_regular(path3):
    with pytest.raises(ExpanderError):
        second_eigenvalue(path3)


def test_second_eigenvalue_degenerate_spectra():
    # K2: only trivial eigenvalues (+1, -1), both deflated
    k2 = Graph(n=2, edges=((0, 1),))
    assert second_eigenvalue(k2) == (0.0, 0.0)
    _assert_encloses_dense(k2)
    # K_{3,3}: spectrum {3, 0, 0, 0, 0, -3}
    k33 = Graph(n=6, edges=tuple((u, v) for u in (0, 1, 2) for v in (3, 4, 5)))
    lo, hi = _assert_encloses_dense(k33)
    assert lo == 0.0 and hi < 1e-7
    # K1: no edges at all
    assert second_eigenvalue(Graph(n=1, edges=())) == (0.0, 0.0)


# PGL and bipartite, PSL with multi-edges, and the pinned-CSV graph
@pytest.mark.parametrize("p, q", [(13, 5), (29, 5), (5, 13)])
def test_second_eigenvalue_matches_dense_on_lps(p, q):
    g, cert = lps_graph(p, q)
    assert _assert_encloses_dense(g) == (cert.beta_lo, cert.beta)


def _trace_beta_hi(g: Graph, k: int) -> float:
    """Reference warm-up beta_hi at power step k in exact integers:
    n ||A^k e_0||^2 counts the closed walks of length 2k at every vertex,
    minus the trivial eigenvalues' share (1 + bipartite) d^{2k}."""
    d, counts = g.regular_degree, _walk_counts(g, k)[-1]
    trace = g.n * sum(c * c for c in counts) - (1 + (bipartition(g) is not None)) * d ** (2 * k)
    return math.exp(math.log(trace) / (2 * k)) / d


def _walk_counts(g: Graph, k: int) -> list[list[int]]:
    """A^i e_0 for i = 0..k: the walks of length i from vertex 0, in integers."""
    table = g.neighbor_table.tolist()
    out = [[1] + [0] * (g.n - 1)]
    for _ in range(k):
        nxt = [0] * g.n
        for u, c in enumerate(out[-1]):
            if c:
                for v in table[u]:
                    nxt[v] += c
        out.append(nxt)
    return out


def _chebyshev_beta_hi(g: Graph, a: Fraction, k: int) -> float:
    """Reference filter beta_hi at degree k and scale a, from exact rationals:
    S = n ||T_k(A/(d a)) P e_0||^2 is the sum over i, j of T_k's coefficients
    c_i c_j / (d a)^(i+j) times n <A^i e_0, A^j e_0>, the closed walks of
    length i + j at every vertex, minus the trivial eigenvalues' share,
    T_k(1/a)^2 each."""
    d, walks = g.regular_degree, _walk_counts(g, k)
    closed = [sum(x * y for x, y in zip(walks[m - m // 2], walks[m // 2]))
              for m in range(2 * k + 1)]
    prev, coef = [1], [0, 1]  # T_0 and T_1, lowest power first
    for _ in range(k - 1):
        nxt = [2 * c for c in [0] + coef]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, coef = coef, nxt
    scaled = [Fraction(c) / (d * a) ** i for i, c in enumerate(coef)]
    trivial = sum(c * d ** i for i, c in enumerate(scaled)) ** 2
    s = (g.n * sum(ci * cj * closed[i + j] for i, ci in enumerate(scaled)
                   for j, cj in enumerate(scaled) if ci and cj)
         - (1 + (bipartition(g) is not None)) * trivial)
    assert s > 1
    return float(a) * math.cosh(math.acosh(math.sqrt(s)) / k)


def _enclosure_in(err: ExpanderError) -> tuple[float, float]:
    lo, hi = re.search(r"beta in \[(\S+), (\S+)\]", str(err)).groups()
    return float(lo), float(hi)


def test_beta_hi_matches_the_integer_trace(monkeypatch, lps_5_13):
    # a cap at the end of the warm-up leaves its last enclosure in the error,
    # and with it the filter's scale a = beta_lo; a cap k products later, far
    # below the 55 lps(5,13) needs, leaves the filter's enclosure at degree k
    g, k = lps_5_13[0], 20
    warm = expanders.BETA_WARMUP_STEPS
    enclosures = []
    for cap in (warm, warm + k):
        monkeypatch.setattr(expanders, "BETA_MAX_STEPS", cap)
        with pytest.raises(ExpanderError, match=f"within {cap} steps") as info:
            second_eigenvalue(g)
        enclosures.append(_enclosure_in(info.value))
    (a, warm_hi), (_, hi) = enclosures
    margin = 1 + expanders.BETA_MARGIN
    assert warm_hi == pytest.approx(_trace_beta_hi(g, warm) * margin, rel=1e-12)
    assert hi == pytest.approx(_chebyshev_beta_hi(g, Fraction(a), k) * margin, rel=1e-12)


# the power loop the filter replaced took 241, 334 and 238 products
@pytest.mark.parametrize("p, q, cap", [(5, 13, 120), (5, 29, 167), (41, 29, 100)])
def test_second_eigenvalue_product_count(monkeypatch, p, q, cap):
    g, cert = lps_graph(p, q)
    calls = []

    def counting(graph):
        apply = walk_operator(graph)

        def counted(x):
            calls.append(None)
            return apply(x)
        return counted

    monkeypatch.setattr(expanders, "walk_operator", counting)
    assert second_eigenvalue(g) == (cert.beta_lo, cert.beta)
    assert len(calls) <= cap


@st.composite
def circulants(draw):
    """A connected circulant graph C_n(S): a Cayley graph of Z_n, so
    vertex-transitive. 1 is in S so that it is connected; n/2, if drawn,
    is one edge per vertex pair."""
    n = draw(st.integers(3, 40))
    jumps = {1} | set(draw(st.lists(st.integers(1, n // 2), max_size=4)))
    edges = [(u, (u + s) % n) for s in sorted(jumps) for u in range(n if 2 * s != n else s)]
    return Graph(n=n, edges=tuple(edges))


@settings(max_examples=60, deadline=None)
@given(circulants())
def test_second_eigenvalue_encloses_dense_beta_on_circulants(g):
    want = _dense_beta(g)
    d = g.regular_degree
    bound = 2 * math.sqrt(d - 1) / d
    try:
        lo, hi = second_eigenvalue(g)
    except ExpanderError as err:
        lo, hi = _enclosure_in(err)
        assert lo <= want <= hi
        assert want > bound or bound - want <= hi - lo
        return
    assert lo <= want <= hi
    assert hi <= bound
    assert hi <= 1.01 * lo or hi < 1e-7


def test_certificate_json_roundtrip(tmp_path, lps_5_13):
    _, cert = lps_5_13
    path = tmp_path / "c.json"
    write_certificate(cert, path)
    back = ExpanderCertificate(**json.loads(path.read_text()))
    assert back == cert
