from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
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


def test_lps_guard_inverse_closure(monkeypatch):
    # dropping one generator keeps the whole group but not its inverse
    real = expanders.lps_generators
    monkeypatch.setattr(expanders, "lps_generators", lambda p, q: real(p, q)[:-1])
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
    def disjoint_k7s(n, edges):
        return Graph(n=n, edges=tuple((b + i, b + j) for b in range(0, n, 7)
                                      for i in range(7) for j in range(i + 1, 7)))

    monkeypatch.setattr(expanders, "Graph", disjoint_k7s)
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
    dense = np.linalg.eigvalsh(g.adjacency.toarray().astype(float))
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
    """Reference beta_hi at step k in exact integers: n ||A^k e_0||^2 counts
    the closed walks of length 2k at every vertex, minus the trivial
    eigenvalues' share (1 + bipartite) d^{2k}."""
    d, table = g.regular_degree, g.neighbor_table.tolist()
    counts = [1] + [0] * (g.n - 1)  # A^k e_0: walks of length k from vertex 0
    for _ in range(k):
        nxt = [0] * g.n
        for u, c in enumerate(counts):
            if c:
                for v in table[u]:
                    nxt[v] += c
        counts = nxt
    trace = g.n * sum(c * c for c in counts) - (1 + (bipartition(g) is not None)) * d ** (2 * k)
    return math.exp(math.log(trace) / (2 * k)) / d


def _enclosure_in(err: ExpanderError) -> tuple[float, float]:
    lo, hi = re.search(r"beta in \[(\S+), (\S+)\]", str(err)).groups()
    return float(lo), float(hi)


def test_beta_hi_matches_the_integer_trace(monkeypatch, lps_5_13):
    # a cap of k steps, far below the 241 lps(5,13) needs, leaves the loop's
    # last enclosure, at step k, in the error
    g, k = lps_5_13[0], 40
    monkeypatch.setattr(expanders, "BETA_MAX_STEPS", k)
    with pytest.raises(ExpanderError, match=r"within 40 steps") as info:
        second_eigenvalue(g)
    _, hi = _enclosure_in(info.value)
    assert hi == pytest.approx(_trace_beta_hi(g, k) * (1 + expanders.BETA_MARGIN), rel=1e-12)


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
        assert want > bound or bound - want <= hi - lo
        return
    assert lo <= want <= hi


def test_certificate_json_roundtrip(tmp_path, lps_5_13):
    _, cert = lps_5_13
    path = tmp_path / "c.json"
    write_certificate(cert, path)
    back = ExpanderCertificate(**json.loads(path.read_text()))
    assert back == cert
