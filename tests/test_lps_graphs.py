"""LPS graphs: generators, group enumeration, spectra, expansion constants."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ramkit import DomainError
from ramkit.lps_graphs import (
    PGL,
    PSL,
    FourSquares,
    Graph,
    ProjMatrix,
    _coset_action,
    _real_block,
    _representative_blocks,
    build_lps,
    cayley_graph,
    enumerate_group,
    expansion_constant,
    four_square_solutions,
    generating_set,
    is_connected,
    lps_spectrum,
    spectral_report,
)

# the X^(5,29) generating set in its two printed normalizations: the
# raw four-squares matrices S (det 5) and the rescaled S' (det 1)
S_RAW_5_29 = [
    (25, 0, 0, 6),
    (6, 0, 0, 25),
    (1, 2, 27, 1),
    (1, 27, 2, 1),
    (1, 24, 24, 1),
    (1, 5, 5, 1),
]
S_RESCALED_5_29 = [
    (26, 0, 0, 19),
    (19, 0, 0, 26),
    (8, 16, 13, 8),
    (8, 13, 16, 8),
    (8, 18, 18, 8),
    (8, 11, 11, 8),
]
GEN_5_29_CANONICAL = {
    (3, 0, 0, 10),
    (8, 11, 11, 8),
    (8, 13, 16, 8),
    (8, 16, 13, 8),
    (8, 18, 18, 8),
    (10, 0, 0, 3),
}
GEN_5_13_CANONICAL = {
    (1, 0, 0, 6),
    (1, 0, 0, 11),
    (1, 2, 11, 1),
    (1, 3, 3, 1),
    (1, 10, 10, 1),
    (1, 11, 2, 1),
}


def cycle_graph(n: int) -> Graph:
    return Graph(n=n, adjacency=[sorted(((i - 1) % n, (i + 1) % n)) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n=n, adjacency=[[j for j in range(n) if j != i] for i in range(n)])


def test_four_square_solutions_5():
    sols = {s.astuple() for s in four_square_solutions(5)}
    assert sols == {
        (1, 2, 0, 0),
        (1, -2, 0, 0),
        (1, 0, 2, 0),
        (1, 0, -2, 0),
        (1, 0, 0, 2),
        (1, 0, 0, -2),
    }


def test_four_square_solution_count_is_p_plus_one():
    for p in (5, 13, 17, 29):
        sols = four_square_solutions(p)
        assert len(sols) == p + 1
        for s in sols:
            a0, a1, a2, a3 = s.astuple()
            assert a0 > 0 and a0 % 2 == 1
            assert a1 % 2 == a2 % 2 == a3 % 2 == 0
            assert a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 == p


def test_four_squares_validation():
    with pytest.raises(DomainError):
        FourSquares(2, 1, 0, 0)


def test_projective_canonical_pgl():
    m = ProjMatrix.canonical(2, 4, 6, 8, 13, PGL)
    assert m.entries()[0] == 1  # scaled so the first nonzero entry is 1
    # scalar multiples collapse to the same representative
    m2 = ProjMatrix.canonical(6, 12, 18, 24, 13, PGL)
    assert m == m2
    with pytest.raises(DomainError):
        ProjMatrix.canonical(1, 0, 0, 13, 13, PGL)  # singular mod 13


def test_projective_canonical_psl():
    m = ProjMatrix.canonical(26, 0, 0, 19, 29, PSL)
    assert m.entries() == (3, 0, 0, 10)
    assert (m.a * m.d - m.b * m.c) % 29 == 1
    with pytest.raises(DomainError):
        ProjMatrix.canonical(2, 0, 0, 1, 29, PSL)  # determinant 2, not 1


def test_matmul_and_inverse():
    m = ProjMatrix.canonical(8, 16, 13, 8, 29, PSL)
    ident = m @ m.inverse()
    assert ident.entries() == (1, 0, 0, 1)


def test_generating_set_5_29_matches_reference():
    gens = generating_set(5, 29)
    assert all(g.kind == PSL for g in gens)
    assert {g.entries() for g in gens} == GEN_5_29_CANONICAL
    # both printed normalizations canonicalize onto the same set
    assert {
        ProjMatrix.canonical(*m, 29, PSL).entries() for m in S_RESCALED_5_29
    } == GEN_5_29_CANONICAL
    assert {ProjMatrix.canonical(*m, 29, PGL) for m in S_RAW_5_29} == {
        ProjMatrix.canonical(*m, 29, PGL) for m in S_RESCALED_5_29
    }
    # closed under inverses, so the Cayley graph is undirected
    gen_set = set(gens)
    assert all(g.inverse() in gen_set for g in gens)


def test_generating_set_5_13_is_pgl_branch():
    gens = generating_set(5, 13)
    assert all(g.kind == PGL for g in gens)
    assert {g.entries() for g in gens} == GEN_5_13_CANONICAL


def test_generating_set_rejects_bad_args():
    with pytest.raises(DomainError):
        generating_set(4, 29)
    with pytest.raises(DomainError):
        generating_set(5, 7)  # q not 1 mod 4
    with pytest.raises(DomainError):
        generating_set(13, 5)  # q^2 <= 4p
    with pytest.raises(DomainError):
        generating_set(5, 5)


def test_group_orders():
    assert len(enumerate_group(5, PGL)) == 120
    assert len(enumerate_group(13, PGL)) == 2184
    assert len(enumerate_group(13, PSL)) == 1092
    assert len(enumerate_group(29, PSL)) == 12180


def test_cayley_c6_as_list_graph():
    # the Cayley graph of Z/6 with inverse-closed generators {1, 5} is C_6
    g = Graph(n=6, adjacency=[sorted((i + s) % 6 for s in (1, 5)) for i in range(6)])
    assert g.degree_set() == {2} and g.edge_count() == 6 and is_connected(g)
    assert expansion_constant(g) == Fraction(2, 3)


def test_cayley_graph_rejects_asymmetric_generators():
    # one PSL generator without its inverse: the edge relation is directed
    with pytest.raises(DomainError, match="asymmetric adjacency"):
        cayley_graph(enumerate_group(17, PSL), generating_set(13, 17)[:1])


def test_cayley_graph_rejects_foreign_generator():
    gens = generating_set(5, 29)
    with pytest.raises(DomainError):
        cayley_graph(enumerate_group(13, PSL), gens)


def test_expansion_constants_exact():
    assert expansion_constant(complete_graph(4)) == Fraction(2)
    assert expansion_constant(cycle_graph(6)) == Fraction(2, 3)
    assert expansion_constant(complete_graph(6)) == Fraction(3)
    with pytest.raises(DomainError):
        expansion_constant(Graph(n=2, adjacency=[[], []]))  # disconnected


def test_spectral_report_cycle():
    rep = spectral_report(cycle_graph(6), 2)
    assert rep.bipartite
    assert abs(rep.lambda1 - 2.0) < 1e-9
    assert abs(rep.lambda2 - 2.0) < 1e-9  # the -2 end of a bipartite spectrum
    assert abs(rep.lambda_nontrivial - 1.0) < 1e-9
    assert rep.is_ramanujan  # 1 <= 2 = 2 sqrt(k-1)


def test_spectral_report_complete():
    rep = spectral_report(complete_graph(6), 5)
    assert not rep.bipartite
    assert abs(rep.lambda_nontrivial - 1.0) < 1e-9
    assert rep.is_ramanujan
    assert abs(rep.bound - 4.0) < 1e-12


def test_spectral_report_rejects_irregular():
    g = Graph(n=3, adjacency=[[1], [0, 2], [1]])
    with pytest.raises(DomainError):
        spectral_report(g, 2)


def test_dense_and_iterative_agree():
    # X^(5,13) has 2184 vertices, above the 2000-vertex dense limit, so
    # the whole-graph report runs Lanczos; check it against a dense solve
    graph = build_lps(5, 13)[0]
    iterative = spectral_report(graph, 6)
    sources = np.repeat(np.arange(graph.n), 6)
    dense = dense_spectrum(graph.n, sources, graph.adjacency.ravel(), 1.0)
    abs_desc = np.sort(np.abs(dense))[::-1]
    # bipartite: +6 and -6 are the trivial eigenvalues, each simple
    assert iterative.bipartite
    assert abs(iterative.lambda1 - dense.max()) < 1e-9
    assert abs(iterative.lambda2 - abs_desc[1]) < 1e-9
    assert abs(iterative.lambda_nontrivial - abs_desc[2]) < 1e-9


def test_build_lps_5_13():
    graph, report, meta = build_lps(5, 13)
    assert meta["branch"] == PGL
    assert graph.n == 2184
    assert graph.degree_set() == {6}
    assert is_connected(graph)
    assert report.bipartite
    assert abs(report.lambda_nontrivial - 4.249721) < 1e-5
    assert abs(report.bound - 4.472136) < 1e-5
    assert report.is_ramanujan
    # deterministic: a rebuild reports the identical spectrum
    _, report2, _ = build_lps(5, 13)
    assert report2.lambda_nontrivial == report.lambda_nontrivial


def test_build_lps_13_29():
    graph, report, meta = build_lps(13, 29)
    assert meta["branch"] == PSL
    assert graph.n == 12180
    assert graph.degree_set() == {14}
    assert abs(report.lambda_nontrivial - 6.948738) < 1e-5
    assert abs(report.bound - 7.211103) < 1e-5
    assert report.is_ramanujan


def brute_force_elements(q: int, kind: str) -> list[tuple[int, int, int, int]]:
    """Sorted canonical images of every invertible 4-tuple mod q (the
    determinant-1 tuples for PSL)."""
    want_det = {1} if kind == PSL else set(range(1, q))
    found = set()
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if (a * d - b * c) % q in want_det:
                        found.add(ProjMatrix.canonical(a, b, c, d, q, kind).entries())
    return sorted(found)


@pytest.mark.parametrize("q", [5, 13])
@pytest.mark.parametrize("kind", [PGL, PSL])
def test_enumerate_group_matches_brute_force(q, kind):
    assert enumerate_group(q, kind).tolist() == [list(e) for e in brute_force_elements(q, kind)]


@pytest.mark.parametrize("p,q", [(5, 13), (17, 13), (13, 17), (5, 29)])
def test_build_lps_rows_match_projmatrix_products(p, q):
    gens = generating_set(p, q)
    kind = gens[0].kind
    elements = [ProjMatrix(*e, q, kind) for e in brute_force_elements(q, kind)]
    index = {g: i for i, g in enumerate(elements)}
    expected = [sorted(index[g @ s] for s in gens) for g in elements]
    graph, _, meta = build_lps(p, q)
    assert meta["branch"] == kind and graph.n == len(elements)
    assert [list(map(int, row)) for row in graph.adjacency] == expected


def test_list_graphs_irregular_and_disconnected(tmp_path, capsys):
    from ramkit.cli import run

    path_4 = [[1], [0, 2], [1, 3], [2]]
    two_triangles = [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]]
    for lists in (path_4, two_triangles):
        with pytest.raises(DomainError):
            spectral_report(Graph(len(lists), lists), 2)
    g = Graph(6, two_triangles)
    assert g.degree_set() == {2} and g.edge_count() == 6
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    assert not is_connected(g)
    assert g.adjacency is two_triangles  # lists are kept as given, mutable
    g.adjacency[0].pop()
    assert g.degree_set() == {1, 2}
    for name, text in (("path.txt", "4 3\n0 1\n1 2\n2 3\n"),
                       ("triangles.txt", "6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")):
        (tmp_path / name).write_text(text)
        assert run(["graph", "check", "--in", str(tmp_path / name), "--degree", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def dense_spectrum(n: int, rows, cols, values) -> np.ndarray:
    a = np.zeros((n, n))
    np.add.at(a, (rows, cols), values)
    return np.linalg.eigvalsh(a)


@pytest.mark.parametrize("p,q", [(17, 13), (29, 13), (5, 13)])
def test_coset_blocks_union_is_whole_graph_spectrum(p, q):
    gens = generating_set(p, q)
    action = _coset_action(gens)
    assert action[0] == len(enumerate_group(q, gens[0].kind)) // q
    blocks = {b: dense_spectrum(action[0], *_real_block(action, q, b)) for b in range(q)}
    union = np.sort(np.concatenate(list(blocks.values())))
    graph = build_lps(p, q)[0]
    sources = np.repeat(np.arange(graph.n), p + 1)
    whole = dense_spectrum(graph.n, sources, graph.adjacency.ravel(), 1.0)
    assert len(union) == len(whole)
    assert np.max(np.abs(union - whole)) < 1e-9
    # every block repeats the spectrum of the representative of its class:
    # b = 0, b a nonzero square (the whole of F_q^* for PGL), b a nonsquare
    reps = _representative_blocks(q, gens[0].kind)
    assert [mult for _, mult in reps] == ([1, q - 1] if gens[0].kind == PGL else
                                          [1, (q - 1) // 2, (q - 1) // 2])
    squares = {t * t % q for t in range(1, q)}
    for b, spectrum in blocks.items():
        cls = 0 if b == 0 else 1 if gens[0].kind == PGL or b in squares else 2
        assert np.max(np.abs(spectrum - blocks[reps[cls][0]])) < 1e-9, b


@pytest.mark.parametrize("q", [29, 37])
def test_lps_spectrum_matches_whole_graph_lanczos(q):
    graph, _, _ = build_lps(5, q)
    whole = spectral_report(graph, 6)
    blocks = lps_spectrum(5, q)
    assert abs(blocks.lambda_nontrivial - whole.lambda_nontrivial) < 1e-9
    assert abs(blocks.lambda2 - whole.lambda2) < 1e-9
    assert blocks.bipartite == whole.bipartite == (q == 37)
    assert blocks.is_ramanujan and whole.is_ramanujan


def test_lps_spectrum_is_deterministic():
    for p, q in ((13, 17), (5, 37)):  # a dense and a Lanczos block solve
        assert lps_spectrum(p, q) == lps_spectrum(p, q)


def test_lps_size_guard_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="vertices"):
            build_lps(5, 1009)
        with pytest.raises(DomainError, match="rows"):
            lps_spectrum(5, 1009)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
