"""LPS graphs: generators, group enumeration, spectra, expansion constants."""

import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ramkit import DomainError
from ramkit.lps_graphs import (
    PGL,
    PSL,
    FourSquares,
    Graph,
    ProjMatrix,
    _bessel,
    _codes,
    _inverses,
    _irreducible_spectrum,
    _logarithms,
    _rows,
    _sources,
    build_lps,
    cayley_graph,
    enumerate_group,
    expansion_constant,
    four_square_solutions,
    generating_set,
    group_order,
    is_connected,
    lps_spectrum,
    spectral_report,
)
from ramkit.numtheory import is_prime, sqrt_mod

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


# -- oracle: the Cayley graph with every column computed -------------------


def check_symmetric(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Every edge (u, v) appears as often as (v, u)."""
    n = len(indptr) - 1
    u = _sources(indptr)
    v = indices.astype(np.int64)
    if not np.array_equal(np.sort(u * n + v), np.sort(v * n + u)):
        raise DomainError("asymmetric adjacency")


def every_column_cayley_graph(elements: np.ndarray, gens) -> Graph:
    """cayley_graph computing one column per generator, inverses
    included, and checking symmetry by sorting every edge code."""
    q, kind = gens[0].q, gens[0].kind
    codes = _codes(elements, q)
    inv = _inverses(q)
    a, b, c, d = elements.T
    cols = np.empty((len(elements), len(gens)), dtype=np.int32)
    for j, s in enumerate(gens):
        m = np.stack(
            [a * s.a + b * s.c, a * s.b + b * s.d, c * s.a + d * s.c, c * s.b + d * s.d],
            axis=1,
        ) % q
        first = np.where(m[:, 0] != 0, m[:, 0], m[:, 1])
        if kind == PGL:
            m = m * inv[first][:, None] % q
        else:
            flip = first > (q - 1) // 2
            m[flip] = (q - m[flip]) % q
        want = _codes(m, q)
        pos = np.searchsorted(codes, want)
        assert np.array_equal(codes[pos], want)
        cols[:, j] = pos
    cols.sort(axis=1)
    graph = Graph(len(cols), cols)
    check_symmetric(*graph.csr())
    return graph


@pytest.mark.parametrize("p,q", [(17, 13), (29, 13), (5, 13), (13, 17), (5, 17), (5, 29), (13, 29), (5, 37)])
def test_cayley_graph_matches_every_column_oracle(p, q):
    gens = generating_set(p, q)
    elements = enumerate_group(q, gens[0].kind)
    graph = cayley_graph(elements, gens)
    assert graph.adjacency.dtype == np.int32
    assert np.array_equal(graph.adjacency, every_column_cayley_graph(elements, gens).adjacency)


@pytest.mark.parametrize("kind", [PGL, PSL])
def test_cayley_graph_pairs_involutions_and_repeats(kind):
    # w = [[0, -1], [1, 0]] is its own inverse in both groups; repeated
    # generators and inverses pair off one for one
    q = 13
    w = ProjMatrix.canonical(0, -1, 1, 0, q, kind)
    s = generating_set(17, 13)[0] if kind == PSL else generating_set(5, 13)[0]
    elements = enumerate_group(q, kind)
    assert w.inverse() == w and s.inverse() != s
    for gens in ([w], [s, w, s.inverse()], [s, s, s.inverse(), w, s.inverse(), w]):
        graph = cayley_graph(elements, gens)
        assert np.array_equal(graph.adjacency, every_column_cayley_graph(elements, gens).adjacency)
    with pytest.raises(DomainError, match="asymmetric adjacency"):
        cayley_graph(elements, [s, s, s.inverse(), w])


def test_cayley_graph_rejects_foreign_generator():
    gens = generating_set(5, 29)
    with pytest.raises(DomainError):
        cayley_graph(enumerate_group(13, PSL), gens)
    with pytest.raises(DomainError, match="entries must lie in"):
        cayley_graph(enumerate_group(29, PSL) + 29, gens)


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


@lru_cache(maxsize=None)
def whole_graph_spectrum(p: int, q: int) -> np.ndarray:
    graph = build_lps(p, q)[0]
    sources = np.repeat(np.arange(graph.n), p + 1)
    return dense_spectrum(graph.n, sources, graph.adjacency.ravel(), 1.0)


def all_blocks_spectrum(gens) -> tuple[np.ndarray, np.ndarray]:
    """_irreducible_spectrum solving every block as a complex Hermitian
    matrix, both members of each twisted pair included: principal series
    on P^1 for j = 0 .. (q-1)/2, discrete series in the Kirillov model
    for m = 1 .. (q-1)/2."""
    q, n = gens[0].q, gens[0].q - 1
    inv = _inverses(q)
    powers, logs = _logarithms(q)
    a, b, c, d = np.array([s.entries() for s in gens]).T
    det = (a * d - b * c) % q
    vals, counts = [], []

    x = np.arange(q + 1)
    v0, v1 = np.where(x < q, x, 1), (x < q).astype(np.int64)
    top = (np.outer(a, v0) + np.outer(b, v1)) % q
    bot = (np.outer(c, v0) + np.outer(d, v1)) % q
    cell = (np.where(bot != 0, top * inv[bot] % q, q) * (q + 1) + x).ravel()
    power = ((2 * logs[np.where(bot != 0, bot, top)] - logs[det][:, None]) % n).ravel()
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    for j in range(q // 2 + 1):
        z = roots[j * power % n]
        block = np.bincount(cell, z.real, (q + 1) ** 2) + 1j * np.bincount(cell, z.imag, (q + 1) ** 2)
        vals.append(np.linalg.eigvalsh(block.reshape(q + 1, q + 1)))
        if 0 < 2 * j < n:
            counts.append(np.full(q + 1, q + 1))
        else:
            one = np.argmin(np.abs(vals[-1] - roots[j * logs[det] % n].real.sum()))
            counts.append(np.where(x == one, 1, q))

    psi = np.exp(2j * np.pi * np.arange(q) / q)
    e = np.arange(n)
    low = c == 0
    base = np.zeros((n, n), dtype=complex)
    over_d = inv[d[low]][:, None]
    np.add.at(base, (e, (e + logs[a[low][:, None] * over_d % q]) % n), psi[b[low][:, None] * over_d * powers % q])
    over_c = inv[c[~low]][:, None]
    left = psi[a[~low][:, None] * over_c * powers % q]
    right = psi[d[~low][:, None] * over_c * powers % q]
    shift = logs[det[~low] * inv[c[~low]] ** 2 % q]
    shifts = np.unique(shift)
    parts = np.array([left[shift == t].T @ right[shift == t] for t in shifts])
    bessel = _bessel(q, inv, logs)
    for m in range(1, q // 2 + 1):
        hankel = sliding_window_view(np.tile(bessel[:, m], 3), n)[shifts[:, None] + e]
        vals.append(np.linalg.eigvalsh(base + np.einsum("tij,tij->ij", parts, hankel)))
        counts.append(np.full(n, n))
    return np.concatenate(vals), np.concatenate(counts)


@pytest.mark.parametrize(
    "p,q", [(5, 13), (17, 13), (13, 17), (5, 29), (13, 29), (5, 37), (13, 37), (37, 41), (29, 61), (5, 61)]
)
def test_irreducible_spectrum_matches_all_blocks(p, q):
    # one block per twisted pair, real discrete-series blocks, against
    # every block solved as a complex matrix: values with multiplicities
    gens = generating_set(p, q)
    vals, counts = _irreducible_spectrum(gens)
    want_vals, want_counts = all_blocks_spectrum(gens)
    assert counts.sum() == want_counts.sum() == group_order(q, PGL)
    got, want = np.sort(np.repeat(vals, counts)), np.sort(np.repeat(want_vals, want_counts))
    assert np.max(np.abs(got - want)) < 1e-12
    # the one-dimensional eigenvalues: k once, and -k once when bipartite
    k = p + 1
    for target in (k, -k):
        assert counts[np.abs(vals - target) < 1e-8].sum() == want_counts[np.abs(want_vals - target) < 1e-8].sum()


def test_irreducible_spectrum_needs_one_determinant_class():
    # the twisted-pair shortcut needs sign(det s) equal on every generator
    gens = generating_set(5, 13)
    w = ProjMatrix.canonical(0, -1, 1, 0, 13, PGL)
    with pytest.raises(DomainError, match="square class"):
        _irreducible_spectrum([*gens, w])


def irreducible_union(p: int, q: int) -> np.ndarray:
    """The sorted spectrum of the Cayley graph of PGL(2,q) on the
    generators of X^(p,q): X itself for PGL, two copies of it for PSL."""
    vals, counts = _irreducible_spectrum(generating_set(p, q))
    return np.sort(np.repeat(vals, counts))


# -- oracle: blocks of the characters of the unipotent subgroup U ------------
#
# The adjacency commutes with translation by U = {[[1, x], [0, 1]]}, so it
# splits into q blocks M_b, one per character psi_b(u(x)) = exp(2 pi i b x / q)
# of U, indexed by the cosets gU; the union of the block spectra is the
# graph's spectrum. It shares nothing with the irreducible blocks but
# generating_set and the array helpers _inverses and _rows.


def _coset_representatives(q: int, kind: str, inv: np.ndarray) -> np.ndarray:
    """One matrix per coset gU of U = {[[1, x], [0, 1]]}, as (m, 4) rows
    in the order of their _coset_keys.

    g u(x) = [[a, ax + b], [c, cx + d]] keeps the column (a, c) and the
    determinant, so a coset is a column up to sign (PSL, determinant 1)
    or a column scaled to lead with 1 together with the determinant so
    scaled (PGL). The representative has b = 0 when a != 0 and d = 0
    when a = 0.
    """
    r = np.arange(q, dtype=np.int64)
    if kind == PSL:
        half = r[1 : (q + 1) // 2]
        zero = _rows(0, -inv[half] % q, half, 0)
        a, c = (x.ravel() for x in np.meshgrid(half, r, indexing="ij"))
        rest = _rows(a, 0, c, inv[a])
    else:
        zero = _rows(0, q - r[1:], 1, 0)
        c, d = (x.ravel() for x in np.meshgrid(r, r[1:], indexing="ij"))
        rest = _rows(1, 0, c, d)
    return np.concatenate([zero, rest])


def _coset_keys(g: np.ndarray, q: int, kind: str, inv: np.ndarray) -> tuple:
    """(key, x) per invertible (a, b, c, d) row of g: the base-q code of
    the normalized column (and, for PGL, determinant) of its coset, and
    the x with row = r u(x) for that coset's representative r."""
    a, b, c, d = g.T
    top = a != 0
    lead = np.where(top, a, c)
    x = np.where(top, b, d) * inv[lead] % q
    if kind == PSL:
        sign = np.where(lead > (q - 1) // 2, q - 1, 1)
        return a * sign % q * q + c * sign % q, x
    scale = inv[lead]
    det = (a * d - b * c) % q * scale % q * scale % q
    return (a * scale % q * q + c * scale % q) * q + det, x


def _coset_action(gens) -> tuple:
    """(m, rows, cols, x, pair): for coset i and generator s,
    s g_i = g_j u(x), which puts psi_b(x) = exp(2 pi i b x / q) at
    M_b[j, i]; the arrays run generator by generator and serve every
    block b. pair[i] is the coset of g_i h, where h = diag(-1, 1) (PGL)
    or diag(t, 1/t) with t^2 = -1 (PSL); h conjugates u(x) to u(-x) and
    h^2 is trivial, so pair is an involution without fixed points."""
    q, kind = gens[0].q, gens[0].kind
    inv = _inverses(q)
    reps = _coset_representatives(q, kind, inv)
    keys = _coset_keys(reps, q, kind, inv)[0]
    a, b, c, d = reps.T
    rows, xs = [], []
    for s in gens:
        prod = np.stack(
            [s.a * a + s.b * c, s.a * b + s.b * d, s.c * a + s.d * c, s.c * b + s.d * d],
            axis=1,
        ) % q
        key, x = _coset_keys(prod, q, kind, inv)
        rows.append(np.searchsorted(keys, key))
        xs.append(x)
    t = q - 1 if kind == PGL else sqrt_mod(q - 1, q)
    u = 1 if kind == PGL else int(inv[t])
    # g_i h is again a representative (x = 0): its b or d stays 0
    pair = np.searchsorted(keys, _coset_keys(reps * [t, u, t, u] % q, q, kind, inv)[0])
    m = len(reps)
    return m, np.concatenate(rows), np.tile(np.arange(m), len(gens)), np.concatenate(xs), pair


def _real_block(action, q: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of M_b as a real symmetric matrix.

    J f = conj(f(. h)) maps block b to itself, commutes with it and
    squares to 1, so M_b is real in the orthonormal basis
    (e_i + e_pair(i))/sqrt(2), i (e_i - e_pair(i))/sqrt(2) over the pairs
    i < pair(i): the first half of the rows and columns takes the sums,
    the second half the differences. Duplicate entries add up.
    """
    m, rows, cols, x, pair = action
    half = m // 2
    first = np.flatnonzero(np.arange(m) < pair)
    pos = np.empty(m, dtype=np.int64)
    pos[first] = pos[pair[first]] = np.arange(half)
    sign = np.where(np.arange(m) < pair, 0.5, -0.5)
    theta = 2 * np.pi * (b * x % q) / q
    re, im = np.cos(theta), np.sin(theta)
    pr, pc, sr, sc = pos[rows], pos[cols], sign[rows], sign[cols]
    return (
        np.concatenate([pr, pr, pr + half, pr + half]),
        np.concatenate([pc, pc + half, pc, pc + half]),
        np.concatenate([re / 2, -im * sc, im * sr, 2 * re * sr * sc]),
    )




def coset_block_spectrum(p: int, q: int) -> np.ndarray:
    """The sorted spectrum of X^(p,q) from dense solves of its coset
    blocks: right translation by the diagonal torus makes block b
    isospectral to b t (PGL) or b t^2 (PSL), so block 0 counts once and
    block 1 and, for PSL, a nonsquare block stand for the rest."""
    gens = generating_set(p, q)
    action = _coset_action(gens)
    if gens[0].kind == PGL:
        reps = [(0, 1), (1, q - 1)]
    else:
        nonsquare = next(t for t in range(2, q) if pow(t, (q - 1) // 2, q) == q - 1)
        reps = [(0, 1), (1, (q - 1) // 2), (nonsquare, (q - 1) // 2)]
    return np.sort(np.concatenate([
        np.repeat(dense_spectrum(action[0], *_real_block(action, q, b)), mult) for b, mult in reps
    ]))


@pytest.mark.parametrize("p,q", [(17, 13), (29, 13), (5, 13)])
def test_coset_blocks_union_is_whole_graph_spectrum(p, q):
    gens = generating_set(p, q)
    action = _coset_action(gens)
    assert action[0] == len(enumerate_group(q, gens[0].kind)) // q
    blocks = {b: dense_spectrum(action[0], *_real_block(action, q, b)) for b in range(q)}
    union = np.sort(np.concatenate(list(blocks.values())))
    whole = whole_graph_spectrum(p, q)
    assert len(union) == len(whole)
    assert np.max(np.abs(union - whole)) < 1e-9
    # every block repeats the spectrum of the representative of its class:
    # b = 0, b a nonzero square (the whole of F_q^* for PGL), b a nonsquare
    squares = {t * t % q for t in range(1, q)}
    nonsquare = min(set(range(1, q)) - squares)
    for b, spectrum in blocks.items():
        rep = 0 if b == 0 else 1 if gens[0].kind == PGL or b in squares else nonsquare
        assert np.max(np.abs(spectrum - blocks[rep])) < 1e-9, b
    assert np.max(np.abs(coset_block_spectrum(p, q) - whole)) < 1e-9


@pytest.mark.parametrize("p,q", [(17, 13), (5, 13), (29, 13)])
def test_irreducible_union_is_whole_graph_spectrum(p, q):
    union = irreducible_union(p, q)
    scale = 2 if generating_set(p, q)[0].kind == PSL else 1
    whole = np.sort(np.repeat(whole_graph_spectrum(p, q), scale))
    assert len(union) == len(whole)
    assert np.max(np.abs(union - whole)) < 1e-9


@pytest.mark.parametrize("p,q", [(5, 17), (5, 37), (13, 37), (13, 17), (5, 29), (5, 41), (37, 41)])
def test_irreducible_union_matches_coset_blocks(p, q):
    oracle = coset_block_spectrum(p, q)
    scale = 2 if generating_set(p, q)[0].kind == PSL else 1
    union = irreducible_union(p, q)
    assert len(union) == scale * len(oracle)
    assert np.max(np.abs(union - np.repeat(oracle, scale))) < 1e-9


def test_lps_path_runs_no_lanczos(monkeypatch):
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("ARPACK called on the LPS path")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
    graph, report, _ = build_lps(5, 37)
    assert graph.n == 50616 and report.bipartite and report.is_ramanujan
    assert lps_spectrum(5, 61).is_ramanujan


def valid_lps_pairs(q_max: int):
    for q in range(13, q_max + 1, 4):
        for p in range(5, q * q // 4 + 1, 4):
            if p != q and is_prime(p) and is_prime(q) and q * q > 4 * p:
                yield p, q


def test_irreducible_spectrum_trace_identities():
    # the traces of A^0, A and A^2: |G| vertices, no loops, and p + 1
    # closed walks of length two from each vertex; no representation
    # theory, so these reach q where no whole-graph solve can
    pairs = list(valid_lps_pairs(61))
    assert len(pairs) == 234 and (929, 61) in pairs
    for p, q in pairs:
        gens = generating_set(p, q)
        vals, counts = _irreducible_spectrum(gens)
        mult = counts / (2 if gens[0].kind == PSL else 1)
        size = group_order(q, gens[0].kind)
        assert mult.sum() == size, (p, q)
        assert abs(mult @ vals) <= 1e-6 * size, (p, q)
        assert abs(mult @ vals**2 - size * (p + 1)) <= 1e-6 * size * (p + 1), (p, q)


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
    for p, q in ((13, 17), (5, 37)):
        assert lps_spectrum(p, q) == lps_spectrum(p, q)


def test_lps_size_guard_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="vertices"):
            build_lps(5, 1009)
        with pytest.raises(DomainError, match="rows"):
            lps_spectrum(5, 1009)
        # p near q^2 / 4: too many generators for the discrete-series tables
        for p, q in ((40193, 401), (2549, 101), (29, 401)):
            with pytest.raises(DomainError, match="generators"):
                lps_spectrum(p, q)
        # under the vertex limit, but 721,392 vertices of degree 318
        with pytest.raises(DomainError, match="adjacency entries"):
            build_lps(317, 113)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
