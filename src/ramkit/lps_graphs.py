"""LPS Ramanujan graphs X^{p,q}, spectral verification, and expansion
constants.

The graphs are Cayley graphs of PGL(2,q) or PSL(2,q) over a generating
set built from the p+1 integer solutions of a0^2+a1^2+a2^2+a3^2 = p.
Projective matrices are stored as canonical representatives so equality
is exact; vertex ids are positions in the deterministic group
enumeration order.

The build runs on integer arrays, not one Python object per element:

- enumerate_group returns the group as an (n, 4) int64 array of
  canonical (a, b, c, d) rows in lexicographic order, which is also the
  numeric order of the base-q codes ((a*q + b)*q + c)*q + d.
- cayley_graph matches every generator with its inverse and computes
  one column per pair: it multiplies every element by the generator,
  canonicalizes the products row-wise and finds them by searchsorted on
  the codes. Right multiplication by s^-1 undoes right multiplication by
  s, so the partner's column is the inverse permutation, and the
  adjacency is symmetric by construction. The result is an (n, k) int32
  neighbor array with sorted rows; read row-major it is the indices of
  a CSR matrix whose indptr is k * arange(n + 1).
- Graph also accepts per-vertex neighbor lists (edge-list files, small
  test graphs). Graph.csr() gives (indptr, indices) for either form, and
  the degree, connectivity and bipartiteness checks and the dense and
  sparse matrix assembly all read that pair, with breadth-first search
  advancing one whole frontier per numpy step.

cayley_graph takes only that array form. ProjMatrix is the per-element
reference API: generating_set returns ProjMatrix objects, and the tests
check the array build against their products.

The spectrum of X^{p,q} comes from lps_spectrum, which never enumerates
the group (Lubotzky-Phillips-Sarnak 1988; Piatetski-Shapiro, Complex
Representations of GL(2,K) for Finite Fields K, 1983). The adjacency is
sum_s R(s) in the right regular representation, which holds every
irreducible representation pi of PGL(2,q) dim pi times, so the spectrum
is the union of the spectra of the Hermitian blocks sum_s pi(s), each
eigenvalue counted dim pi times:

- principal series on the q + 1 points of P^1, one block per character
  chi of F_q^* up to chi ~ chi^-1 (chi = 1 and the quadratic chi hold a
  one-dimensional representation and a Steinberg representation of
  dimension q);
- discrete series in the Kirillov model on the q - 1 points of F_q^*,
  one block per character theta of F_{q^2}^*/F_q^* up to theta ~
  theta^q, with the Bessel kernel taken from one pass over F_{q^2}^*.

Only half of the blocks are solved. Twisting by sign(det) pairs the
blocks, and on the generators, whose determinants all lie in one square
class, pi (x) sign acts as pi (PSL) or -pi (PGL): the twin of a solved
block takes its eigenvalues or their negatives. Each discrete-series
block H satisfies conj(H) = P H P for the involution P: x -> -x, which
makes it unitarily equal to a real symmetric matrix of the same order,
and that is what is solved.

A PSL graph uses the same blocks: the Cayley graph of PGL(2,q) on its
generators is two copies of X^{p,q}, so every multiplicity counts half.
Each block is solved densely, so every eigenvalue and its multiplicity
is computed: the graph is connected when k occurs with multiplicity one
and bipartite when -k occurs. build_lps builds the graph, checks
connectivity and bipartiteness on it too and takes its report from the
blocks; spectral_report, the whole-graph eigensolve, serves edge-list
files (graph check) and the tests.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import DomainError
from .numtheory import factorize, is_prime, legendre_is_qr, mod_inverse, sqrt_mod

PGL = "PGL"
PSL = "PSL"


@dataclass(frozen=True)
class ProjMatrix:
    """2x2 matrix over F_q up to scalars, in canonical form.

    PGL canon: first nonzero entry in (a,b,c,d) order scaled to 1.
    PSL canon: determinant 1, sign chosen so the first nonzero entry
    lies in [1, (q-1)/2].
    """

    a: int
    b: int
    c: int
    d: int
    q: int
    kind: str

    @classmethod
    def canonical(cls, a: int, b: int, c: int, d: int, q: int, kind: str) -> "ProjMatrix":
        a, b, c, d = a % q, b % q, c % q, d % q
        det = (a * d - b * c) % q
        if det == 0:
            raise DomainError("projective matrix must be invertible")
        if kind == PSL:
            if det != 1:
                raise DomainError("PSL representative needs determinant 1")
            first = next(x for x in (a, b, c, d) if x)
            if first > (q - 1) // 2:
                a, b, c, d = (-a) % q, (-b) % q, (-c) % q, (-d) % q
        elif kind == PGL:
            first = next(x for x in (a, b, c, d) if x)
            s = mod_inverse(first, q)
            a, b, c, d = a * s % q, b * s % q, c * s % q, d * s % q
        else:
            raise DomainError(f"unknown group kind {kind!r}")
        return cls(a, b, c, d, q, kind)

    def __matmul__(self, other: "ProjMatrix") -> "ProjMatrix":
        if (self.q, self.kind) != (other.q, other.kind):
            raise DomainError("mixed group multiplication")
        return ProjMatrix.canonical(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.q,
            self.kind,
        )

    def inverse(self) -> "ProjMatrix":
        # adjugate; exact inverse for det 1, same class for PGL
        return ProjMatrix.canonical(
            self.d, -self.b, -self.c, self.a, self.q, self.kind
        )

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class FourSquares:
    """One solution of a0^2+a1^2+a2^2+a3^2 = p with a0 positive odd and
    the rest even."""

    a0: int
    a1: int
    a2: int
    a3: int

    def __post_init__(self):
        if self.a0 <= 0 or self.a0 % 2 == 0:
            raise DomainError("a0 must be positive and odd")
        if any(x % 2 for x in (self.a1, self.a2, self.a3)):
            raise DomainError("a1, a2, a3 must be even")

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.a0, self.a1, self.a2, self.a3)


@dataclass
class Graph:
    """Undirected multigraph as per-vertex sorted neighbor rows.

    adjacency is an (n, k) integer array (k-regular graphs, as
    cayley_graph builds them) or a list of lists, kept as given.
    Multi-edges appear with multiplicity; a vertex's degree is the
    length of its row.
    """

    n: int
    adjacency: "np.ndarray | list[list[int]]"

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): the neighbors of u are
        indices[indptr[u]:indptr[u + 1]]."""
        adj = self.adjacency
        if isinstance(adj, np.ndarray):
            return np.arange(self.n + 1, dtype=np.int64) * adj.shape[1], adj.ravel()
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, adj), dtype=np.int64, count=self.n), out=indptr[1:])
        indices = np.fromiter(
            itertools.chain.from_iterable(adj), dtype=np.int64, count=int(indptr[-1])
        )
        return indptr, indices

    def degree_set(self) -> set[int]:
        return set(np.diff(self.csr()[0]).tolist())

    def edge_count(self) -> int:
        indptr, indices = self.csr()
        loops = int(np.count_nonzero(indices == _sources(indptr)))
        return (len(indices) - loops) // 2 + loops

    def edges(self):
        """Each undirected edge once (loops once), with multiplicity, in
        row order."""
        indptr, indices = self.csr()
        u = _sources(indptr)
        keep = indices >= u
        return zip(u[keep].tolist(), indices[keep].tolist())


def _sources(indptr: np.ndarray) -> np.ndarray:
    """The row (source vertex) of every CSR entry."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue summary of a connected k-regular graph.

    lambda2 is the literal second-largest absolute eigenvalue (for a
    bipartite graph this is k itself, via the -k eigenvalue).
    lambda_nontrivial drops one +k, and one -k when bipartite; the
    Ramanujan verdict compares it against bound = 2 sqrt(k-1). The
    looser degree-based bound 2 sqrt(k) is reported alongside.
    """

    k: int
    lambda1: float
    lambda2: float
    lambda_nontrivial: float
    bound: float
    bound_alt: float
    bipartite: bool
    is_ramanujan: bool


def four_square_solutions(p: int) -> list[FourSquares]:
    """All p+1 integer solutions with odd positive a0 and even a1,a2,a3,
    in lexicographic order."""
    if not is_prime(p) or p % 4 != 1:
        raise DomainError("p must be a prime congruent to 1 mod 4")
    sols = []
    for a0 in range(1, math.isqrt(p) + 1, 2):
        r0 = p - a0 * a0
        m1 = math.isqrt(r0)
        for a1 in range(-m1, m1 + 1):
            if a1 % 2:
                continue
            r1 = r0 - a1 * a1
            m2 = math.isqrt(r1)
            for a2 in range(-m2, m2 + 1):
                if a2 % 2:
                    continue
                r2 = r1 - a2 * a2
                a3 = math.isqrt(r2)
                if a3 * a3 != r2 or a3 % 2:
                    continue
                for signed in {a3, -a3}:
                    sols.append(FourSquares(a0, a1, a2, signed))
    sols.sort(key=FourSquares.astuple)
    return sols


def _check_lps_args(p: int, q: int) -> None:
    if p == q or not (is_prime(p) and is_prime(q)):
        raise DomainError("p and q must be distinct primes")
    if p % 4 != 1 or q % 4 != 1:
        raise DomainError("p and q must be congruent to 1 mod 4")
    if q * q <= 4 * p:
        raise DomainError("q must exceed 2*sqrt(p)")


def generating_set(p: int, q: int) -> list[ProjMatrix]:
    """The p+1 canonical generators of X^{p,q}.

    Each four-squares solution maps to [[a0+i*a1, a2+i*a3],
    [-a2+i*a3, a0-i*a1]] with i the smaller square root of -1 mod q.
    When p is a quadratic residue mod q the matrices are rescaled by
    1/sqrt(p) to determinant 1 and live in PSL; otherwise PGL.
    """
    _check_lps_args(p, q)
    i = sqrt_mod(q - 1, q)
    qr_branch = legendre_is_qr(p, q)
    scale = mod_inverse(sqrt_mod(p, q), q) if qr_branch else 1
    kind = PSL if qr_branch else PGL
    gens = []
    for sol in four_square_solutions(p):
        a0, a1, a2, a3 = sol.astuple()
        gens.append(
            ProjMatrix.canonical(
                scale * (a0 + i * a1),
                scale * (a2 + i * a3),
                scale * (-a2 + i * a3),
                scale * (a0 - i * a1),
                q,
                kind,
            )
        )
    if len(set(gens)) != p + 1:
        raise DomainError("generators collapsed mod q; q too small for p")
    return gens


def _inverses(q: int) -> np.ndarray:
    """x -> x^-1 mod q as a lookup table (entry 0 unused)."""
    inv = np.zeros(q, dtype=np.int64)
    inv[1:] = [pow(x, q - 2, q) for x in range(1, q)]
    return inv


def _rows(*cols) -> np.ndarray:
    """(m, 4) array from four broadcastable entry grids, row-major."""
    return np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(-1, 4)


def _codes(m: np.ndarray, q: int) -> np.ndarray:
    """Base-q code of each (a, b, c, d) row; ordered like the rows."""
    return ((m[:, 0] * q + m[:, 1]) * q + m[:, 2]) * q + m[:, 3]


def _canonical_rows(m: np.ndarray, q: int, kind: str, inv: np.ndarray, mod_q: np.ndarray) -> np.ndarray:
    """ProjMatrix.canonical row by row, for invertible (n, 4) arrays
    with entries in [0, q) (and determinant 1 for PSL); mod_q is the
    table of x mod q for 0 <= x < 2q^2. m is modified."""
    # an invertible matrix has a nonzero top row, so a or b leads
    first = np.where(m[:, 0] != 0, m[:, 0], m[:, 1])
    if kind == PGL:
        return mod_q[m * inv[first][:, None]]
    flip = first > (q - 1) // 2
    m[flip] = mod_q[q - m[flip]]
    return m


def enumerate_group(q: int, kind: str) -> np.ndarray:
    """All canonical elements of PGL(2,q) or PSL(2,q) as an (n, 4) int64
    array of (a, b, c, d) rows in lexicographic order. Counts are
    q(q^2-1) and q(q^2-1)/2.

    The a = 0 rows come first, then the a != 0 rows over an (a, b, c)
    grid of at most q^3 cells, with d kept where d != bc (PGL, a = 1) or
    solved from ad - bc = 1 (PSL, a in [1, (q-1)/2]). Each block is
    written in lexicographic order, so nothing is sorted.
    """
    if q == 2 or not is_prime(q):
        raise DomainError("q must be an odd prime")
    r = np.arange(q, dtype=np.int64)
    if kind == PGL:
        # a = 0: b = 1, c != 0, any d; a = 1: any b, c, d with d != bc
        c0, d0 = np.meshgrid(r[1:], r, indexing="ij")
        zero = _rows(0, 1, c0, d0)
        b, c, d = (x.ravel() for x in np.meshgrid(r, r, r, indexing="ij"))
        keep = d != b * c % q
        rest = _rows(1, b[keep], c[keep], d[keep])
    elif kind == PSL:
        half = (q - 1) // 2
        inv = _inverses(q)
        # the sign makes the first nonzero entry lie in [1, half]; with
        # a = 0 that entry is b, and c = -1/b while d is free
        b0, d0 = np.meshgrid(r[1 : half + 1], r, indexing="ij")
        zero = _rows(0, b0, -inv[b0] % q, d0)
        a, b, c = (x.ravel() for x in np.meshgrid(r[1 : half + 1], r, r, indexing="ij"))
        rest = _rows(a, b, c, (1 + b * c) * inv[a] % q)
    else:
        raise DomainError(f"unknown group kind {kind!r}")
    return np.concatenate([zero, rest])


def _inverse_pairs(gens) -> list[tuple[int, int]]:
    """(j, i) with gens[i] the inverse of gens[j], every index in exactly
    one pair; a self-inverse generator pairs with itself. A generator
    left without its inverse makes the edge relation directed, which
    raises DomainError."""
    waiting, pairs = {}, []
    for i, s in enumerate(gens):
        t = s.inverse()
        if waiting.get(t):
            pairs.append((waiting[t].pop(), i))
        elif t == s:
            pairs.append((i, i))
        else:
            waiting.setdefault(s, []).append(i)
    if any(waiting.values()):
        raise DomainError("asymmetric adjacency")
    return pairs


def cayley_graph(elements: np.ndarray, gens) -> Graph:
    """Cayley graph: one edge (g, g*s) per element g and generator s, as
    an (n, k) neighbor array with sorted rows.

    elements is the (n, 4) array of canonical entry rows in lexicographic
    order that enumerate_group returns, and gens are ProjMatrix objects
    of one group. The generator list must be symmetric (closed under
    inverse, with multiplicity), which is what makes the adjacency an
    undirected multigraph; an asymmetric one raises DomainError. Each
    generator is matched with its inverse, and one of each pair is
    computed: every product is canonicalized row-wise and located by
    searchsorted on the base-q codes. The partner's column is the
    inverse permutation, so the adjacency is symmetric by construction.
    """
    if not gens:
        raise DomainError("empty generating set")
    q, kind = gens[0].q, gens[0].kind
    if any((s.q, s.kind) != (q, kind) for s in gens):
        raise DomainError("mixed group multiplication")
    elements = np.asarray(elements, dtype=np.int64)
    if elements.ndim != 2 or elements.shape[1] != 4 or len(elements) == 0:
        raise DomainError("elements must be a nonempty (n, 4) entry array")
    if elements.min() < 0 or elements.max() >= q:
        raise DomainError(f"element entries must lie in [0, {q})")
    codes = _codes(elements, q)
    if np.any(codes[1:] <= codes[:-1]):
        raise DomainError("group elements must be distinct and in lexicographic order")

    def find(want: np.ndarray, message: str) -> np.ndarray:
        pos = np.searchsorted(codes, want)
        pos[pos == len(codes)] = 0
        if not np.array_equal(codes[pos], want):
            raise DomainError(message)
        return pos

    find(_codes(np.array([s.entries() for s in gens], dtype=np.int64), q), "generator not in group")
    inv = _inverses(q)
    # products and rescalings stay below 2q^2; a gather beats a division
    mod_q = np.arange(2 * q * q, dtype=np.int64) % q
    n = len(elements)
    cols = np.empty((n, len(gens)), dtype=np.int32)
    for j, i in _inverse_pairs(gens):
        s = gens[j]
        # g s for every element g = [[a, b], [c, d]]: each row of g times s
        prod = mod_q[elements @ np.kron(np.eye(2, dtype=np.int64), [[s.a, s.b], [s.c, s.d]])]
        cols[:, j] = find(_codes(_canonical_rows(prod, q, kind, inv, mod_q), q), "products leave the element list")
        if i != j:
            # g -> g s is a permutation; g -> g s^-1 is its inverse
            back = np.full(n, -1, dtype=np.int32)
            back[cols[:, j]] = np.arange(n, dtype=np.int32)
            if np.any(back < 0):
                raise DomainError("products do not permute the element list")
            cols[:, i] = back
    cols.sort(axis=1)
    return Graph(n, cols)


def _bfs_levels(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Breadth-first distance from vertex 0, -1 where unreachable; each
    step gathers the neighbors of the whole frontier at once."""
    level = np.full(len(indptr) - 1, -1, dtype=np.int64)
    level[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        reached = np.zeros(len(level), dtype=bool)
        reached[indices[np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])]] = True
        frontier = np.flatnonzero(reached & (level < 0))
        level[frontier] = depth
    return level


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from vertex 0."""
    if g.n == 0:
        raise DomainError("empty graph")
    return bool((_bfs_levels(*g.csr()) >= 0).all())


def _bipartition(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Two-colorability of a connected graph: no edge joins two vertices
    at BFS depths of equal parity."""
    side = _bfs_levels(indptr, indices) % 2
    return bool((side[_sources(indptr)] != side[indices]).all())


_DENSE_LIMIT = 2000


def spectral_report(g: Graph, k: int) -> SpectralReport:
    """Spectral summary with the Ramanujan verdict, from the largest
    eigenvalues of the whole adjacency matrix: a dense solve up to
    _DENSE_LIMIT vertices, Lanczos (ARPACK) above, with a seeded start
    vector for run-to-run determinism.

    The verdict tests the nontrivial spectrum: the +k eigenvalue of a
    connected k-regular graph is always dropped, and so is the -k
    eigenvalue forced by bipartiteness, since those say nothing about
    expansion. lambda2 keeps the literal second-largest |eigenvalue|
    for reporting (equal to k on bipartite graphs).
    """
    indptr, indices = g.csr()
    if set(np.diff(indptr).tolist()) != {k}:
        raise DomainError(f"graph is not {k}-regular")
    # a k-regular CSR is its own (n, k) neighbor array
    if not is_connected(Graph(g.n, indices.reshape(g.n, k))):
        raise DomainError("spectral report requires a connected graph")
    bipartite = _bipartition(indptr, indices)
    want = 4 if not bipartite else 5
    rows = _sources(indptr)
    if g.n <= _DENSE_LIMIT:
        a = np.zeros((g.n, g.n))
        np.add.at(a, (rows, indices), 1.0)
        vals = np.linalg.eigvalsh(a)
    else:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        a = sp.csr_matrix((np.ones(len(rows)), (rows, indices)), shape=(g.n, g.n))
        v0 = np.random.default_rng(0).standard_normal(g.n)
        vals = spla.eigsh(a, k=min(want, g.n - 1), which="LM", v0=v0, return_eigenvectors=False)
    return _summarize(vals[np.argsort(-np.abs(vals), kind="stable")][:want], k, bipartite)


def _summarize(vals: np.ndarray, k: int, bipartite: bool) -> SpectralReport:
    """The report from the largest-magnitude eigenvalues of a connected
    k-regular graph, descending by |value|."""
    abs_desc = list(vals)
    lambda1 = float(max(vals))
    lambda2 = float(abs(abs_desc[1])) if len(abs_desc) > 1 else 0.0
    # drop one eigenvalue nearest +k, and one nearest -k when bipartite
    rest = list(abs_desc)
    rest.pop(int(np.argmin([abs(v - k) for v in rest])))
    if bipartite and rest:
        rest.pop(int(np.argmin([abs(v + k) for v in rest])))
    lam_nt = float(max(abs(v) for v in rest)) if rest else 0.0
    bound = 2.0 * math.sqrt(k - 1)
    return SpectralReport(
        k=k,
        lambda1=lambda1,
        lambda2=lambda2,
        lambda_nontrivial=lam_nt,
        bound=bound,
        bound_alt=2.0 * math.sqrt(k),
        bipartite=bipartite,
        is_ramanujan=lam_nt <= bound + 1e-6,
    )


def expansion_constant(g: Graph) -> Fraction:
    """Exact isoperimetric constant min |boundary(F)| / min(|F|,|V-F|)
    over all nonempty proper vertex subsets, by exhaustive enumeration."""
    if g.n > 24:
        raise DomainError("exhaustive expansion limited to 24 vertices")
    if g.n < 2:
        raise DomainError("expansion needs at least two vertices")
    if not is_connected(g):
        raise DomainError("expansion constant requires a connected graph")
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges() if v > u]
    best = None
    for subset in range(1, 1 << (g.n - 1)):  # vertex n-1 stays outside F
        size = subset.bit_count()
        boundary = sum(1 for m in edge_masks if (subset & m).bit_count() == 1)
        h = Fraction(boundary, min(size, g.n - size))
        if best is None or h < best:
            best = h
    return best


def group_order(q: int, kind: str) -> int:
    """|PGL(2,q)| = q(q^2-1) and |PSL(2,q)| = q(q^2-1)/2."""
    return q * (q * q - 1) // (2 if kind == PSL else 1)


def _logarithms(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(powers, logs) for the least primitive root g mod q: powers[e] is
    g^e for e < q - 1 and logs[g^e] = e (entry 0 unused)."""
    g = next(g for g in range(2, q) if all(pow(g, (q - 1) // r, q) != 1 for r in factorize(q - 1)))
    powers = np.array([pow(g, e, q) for e in range(q - 1)], dtype=np.int64)
    logs = np.zeros(q, dtype=np.int64)
    logs[powers] = np.arange(q - 1)
    return powers, logs


def _bessel(q: int, inv: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """j_m(u) = -(1/q) sum over N(t) = u of psi(Tr t) theta_m(t), as a
    (q - 1, q + 1) array indexed by (log u, m).

    t = x + y sqrt(eps) runs over F_{q^2}^*, eps the least nonsquare, with
    N(t) = x^2 - eps y^2 and Tr(t) = 2x. theta_m is the character of the
    cyclic group F_{q^2}^*/F_q^* of order q + 1 that takes a generator
    to exp(-2 pi i m / (q + 1)); the class of t is the point x : y of
    the projective line, numbered by a walk over the generator's powers.
    One pass over F_{q^2}^* sums psi(Tr t) by norm and class (t and -t
    share both, so the sum is real), and an FFT over the classes gives
    every m at once.
    """
    eps = next(t for t in range(2, q) if pow(t, (q - 1) // 2, q) == q - 1)
    for c0 in range(q):  # until the class of c0 + sqrt(eps) generates
        cls = np.full(q + 1, -1, dtype=np.int64)
        x, y = 1, 0
        for r in range(q + 1):
            point = x * int(inv[y]) % q if y else q
            if cls[point] >= 0:
                break
            cls[point] = r
            x, y = (x * c0 + y * eps) % q, (x + y * c0) % q
        else:
            break
    r = np.arange(q, dtype=np.int64)
    x, y = (v.ravel()[1:] for v in np.meshgrid(r, r, indexing="ij"))  # t != 0
    point = np.where(y != 0, x * inv[y] % q, q)
    norm = (x * x - eps * y * y) % q
    sums = np.bincount(logs[norm] * (q + 1) + cls[point], np.cos(4 * np.pi * x / q), (q - 1) * (q + 1))
    return -np.fft.fft(sums.reshape(q - 1, q + 1), axis=1) / q


def _irreducible_spectrum(gens) -> tuple[np.ndarray, np.ndarray]:
    """(values, counts): the eigenvalues of the Cayley graph of PGL(2,q)
    on gens and their multiplicities, from the dense blocks sum_s pi(s)
    of the irreducible representations pi, counted dim pi times.

    Principal series, on the q + 1 points of P^1, one block per
    character chi of F_q^* up to chi ~ chi^-1: s sends the point v_x =
    (x, 1) or (1, 0) to alpha v_y and puts chi(alpha^2 / det s) at
    [y, x]. For chi = 1 and the quadratic chi the block holds the
    one-dimensional 1 or sign, with eigenvalue sum_s chi(det s), once,
    and a Steinberg representation of dimension q.
    Discrete series, on F_q^* indexed by log x (the Kirillov model), one
    block per theta_m, m = 1 .. (q-1)/2: s = [[a, b], [0, d]] puts
    psi(b x / d) at [x, a x / d], and s = n(a/c) w [[-c, -d], [0, -det/c]]
    puts psi(a x / c) j_m(det x z / c^2) psi(d z / c) at [x, z]; as z runs
    the j factor is a Hankel matrix in log x + log z, shared by the
    generators with one det / c^2.

    Half of these blocks are solved. Twisting by sign(det) pairs chi_j
    with chi_{(q-1)/2 - j} and theta_m with theta_{(q+1)/2 - m}, and on
    generators whose determinants share one square class eps =
    sign(det s) the twisted block has eps times the spectrum, so one
    block of each pair is solved. A discrete-series block H satisfies
    conj(H) = P H P, where P sends x to -x (a shift of log x by
    (q-1)/2); with A and B its top-left and top-right quadrants it is
    unitarily equal to the real symmetric [[Re(A+B), -Im(A-B)],
    [Im(A+B), Re(A-B)]], which is what is solved.
    """
    q, n = gens[0].q, gens[0].q - 1
    half = n // 2
    inv = _inverses(q)
    powers, logs = _logarithms(q)
    a, b, c, d = np.array([s.entries() for s in gens]).T
    det = (a * d - b * c) % q
    eps = 1 - 2 * (logs[det] % 2)
    if np.any(eps != eps[0]):
        raise DomainError("generator determinants differ in square class")
    eps = int(eps[0])
    vals, counts = [], []

    x = np.arange(q + 1)
    v0, v1 = np.where(x < q, x, 1), (x < q).astype(np.int64)
    top = (np.outer(a, v0) + np.outer(b, v1)) % q
    bot = (np.outer(c, v0) + np.outer(d, v1)) % q
    cell = (np.where(bot != 0, top * inv[bot] % q, q) * (q + 1) + x).ravel()
    power = ((2 * logs[np.where(bot != 0, bot, top)] - logs[det][:, None]) % n).ravel()
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    for j in range(half // 2 + 1):
        z = roots[j * power % n]
        block = np.bincount(cell, z.real, (q + 1) ** 2) + 1j * np.bincount(cell, z.imag, (q + 1) ** 2)
        spectrum = np.linalg.eigvalsh(block.reshape(q + 1, q + 1))
        for i, v in ((j, spectrum), (half - j, eps * spectrum))[: 1 + (j < half - j)]:
            vals.append(v)
            if 0 < i < half:
                counts.append(np.full(q + 1, q + 1))
            else:
                one = np.argmin(np.abs(v - roots[i * logs[det] % n].real.sum()))
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
    # the top half of the rows of each block: its quadrants A and B
    parts = np.array([left[shift == t][:, :half].T @ right[shift == t] for t in shifts])
    bessel = _bessel(q, inv, logs)
    for m in range(1, (half + 1) // 2 + 1):
        hankel = sliding_window_view(np.tile(bessel[:, m], 3), n)[shifts[:, None] + e[:half]]
        upper = base[:half] + np.einsum("tij,tij->ij", parts, hankel)
        plus, minus = upper[:, :half] + upper[:, half:], upper[:, :half] - upper[:, half:]
        spectrum = np.linalg.eigvalsh(np.block([[plus.real, -minus.imag], [plus.imag, minus.real]]))
        pair = (spectrum, eps * spectrum)[: 1 + (m < half + 1 - m)]
        vals.extend(pair)
        counts.extend([np.full(n, n)] * len(pair))
    return np.concatenate(vals), np.concatenate(counts)


# X^(5,401) takes 4.4 s and X^(5,593) 12 s (time grows like q^4); the
# discrete-series tables hold at most (p+1)(q+1)^2 complex entries.
# build_lps(5, 113), 1,442,784 vertices, peaks at 318 MB; the (n, p+1)
# neighbor array is bounded by what p = 5 reaches at the vertex limit
_SPECTRUM_Q_LIMIT = 600
_SPECTRUM_ENTRY_LIMIT = 1 << 22
_BUILD_VERTEX_LIMIT = 1_500_000
_BUILD_ENTRY_LIMIT = 6 * _BUILD_VERTEX_LIMIT


def _check_spectrum_size(p: int, q: int) -> None:
    if q > _SPECTRUM_Q_LIMIT:
        raise DomainError(
            f"X^({p},{q}) has blocks of {q + 1} rows; the limit is q <= {_SPECTRUM_Q_LIMIT}"
        )
    if (p + 1) * (q + 1) ** 2 > _SPECTRUM_ENTRY_LIMIT:
        raise DomainError(
            f"X^({p},{q}) has {p + 1} generators on blocks of {q + 1} rows; "
            f"the limit is (p+1)(q+1)^2 <= {_SPECTRUM_ENTRY_LIMIT}"
        )


def _irreducible_report(gens) -> SpectralReport:
    """The spectral report of the Cayley graph of gens from its
    irreducible blocks. For PSL gens the Cayley graph of PGL(2,q) is two
    copies of X^{p,q}, so every multiplicity counts half."""
    k = len(gens)
    scale = 2 if gens[0].kind == PSL else 1
    vals, counts = _irreducible_spectrum(gens)
    top, bottom = np.abs(vals - k) < 1e-8, np.abs(vals + k) < 1e-8
    # k of multiplicity one is connectivity; -k is bipartiteness
    if counts[top].sum() != scale:
        raise DomainError("spectral report requires a connected graph")
    rest = vals[~(top | bottom)]
    head = [vals[top][0], *vals[bottom][:1], rest[np.argmax(np.abs(rest))]]
    return _summarize(np.array(sorted(head, key=abs, reverse=True)), k, bool(bottom.any()))


def lps_spectrum(p: int, q: int) -> SpectralReport:
    """Spectral summary of X^{p,q} from the irreducible representations
    of PGL(2,q), without enumerating the group: about q / 2 dense
    blocks of at most q + 1 rows."""
    _check_lps_args(p, q)
    _check_spectrum_size(p, q)
    return _irreducible_report(generating_set(p, q))


def build_lps(p: int, q: int) -> tuple[Graph, SpectralReport, dict]:
    """Construct X^{p,q} and verify its spectrum.

    Selects PSL(2,q) when p is a quadratic residue mod q (q(q^2-1)/2
    vertices) and PGL(2,q) otherwise (q(q^2-1) vertices, bipartite);
    degree is p+1 either way.
    """
    gens = generating_set(p, q)
    kind = gens[0].kind
    n = group_order(q, kind)
    if n > _BUILD_VERTEX_LIMIT:
        raise DomainError(
            f"X^({p},{q}) has {n} vertices; graph build handles at most "
            f"{_BUILD_VERTEX_LIMIT} (graph verify checks the spectrum alone)"
        )
    if n * (p + 1) > _BUILD_ENTRY_LIMIT:
        raise DomainError(
            f"X^({p},{q}) has {n} vertices of degree {p + 1}; graph build handles at most "
            f"{_BUILD_ENTRY_LIMIT} adjacency entries (graph verify checks the spectrum alone)"
        )
    _check_spectrum_size(p, q)
    elements = enumerate_group(q, kind)
    graph = cayley_graph(elements, gens)
    if not is_connected(graph):
        raise DomainError(f"X^({p},{q}) is not connected")
    report = _irreducible_report(gens)
    if report.bipartite != _bipartition(*graph.csr()):
        raise DomainError("graph and spectrum disagree on bipartiteness")
    metadata = {
        "p": p,
        "q": q,
        "branch": kind,
        "vertex_count": graph.n,
        "degree": p + 1,
        "connected": True,  # raised otherwise
        "bipartite": report.bipartite,
        "lambda2": report.lambda2,
        "lambda_nontrivial": report.lambda_nontrivial,
        "bound": report.bound,
        "bound_alt": report.bound_alt,
        "is_ramanujan": report.is_ramanujan,
    }
    return graph, report, metadata
