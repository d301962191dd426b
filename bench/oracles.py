"""Independent correctness oracles for every benchmark job.

Nothing here calls ramkit. Each check returns ``(status, detail)``:

- ``OK``: the job delivered what was asked and the oracle agrees;
- ``FAIL``: the job did not deliver (an exception, a traceback, a wrong
  exit code, a verification it could not complete) and says so;
- ``WRONG``: the job returned an answer that the oracle contradicts.

Both ``FAIL`` and ``WRONG`` count as failed jobs; only ``WRONG`` makes
a run incorrect. mpmath supplies constants and CF values; graphs, signals
and tau are checked against closed forms computed here. numpy and scipy
are imported only by the graph and signal checks, so the precision
workload keeps them off its path.
"""

import hashlib
import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath

OK, FAIL, WRONG = "ok", "fail", "wrong"
TRACEBACK = "Traceback (most recent call last)"


# -- decimal strings without the int->str digit cap --------------------------


def to_decimal(n: int) -> str:
    """Decimal digits of n >= 0 by splitting on powers of ten, so that no
    single int->str conversion reaches the interpreter's 4300-digit cap."""
    if n.bit_length() < 12000:
        return str(n)
    half = int(n.bit_length() * 0.30103) // 2
    hi, lo = divmod(n, 10**half)
    return to_decimal(hi) + to_decimal(lo).rjust(half, "0")


def rounded_strings(value, digits: int) -> set:
    """Acceptable ``digits``-place roundings of an mpf (both neighbours
    when the value sits within 1e-9 ulp of a tie). Needs a working
    precision of at least digits + 20."""
    scaled = int(mpmath.floor(abs(value) * mpmath.mpf(10) ** (digits + 10)))
    m, r = divmod(scaled, 10**10)
    half = 5 * 10**9
    cands = {m, m + 1} if abs(r - half) <= 10 else {m + 1 if r > half else m}
    out = set()
    for c in cands:
        body = to_decimal(c).rjust(digits + 1, "0")
        out.add(("-" if value < 0 and c else "") + body[:-digits] + "." + body[-digits:])
    return out


def constant(name: str):
    """mpmath value of a registry constant at the current precision."""
    if name == "zeta3":
        return mpmath.zeta(3)
    return +{"pi": mpmath.pi, "e": mpmath.e, "log2": mpmath.ln2, "catalan": mpmath.catalan}[name]


def poly(coeffs, n: int) -> int:
    acc = 0
    for c in coeffs:
        acc = acc * n + c
    return acc


def cf_value(a0: int, a_poly, b_poly, depth: int):
    """a0 + b1/(a1 + b2/(a2 + ... + b_depth/a_depth)) by backward
    evaluation at the current mpmath precision."""
    if depth == 0:
        return mpmath.mpf(a0)
    t = mpmath.mpf(poly(a_poly, depth))
    for n in range(depth, 1, -1):
        t = poly(a_poly, n - 1) + poly(b_poly, n) / t
    return a0 + poly(b_poly, 1) / t


def first_difference(got: str, want: str) -> str:
    i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"first difference at character {i} (len {len(got)} vs {len(want)})"


# -- precision ---------------------------------------------------------------


def check_digits(text: str, value_fn, digits: int):
    with mpmath.workdps(digits + 30):
        want = rounded_strings(value_fn(), digits)
    if text in want:
        return OK, ""
    return WRONG, first_difference(text, min(want))


def check_pi(text: str, digits: int):
    return check_digits(text, lambda: +mpmath.pi, digits)


def check_cf_value(text: str, j: dict):
    return check_digits(text, lambda: cf_value(j["a0"], j["a_poly"], j["b_poly"], j["depth"]), j["digits"])


def euclid(num: int, den: int) -> list:
    coeffs = []
    while den:
        a, r = divmod(num, den)
        coeffs.append(a)
        num, den = den, r
    return coeffs


def check_expand_rational(coeffs, truncated, num: int, den: int, terms: int):
    """The first ``terms`` Euclid quotients of num/den (which end in a
    term >= 2, the canonical form); ``truncated`` (None when the output
    does not report it) must say whether more terms exist."""
    full = euclid(num, den)
    if list(coeffs) != full[:terms]:
        return WRONG, f"coefficients differ: {first_difference(list(coeffs), full[:terms])}"
    if truncated is not None and truncated != (len(full) > terms):
        return WRONG, f"truncated={truncated} for a {len(full)}-term expansion"
    return OK, ""


@lru_cache(maxsize=32)
def true_cf(name: str, terms: int) -> tuple:
    coeffs = []
    with mpmath.workdps(2 * terms + 60):
        x = constant(name)
        for _ in range(terms):
            a = int(mpmath.floor(x))
            coeffs.append(a)
            x = 1 / (x - a)
    return tuple(coeffs)


def check_expand_constant(coeffs, name: str, terms: int):
    want = true_cf(name, terms)
    if tuple(coeffs) != want[: len(coeffs)]:
        return WRONG, f"{name} CF differs at term {first_difference(coeffs, want)}"
    if len(coeffs) < terms:
        return FAIL, f"only {len(coeffs)} of {terms} terms certified"
    return OK, ""


class Registry:
    """Conjecture records read straight from the package's data file."""

    def __init__(self, path: Path):
        self.records = {}
        for line in path.read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                self.records[rec["name"]] = rec

    def cf_at(self, rec: dict, depth: int):
        if (rec["a0"], rec["a_poly"], rec["b_poly"]) == (1, [2, 3, 3, 1], [-1, 0, 0, 0, 0, 0, 0]):
            # Euler's fraction for 1/zeta(3): the depth-n convergent is
            # exactly 1 / sum_{k <= n+1} k^-3
            return 1 / (mpmath.zeta(3) - mpmath.zeta(3, depth + 2))
        return cf_value(rec["a0"], rec["a_poly"], rec["b_poly"], depth)

    def check(self, name: str, digits: int, match: bool, abs_error, depth: int):
        """Verdict check: abs_error must be the true distance between the
        depth-``depth`` convergent and transform(constant); match must say
        whether that distance is below 10^-digits; a correct 'no match'
        is a job that did not deliver the verification."""
        rec = self.records[name]
        with mpmath.workdps(digits + 40):
            al, be, ga, de = rec["transform"]
            c = constant(rec["constant"])
            err = abs(self.cf_at(rec, depth) - (al * c + be) / (ga * c + de))
            tol = mpmath.mpf(10) ** -(digits + 12)
            if abs(mpmath.mpf(abs_error) - err) > max(tol, err * 1e-9):
                return WRONG, f"abs_error {mpmath.nstr(mpmath.mpf(abs_error), 8)} but true {mpmath.nstr(err, 8)}"
            gate = mpmath.mpf(10) ** -digits
            if abs(err - gate) > tol and bool(match) != (err < gate):
                return WRONG, f"match={match} with true error {mpmath.nstr(err, 8)}"
        if not match:
            return FAIL, f"{name} not verified to {digits} digits at depth {depth}"
        return OK, ""


# -- graphs ------------------------------------------------------------------


def lps_expectation(p: int, q: int) -> tuple:
    """(vertex count, branch) of X^(p,q) from the Legendre symbol (p/q)."""
    psl = pow(p, (q - 1) // 2, q) == 1
    return (q * (q * q - 1) // 2, "PSL") if psl else (q * (q * q - 1), "PGL")


class GraphOracle:
    """Structure and spectrum checks for k-regular graphs given as
    directed edge arrays (each undirected edge in both directions)."""

    def __init__(self):
        self._spectra = {}

    @staticmethod
    def arrays_from_adjacency(adjacency):
        import numpy as np

        deg = np.fromiter((len(lst) for lst in adjacency), dtype=np.int64, count=len(adjacency))
        rows = np.repeat(np.arange(len(adjacency), dtype=np.int64), deg)
        cols = np.fromiter((v for lst in adjacency for v in lst), dtype=np.int64, count=int(deg.sum()))
        return rows, cols

    @staticmethod
    def arrays_from_edge_list(text: str):
        import numpy as np

        ints = np.array(text.split(), dtype=np.int64)
        n, m = int(ints[0]), int(ints[1])
        pairs = ints[2:].reshape(-1, 2)
        if len(pairs) != m:
            raise ValueError("edge-list header does not match its edges")
        u, v = pairs[:, 0], pairs[:, 1]
        back = u != v
        return n, np.concatenate([u, v[back]]), np.concatenate([v, u[back]])

    def spectrum(self, n: int, rows, cols) -> dict:
        """connected, bipartite and the largest |eigenvalue| once the
        trivial eigenvectors (constant, and +-1 on the two sides of a
        bipartite graph) are projected out, by deflated Lanczos."""
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse import csgraph
        from scipy.sparse.linalg import LinearOperator, eigsh

        key = hashlib.sha1(np.sort(rows * n + cols).tobytes()).hexdigest()
        if key in self._spectra:
            return self._spectra[key]
        a = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        dist = csgraph.shortest_path(a, unweighted=True, indices=0)
        connected = bool(np.isfinite(dist).all())
        side = np.where(np.isfinite(dist), dist, 0).astype(np.int64) % 2
        bipartite = connected and bool((side[rows] != side[cols]).all())
        basis = [np.full(n, 1 / math.sqrt(n))]
        if bipartite:
            basis.append(np.where(side == 0, 1.0, -1.0) / math.sqrt(n))

        def project(x):
            x = np.asarray(x).ravel()
            for b in basis:
                x = x - (b @ x) * b
            return x

        op = LinearOperator((n, n), matvec=lambda x: project(a @ project(x)), dtype=float)
        v0 = project(np.random.default_rng(12345).standard_normal(n))
        vals = eigsh(op, k=2, which="LM", v0=v0, tol=1e-10, return_eigenvectors=False)
        out = {"connected": connected, "bipartite": bipartite, "lambda": float(np.max(np.abs(vals)))}
        self._spectra[key] = out
        return out

    def check(self, p: int, q: int, n: int, rows, cols, reported: dict):
        """reported holds the program's own claims: branch, bipartite,
        lambda (nontrivial), is_ramanujan; absent keys are not checked."""
        import numpy as np

        k = p + 1
        want_n, branch = lps_expectation(p, q)
        if n != want_n:
            return WRONG, f"{n} vertices, expected q(q^2-1)[/2] = {want_n}"
        if "branch" in reported and reported["branch"] != branch:
            return WRONG, f"branch {reported['branch']}, expected {branch}"
        deg = np.bincount(rows, minlength=n)
        if (deg != k).any():
            return WRONG, f"not {k}-regular: degrees {sorted(set(deg.tolist()))[:5]}"
        if not np.array_equal(np.sort(rows * n + cols), np.sort(cols * n + rows)):
            return WRONG, "adjacency is not symmetric"
        spec = self.spectrum(n, rows, cols)
        if not spec["connected"]:
            return WRONG, "graph is not connected"
        if spec["bipartite"] != (branch == "PGL"):
            return WRONG, f"bipartite={spec['bipartite']} for a {branch} graph"
        bound = 2 * math.sqrt(p)
        if spec["lambda"] > bound + 1e-6:
            return WRONG, f"nontrivial eigenvalue {spec['lambda']:.9f} above 2 sqrt(p) = {bound:.9f}"
        if "bipartite" in reported and reported["bipartite"] != spec["bipartite"]:
            return WRONG, "bipartite flag disagrees with the graph"
        if "lambda" in reported and abs(reported["lambda"] - spec["lambda"]) > 1e-6:
            return WRONG, f"lambda {reported['lambda']!r}, oracle {spec['lambda']!r}"
        if "is_ramanujan" in reported and reported["is_ramanujan"] is not True:
            return WRONG, "program says not Ramanujan; the oracle's spectrum is"
        return OK, ""


# -- signals and sums ---------------------------------------------------------


def factor(n: int) -> dict:
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    for p in factor(n):
        n -= n // p
    return n


def mu(n: int) -> int:
    f = factor(n)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


def c_q(q: int, m: int) -> int:
    """Ramanujan sum by von Sterneck's closed form mu(q/g) phi(q)/phi(q/g)."""
    g = math.gcd(q, m)
    return mu(q // g) * phi(q) // phi(q // g)


def divisor_list(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def projections(x, exact: bool) -> dict:
    """q-components of one period of x: x_q[i] = (1/N) sum_j x[j] c_q(i-j)."""
    n = len(x)
    out = {}
    for q in divisor_list(n):
        row = [c_q(q, m) for m in range(q)]
        if exact:
            out[q] = tuple(Fraction(sum(x[j] * row[(i - j) % q] for j in range(n)), n) for i in range(n))
        else:
            import numpy as np

            idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % q
            out[q] = tuple((np.array(row, dtype=float)[idx] @ np.asarray(x, dtype=float)) / n)
    return out


def check_components(x, components: dict, exact: bool):
    """Components against the closed-form projections: exact equality for
    rational input, else within 1e-8 of the signal's scale."""
    n = len(x)
    want = projections(x, exact)
    if set(components) != set(want):
        return WRONG, f"periods {sorted(components)} != divisors {sorted(want)}"
    scale = 1.0 + max(abs(float(v)) for v in x)
    for q, comp in components.items():
        if len(comp) != n:
            return WRONG, f"component {q} has {len(comp)} samples"
        if exact and any(comp[i] != comp[i % q] for i in range(n)):
            return WRONG, f"component {q} is not {q}-periodic"
        if exact:
            if any(Fraction(a) != b for a, b in zip(comp, want[q])):
                return WRONG, f"component {q} differs from the exact projection"
        elif max(abs(float(a) - float(b)) for a, b in zip(comp, want[q])) > 1e-8 * scale:
            return WRONG, f"component {q} differs from the projection"
    total = [sum(comp[i] for comp in components.values()) for i in range(n)]
    if exact and any(Fraction(t) != Fraction(v) for t, v in zip(total, x)):
        return WRONG, "components do not reconstruct the signal exactly"
    if not exact and max(abs(float(t) - v) for t, v in zip(total, x)) > 1e-8 * scale:
        return WRONG, "components do not reconstruct the signal"
    return OK, ""


def check_fir(x, dec):
    exact = all(isinstance(v, int) for v in x)
    if dec.n != len(x):
        return WRONG, f"N={dec.n} for {len(x)} samples"
    if exact and not dec.exact:
        return WRONG, "integer signal not decomposed exactly"
    status = check_components(x, dec.components, exact)
    if status[0] != OK:
        return status
    norm = math.sqrt(sum(float(v) ** 2 for v in x))
    if dec.residual_norm > (0.0 if exact else 1e-8 * (1 + norm)):
        return WRONG, f"residual {dec.residual_norm!r}"
    return OK, ""


def energy_fractions(x) -> dict:
    comps = projections(x, all(isinstance(v, int) for v in x))
    energies = {q: sum(float(v) ** 2 for v in c) for q, c in comps.items()}
    total = sum(energies.values())
    return {q: (e / total if total else 0.0) for q, e in energies.items()}


def check_periods(x, ranked, top: int):
    want = energy_fractions(x)
    if len(ranked) != min(top, len(want)):
        return WRONG, f"{len(ranked)} periods for top {top}"
    kth = sorted(want.values(), reverse=True)[len(ranked) - 1]
    prev = math.inf
    for q, frac in ranked:
        if q not in want or abs(frac - want[q]) > 1e-8:
            return WRONG, f"period {q}: energy {frac!r}, oracle {want.get(q)!r}"
        if want[q] < kth - 1e-8 or frac > prev + 1e-12:
            return WRONG, f"period {q} is not among the top {top} in order"
        prev = frac
    return OK, ""


def check_sums_table(values, q: int, n: int):
    want = [c_q(q, m) for m in range(n)]
    return (OK, "") if list(values) == want else (WRONG, f"c_{q} table differs at n={first_difference(values, want)}")


# -- tau ---------------------------------------------------------------------

_TAU_PRIMES = (1048573, 1048571, 1048559, 1048549)
TAU_KNOWN = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)


@lru_cache(maxsize=4)
def tau_oracle(m: int) -> tuple:
    """tau(1..m) from prod (1-x^k)^24 = ((sum_j (-1)^j (2j+1) x^(j(j+1)/2))^2)^2)^2
    (Jacobi's identity for the cube), squared modulo four primes near 2^20
    with int64 convolutions, then lifted by the Chinese remainder theorem."""
    import numpy as np

    residues = []
    for p in _TAU_PRIMES:
        s = np.zeros(m, dtype=np.int64)
        j = 0
        while j * (j + 1) // 2 < m:
            s[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1) % p
            j += 1
        for _ in range(3):
            s = np.convolve(s, s)[:m] % p
        residues.append(s.tolist())
    modulus = math.prod(_TAU_PRIMES)
    out = []
    for col in zip(*residues):
        v = 0
        for r, p in zip(col, _TAU_PRIMES):
            mp_ = modulus // p
            v += r * mp_ * pow(mp_, -1, p)
        v %= modulus
        out.append(v - modulus if v > modulus // 2 else v)
    return tuple(out)


def tau_multiplicative(t) -> bool:
    """tau(mn) = tau(m) tau(n) for coprime m, n, and the Hecke relation
    tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1)), over the list."""
    m = len(t)
    tau = lambda n: t[n - 1]  # noqa: E731
    for n in range(2, m + 1):
        f = factor(n)
        p, e = min(f.items())
        pe = p**e
        if pe != n and tau(n) != tau(pe) * tau(n // pe):
            return False
        if e >= 2 and tau(pe) != tau(p) * tau(pe // p) - p**11 * (tau(pe // p**2)):
            return False
    return True


def check_tau(values, m: int):
    values = list(values)
    if len(values) != m:
        return WRONG, f"{len(values)} coefficients for max {m}"
    if tuple(values[:10]) != TAU_KNOWN[: min(10, m)]:
        return WRONG, "tau(1..10) differ from the known values"
    if not tau_multiplicative(values):
        return WRONG, "tau is not multiplicative"
    want = tau_oracle(m)
    if tuple(values) != want:
        return WRONG, f"tau differs at n={first_difference(values, want)}"
    return OK, ""


def tau_bound_expectation(p_max: int) -> dict:
    t = tau_oracle(max(p_max, 2))
    primes = [p for p in range(2, p_max + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    ratios = {p: math.sqrt(t[p - 1] ** 2 / (4 * p**11)) for p in primes}
    worst = max(ratios, key=ratios.get)
    return {"primes_checked": len(primes), "holds": all(t[p - 1] ** 2 <= 4 * p**11 for p in primes),
            "worst_prime": worst, "max_ratio": ratios[worst]}


def check_tau_bound(report: dict, p_max: int):
    want = tau_bound_expectation(p_max)
    for key in ("primes_checked", "holds", "worst_prime"):
        if report[key] != want[key]:
            return WRONG, f"{key}={report[key]!r}, oracle {want[key]!r}"
    if abs(report["max_ratio"] - want["max_ratio"]) > 1e-12 * want["max_ratio"]:
        return WRONG, f"max_ratio {report['max_ratio']!r}, oracle {want['max_ratio']!r}"
    return OK, ""


# -- dispatch ----------------------------------------------------------------


class Oracles:
    def __init__(self, src: Path):
        self.registry = Registry(src / "ramkit" / "data" / "conjectures.jsonl")
        self.graphs = GraphOracle()

    def check(self, j: dict, result, cwd: Path | None = None):
        kind = j["kind"]
        if kind == "pi":
            return check_pi(result, j["digits"])
        if kind == "eval_cf":
            return check_cf_value(result, j)
        if kind == "expand_rational":
            return check_expand_rational(*result, j["num"], j["den"], j["terms"])
        if kind == "expand_constant":
            return check_expand_constant(result[0], j["name"], j["terms"])
        if kind == "verify":
            return self.registry.check(j["name"], j["digits"], result.match, str(result.abs_error),
                                       result.depth_used)
        if kind == "lps":
            graph, report, meta = result
            rows, cols = GraphOracle.arrays_from_adjacency(graph.adjacency)
            claims = {"branch": meta["branch"], "bipartite": report.bipartite,
                      "lambda": report.lambda_nontrivial, "is_ramanujan": report.is_ramanujan}
            if report.k != j["p"] + 1 or meta["lambda_nontrivial"] != report.lambda_nontrivial:
                return WRONG, "metadata disagrees with the spectral report"
            return self.graphs.check(j["p"], j["q"], graph.n, rows, cols, claims)
        if kind == "fir":
            return check_fir(j["samples"], result)
        if kind == "periods":
            return check_periods(j["samples"], result, j["top"])
        if kind == "sums_table":
            return check_sums_table(result, j["q"], j["n"])
        if kind == "tau":
            return check_tau(result, j["max"])
        if kind == "tau_bound":
            return check_tau_bound(vars(result), j["p_max"])
        if kind == "cli":
            return self.check_cli(j, *result, cwd)
        raise ValueError(f"no oracle for job kind {kind!r}")

    def check_cli(self, j: dict, code: int, out: str, err: str, cwd: Path):
        expect = j["expect"]
        if TRACEBACK in err:
            return FAIL, "traceback: " + err.strip().splitlines()[-1][:160]
        if expect == "error":
            lines = err.strip().splitlines()
            if code != 1 or len(lines) != 1 or not lines[0].startswith("error:") or out:
                return FAIL, f"exit {code}, expected exit 1 with one 'error:' line"
            return OK, ""
        if expect == "usage":
            return (OK, "") if code == 2 and "usage:" in err else (FAIL, f"exit {code}, expected usage error 2")
        if code != 0:
            return FAIL, f"exit {code}: {err.strip()[-160:]}"
        try:
            return self._check_cli_output(j, expect, out, cwd)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return WRONG, f"unparseable output ({type(exc).__name__}: {exc})"

    def _check_cli_output(self, j: dict, expect: str, out: str, cwd: Path):
        if expect == "pi":
            return check_pi(out.strip(), j["digits"])
        if expect == "pi_json":
            return check_pi(json.loads(out)["value"], j["digits"])
        if expect in ("graph_build", "graph_check", "graph_check_text"):
            n, rows, cols = GraphOracle.arrays_from_edge_list((cwd / j["file"]).read_text())
            if expect == "graph_check_text":
                fields = dict(tok.split("=", 1) for tok in out.split())
                claims = {"lambda": float(fields["lambda"]), "bipartite": fields["bipartite"] == "True",
                          "is_ramanujan": fields["ramanujan"] == "True"}
                reported_n = int(fields["vertices"])
            else:
                data = json.loads(out)
                claims = {k: data[k] for k in ("lambda", "is_ramanujan", "branch", "bipartite") if k in data}
                reported_n = data["vertices"]
                if expect == "graph_build" and json.loads((cwd / (j["file"] + ".json")).read_text()) != data:
                    return WRONG, "metadata sidecar differs from stdout"
            if reported_n != n:
                return WRONG, f"reports {reported_n} vertices, file has {n}"
            return self.graphs.check(j["p"], j["q"], n, rows, cols, claims)
        if expect == "cf_eval":
            return check_cf_value(out.strip(), j)
        if expect == "expand_rational":
            return check_expand_rational([int(t) for t in out.split()], None, j["num"], j["den"], 20)
        if expect == "expand_constant":
            return check_expand_constant([int(t) for t in out.split()], j["name"], j["terms"])
        if expect == "verify":
            data = json.loads(out)
            return self.registry.check(j["name"], j["digits"], data["match"], repr(data["abs_error"]),
                                       data["depth_used"])
        if expect == "sums_table":
            return check_sums_table([int(t) for t in out.split()], j["q"], j["n"])
        if expect == "tau_json":
            data = json.loads(out)
            status = check_tau(data["tau"], j["max"])
            return status if status[0] != OK else check_tau_bound(data["bound"], j["max"])
        if expect == "signal_decompose":
            data = json.loads(out)
            comps = {c["q"]: tuple(c["samples"]) for c in data["components"]}
            x = j["samples"]
            status = check_components(x, comps, exact=False)
            if status[0] != OK:
                return status
            want = energy_fractions(x)
            if any(abs(c["energy_fraction"] - want[c["q"]]) > 1e-9 for c in data["components"]):
                return WRONG, "energy fractions differ"
            return OK, ""
        if expect == "signal_periods":
            ranked = [(int(q), float(f)) for q, f in (line.split() for line in out.strip().splitlines())]
            return check_periods(j["samples"], ranked, j["top"])
        if expect == "selftest":
            m = re.search(r"selftest (\w+): (\d+)/(\d+) passed", out)
            return (OK, "") if m and m.group(2) == m.group(3) else (WRONG, "selftest summary missing or failing")
        if expect == "selftest_json":
            data = json.loads(out)
            ok = data["failed"] == 0 and data["passed"] == len(data["checks"]) > 0
            return (OK, "") if ok else (WRONG, "selftest reports failures")
        raise ValueError(f"no oracle for cli expectation {expect!r}")
