"""Command-line front end: pi, graph, cf, sums, signal, selftest.

Exit codes: 0 success, 1 domain error (a precondition failed), 2 usage
error. --json always emits exactly one top-level JSON object; plain
text output for single-number commands is one line holding just the
number. Output is deterministic: the same argv yields the same bytes.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from . import DomainError, contfrac, pi_engine, ram_signal
from .bigdec import BigDecimal

# lps_graphs (and with it numpy) is imported inside the graph commands
# and graph self-checks only, so the other commands start without it;
# graph check imports it once its file has been read and parsed, so an
# unreadable file fails without it too.

_PI_42 = "3.141592653589793238462643383279502884197169"
_C6_ROW = (2, 1, -1, -2, -1, 1, 2, 1, -1, -2, -1, 1)
_TAU_START = (1, -24, 252, -1472, 4830)
_CF_REFERENCE_CAP = 500  # largest digits reference_constant accepts
_GEN_SET_5_29 = {
    (3, 0, 0, 10),
    (8, 11, 11, 8),
    (8, 13, 16, 8),
    (8, 16, 13, 8),
    (8, 18, 18, 8),
    (10, 0, 0, 3),
}


def _emit_json(obj) -> None:
    print(json.dumps(obj))


def _json_number(v):
    """JSON-safe sample value: int, float, or [re, im] for complex."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else float(v)
    return v


# ---------------------------------------------------------------- pi


def _cmd_pi(args) -> int:
    digits = args.digits
    if args.terms is not None and args.method != "madhava":
        raise DomainError("--terms applies only to the madhava method")
    terms_used = None
    if args.method == "madhava":
        terms_used = pi_engine.madhava_terms(digits) if args.terms is None else args.terms
        value = pi_engine.pi_madhava(terms_used, digits)
    elif args.method == "machin":
        value = pi_engine.pi_machin(digits)
    elif args.method == "ramanujan":
        value = pi_engine.pi_ramanujan(digits)
    else:
        value = pi_engine.pi_chudnovsky(digits)
        terms_used = pi_engine.chudnovsky_terms(digits)
    rate = None
    if args.report_convergence:
        if args.method not in ("ramanujan", "chudnovsky"):
            raise DomainError(
                "--report-convergence supports the ramanujan and chudnovsky methods"
            )
        rate = pi_engine.digits_per_term(args.method, 12)
    if args.json:
        payload = {
            "method": args.method,
            "digits": digits,
            "terms_used": terms_used,
            "value": str(value),
        }
        if rate is not None:
            payload["digits_per_term"] = rate
        _emit_json(payload)
    else:
        if rate is not None:
            print(f"digits_per_term={rate!r}", file=sys.stderr)
        print(value)
    return 0


# ------------------------------------------------------------- graph


def _graph_metadata(report, p: int, q: int, branch: str, n: int) -> dict:
    return {
        "p": p,
        "q": q,
        "branch": branch,
        "vertices": n,
        "degree": report.k,
        "lambda": report.lambda_nontrivial,
        "bound": report.bound,
        "is_ramanujan": report.is_ramanujan,
    }


def _write_edge_list(path: str, graph) -> None:
    lines = [f"{graph.n} {graph.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_text(path: str) -> str:
    """Contents of an ASCII --in file; unreadable files are domain errors."""
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None


def _read_edge_list(path: str):
    tokens = _read_text(path).split()
    if len(tokens) < 2:
        raise DomainError(f"{path}: missing edge-list header")
    ints = []
    for tok in tokens:
        try:
            ints.append(int(tok))
        except ValueError:
            raise DomainError(f"{path}: bad token {tok!r}") from None
    n, m = ints[0], ints[1]
    pairs = ints[2:]
    if n < 1 or m < 0 or len(pairs) != 2 * m:
        raise DomainError(f"{path}: header does not match edge count")
    adjacency = [[] for _ in range(n)]
    for u, v in zip(pairs[::2], pairs[1::2]):
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"{path}: vertex id out of range")
        adjacency[u].append(v)
        if u != v:
            adjacency[v].append(u)
    for lst in adjacency:
        lst.sort()
    from . import lps_graphs

    return lps_graphs.Graph(n=n, adjacency=adjacency)


def _cmd_graph_build(args) -> int:
    from . import lps_graphs

    graph, report, meta = lps_graphs.build_lps(args.p, args.q)
    sidecar = _graph_metadata(report, args.p, args.q, meta["branch"], graph.n)
    if args.out:
        try:
            _write_edge_list(args.out, graph)
            with open(args.out + ".json", "w", encoding="ascii") as fh:
                fh.write(json.dumps(sidecar) + "\n")
        except OSError as exc:  # unwritable --out, as _read_text for --in
            raise DomainError(f"cannot write {args.out}: {exc}") from None
    if args.json:
        _emit_json(sidecar)
    else:
        print(
            f"X^({args.p},{args.q}) branch={meta['branch']} vertices={graph.n} "
            f"degree={report.k} lambda={report.lambda_nontrivial!r} "
            f"bound={report.bound!r} ramanujan={report.is_ramanujan}"
        )
    return 0


def _cmd_graph_check(args) -> int:
    graph = _read_edge_list(args.infile)
    from . import lps_graphs

    report = lps_graphs.spectral_report(graph, args.degree)
    payload = {
        "vertices": graph.n,
        "degree": report.k,
        "lambda": report.lambda_nontrivial,
        "lambda_second": report.lambda2,
        "bound": report.bound,
        "bound_alt": report.bound_alt,
        "bipartite": report.bipartite,
        "is_ramanujan": report.is_ramanujan,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(
            f"vertices={graph.n} degree={report.k} "
            f"lambda={report.lambda_nontrivial!r} bound={report.bound!r} "
            f"bipartite={report.bipartite} ramanujan={report.is_ramanujan}"
        )
    return 0


def _cmd_graph_verify(args) -> int:
    from . import lps_graphs

    report = lps_graphs.lps_spectrum(args.p, args.q)
    branch = lps_graphs.generating_set(args.p, args.q)[0].kind
    n = lps_graphs.group_order(args.q, branch)
    if args.json:
        payload = _graph_metadata(report, args.p, args.q, branch, n)
        payload.update(
            lambda_second=report.lambda2,
            bound_alt=report.bound_alt,
            bipartite=report.bipartite,
            connected=True,  # lps_spectrum raised otherwise
        )
        _emit_json(payload)
    else:
        print(
            f"X^({args.p},{args.q}) branch={branch} vertices={n} "
            f"degree={report.k} lambda={report.lambda_nontrivial!r} "
            f"bound={report.bound!r} bipartite={report.bipartite} "
            f"ramanujan={report.is_ramanujan}"
        )
    return 0


# ---------------------------------------------------------------- cf


def _parse_poly(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise DomainError(
            f"bad polynomial {text!r}; expected comma-separated integers"
        ) from None


def _cmd_cf_eval(args) -> int:
    spec = contfrac.CFSpec(
        a0=args.a0,
        depth=args.depth,
        a_poly=_parse_poly(args.a_poly),
        b_poly=_parse_poly(args.b_poly),
    )
    result = contfrac.eval_cf(spec, args.digits)
    if args.json:
        _emit_json(
            {
                "a0": args.a0,
                "a_poly": list(spec.a_poly),
                "b_poly": list(spec.b_poly),
                "depth": args.depth,
                "digits": args.digits,
                "value": str(result.value),
                "error_estimate": None if result.error is None else float(result.error),
            }
        )
    else:
        print(result.value)
    return 0


def _expand_constant(name: str, terms: int):
    """Certified simple-CF terms of a reference constant. Partial
    quotients of e grow, so no fixed digits-per-term budget serves every
    constant: the reference is widened until the expansion is complete."""
    digits = min(_CF_REFERENCE_CAP, max(30, math.ceil(terms * 1.2) + 15))
    while True:
        result = contfrac.simple_cf_expand(contfrac.reference_constant(name, digits), terms)
        if not result.truncated:
            return result
        if digits == _CF_REFERENCE_CAP:
            raise DomainError(
                f"{_CF_REFERENCE_CAP} reference digits certify only "
                f"{len(result.coeffs)} of {terms} terms of {name}"
            )
        digits = min(_CF_REFERENCE_CAP, 2 * digits)


def _cmd_cf_expand(args) -> int:
    if (args.value is None) == (args.constant is None):
        raise DomainError("pass exactly one of --value or --constant")
    if args.value is not None:
        # each side goes through BigDecimal.parse, which, unlike
        # Fraction(text), has no int/str digit cap
        num, slash, den = args.value.partition("/")
        try:
            x = BigDecimal.parse(num).as_fraction()
            if slash:
                x /= BigDecimal.parse(den).as_fraction()
        except (DomainError, ZeroDivisionError):
            raise DomainError(f"cannot parse rational {args.value!r}") from None
        source = args.value
        result = contfrac.simple_cf_expand(x, args.terms)
    else:
        source = args.constant
        result = _expand_constant(args.constant, args.terms)
    # str() and json.dumps stop at 4300-digit ints; BigDecimal's text does not
    coeffs = [str(BigDecimal.from_int(c)) for c in result.coeffs]
    if args.json:
        print(
            f'{{"input": {json.dumps(source)}, "coefficients": [{", ".join(coeffs)}], '
            f'"truncated": {json.dumps(result.truncated)}}}'
        )
    else:
        print(" ".join(coeffs))
    return 0


def _cmd_cf_verify(args) -> int:
    result = contfrac.verify_conjecture(args.name, args.digits)
    if args.json:
        _emit_json(
            {
                "name": result.name,
                "status": result.status,
                "digits": result.digits,
                "abs_error": float(result.abs_error),
                "depth_used": result.depth_used,
                "match": result.match,
            }
        )
    else:
        print(
            f"{result.name}: match={result.match} digits={result.digits} "
            f"abs_error={float(result.abs_error)!r} depth={result.depth_used} "
            f"converged={result.converged}"
        )
    return 0


# -------------------------------------------------------------- sums


def _cmd_sums_table(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be >= 1")
    # c_q(n) depends on n only through gcd(q, n): one sum per gcd met
    gcds = [math.gcd(args.q, n) for n in range(args.n)]
    by_gcd = {g: ram_signal.ramanujan_sum(args.q, g) for g in set(gcds)}
    values = [by_gcd[g] for g in gcds]
    if args.json:
        _emit_json({"q": args.q, "n": args.n, "values": values})
    else:
        print(" ".join(str(v) for v in values))
    return 0


def _cmd_sums_tau(args) -> int:
    taus = ram_signal.tau_coefficients(args.max)
    bound = None
    if args.check_bound:
        if args.max < 2:
            raise DomainError("--check-bound needs --max >= 2")
        bound = ram_signal.check_tau_bound(args.max)
    if args.json:
        payload = {"max": args.max, "tau": taus}
        if bound is not None:
            payload["bound"] = {
                "holds": bound.holds,
                "max_ratio": bound.max_ratio,
                "worst_prime": bound.worst_prime,
                "primes_checked": bound.primes_checked,
            }
        _emit_json(payload)
    else:
        print(" ".join(str(t) for t in taus))
        if bound is not None:
            print(
                f"bound_holds={bound.holds} max_ratio={bound.max_ratio!r} "
                f"worst_prime={bound.worst_prime}"
            )
    return 0


# ------------------------------------------------------------ signal


def _load_signal(args) -> ram_signal.Signal:
    csv = args.csv or args.infile.lower().endswith(".csv")
    return ram_signal.parse_samples(_read_text(args.infile), csv=csv)


def _cmd_signal_decompose(args) -> int:
    sig = _load_signal(args)
    dec = ram_signal.fir_decompose(sig)
    fractions = dec.energy_fractions()
    components = [
        {
            "q": q,
            "energy_fraction": fractions[q],
            "samples": [_json_number(v) for v in dec.components[q]],
        }
        for q in sorted(dec.components)
    ]
    if args.json:
        _emit_json(
            {"N": dec.n, "components": components, "residual": dec.residual_norm}
        )
    else:
        for comp in components:
            print(f"q={comp['q']} energy_fraction={comp['energy_fraction']!r}")
        print(f"residual={dec.residual_norm!r}")
    return 0


def _cmd_signal_periods(args) -> int:
    sig = _load_signal(args)
    ranked = ram_signal.estimate_periods(sig, args.top)
    if args.json:
        _emit_json(
            {
                "N": sig.n,
                "top": [
                    {"q": q, "energy_fraction": frac} for q, frac in ranked
                ],
            }
        )
    else:
        for q, frac in ranked:
            print(f"{q} {frac!r}")
    return 0


# ---------------------------------------------------------- selftest


def _check_pi_digit_string() -> str:
    for name, value in (
        ("madhava", pi_engine.pi_madhava(100, 42)),
        ("machin", pi_engine.pi_machin(42)),
        ("ramanujan", pi_engine.pi_ramanujan(42)),
        ("chudnovsky", pi_engine.pi_chudnovsky(42)),
    ):
        got = str(value)
        if got != _PI_42:
            raise AssertionError(f"{name} printed {got}")
    return "four methods agree on the 42-digit expansion"


def _check_chudnovsky_terms() -> str:
    state = pi_engine.CHUDNOVSKY_INITIAL
    for _ in range(30):
        state = pi_engine.chudnovsky_step(state)
        q = state.q
        expected = (
            math.factorial(6 * q)
            // (math.factorial(3 * q) * math.factorial(q) ** 3)
        )
        if state.M != expected:
            raise AssertionError(f"M_{q} = {state.M} != {expected}")
    return "recurrence M_q matches (6q)!/((3q)!(q!)^3) for q <= 30"


def _check_c6_table() -> str:
    row = tuple(ram_signal.ramanujan_sum(6, n) for n in range(12))
    if row != _C6_ROW:
        raise AssertionError(f"c_6 row {row}")
    return "c_6(0..11) matches the reference row"


def _check_tau_start() -> str:
    taus = tuple(ram_signal.tau_coefficients(5))
    if taus != _TAU_START:
        raise AssertionError(f"tau(1..5) = {taus}")
    return "tau(1..5) = 1, -24, 252, -1472, 4830"


def _check_tau_bound_quick() -> str:
    report = ram_signal.check_tau_bound(100)
    if not report.holds:
        raise AssertionError("bound violated below 100")
    return f"|tau(p)| <= 2 p^5.5 for p <= 100, max ratio {report.max_ratio!r}"


def _check_generating_set() -> str:
    from . import lps_graphs

    gens = lps_graphs.generating_set(5, 29)
    got = {g.entries() for g in gens}
    if got != _GEN_SET_5_29:
        raise AssertionError(f"generating set {sorted(got)}")
    return "X^(5,29) generating set matches the six reference matrices"


def _check_graph_5_13() -> str:
    from . import lps_graphs

    graph, report, meta = lps_graphs.build_lps(5, 13)
    if graph.n != 2184 or meta["branch"] != lps_graphs.PGL:
        raise AssertionError(f"n={graph.n} branch={meta['branch']}")
    if not report.is_ramanujan:
        raise AssertionError(f"lambda={report.lambda_nontrivial}")
    return (
        f"X^(5,13): 2184 vertices, lambda {report.lambda_nontrivial:.6f} "
        f"<= {report.bound:.6f}"
    )


def _check_graph_5_29() -> str:
    from . import lps_graphs

    graph, report, meta = lps_graphs.build_lps(5, 29)
    if graph.n != 12180 or meta["branch"] != lps_graphs.PSL:
        raise AssertionError(f"n={graph.n} branch={meta['branch']}")
    if not (report.is_ramanujan and report.lambda_nontrivial <= 4.899):
        raise AssertionError(f"lambda={report.lambda_nontrivial}")
    return f"X^(5,29): lambda {report.lambda_nontrivial:.6f} <= 4.899"


def _check_pi_expansion() -> str:
    x = contfrac.reference_constant("pi", 40)
    result = contfrac.simple_cf_expand(x, 5)
    if list(result.coeffs) != [3, 7, 15, 1, 292]:
        raise AssertionError(f"pi expansion {result.coeffs}")
    return "pi begins [3; 7, 15, 1, 292]"


def _check_registry_e() -> str:
    result = contfrac.verify_conjecture("e", 30)
    if not result.match:
        raise AssertionError(f"abs_error={float(result.abs_error)}")
    return f"registry 'e' matches to 30 digits at depth {result.depth_used}"


def _check_registry_pi() -> str:
    result = contfrac.verify_conjecture("pi", 30)
    if not result.match:
        raise AssertionError(f"abs_error={float(result.abs_error)}")
    return f"registry 'pi' matches to 30 digits at depth {result.depth_used}"


def _check_rogers_ramanujan() -> str:
    from .bigdec import exp_bd

    digits = 25
    w = digits + 10
    pi_w = pi_engine.pi_chudnovsky(w)
    q = exp_bd(BigDecimal(-2 * pi_w.mantissa, pi_w.scale), w)
    r = contfrac.rogers_ramanujan_R(q, digits, 60)
    s5 = BigDecimal.from_int(5).sqrt(w).as_fraction()
    closed = (
        BigDecimal.from_fraction((5 + s5) / 2, 2 * w).sqrt(w).as_fraction()
        - (s5 + 1) / 2
    )
    diff = abs(r.as_fraction() - closed)
    if diff > Fraction(1, 10**digits):
        raise AssertionError(f"difference {float(diff)}")
    return "R(e^(-2 pi)) matches its surd form to 25 digits"


def _check_sigma_series(terms: int) -> str:
    details = []
    for n, target in ((6, 12), (7, 8)):
        got = ram_signal.rf_partial_sum("sigma", n, terms)
        if abs(got - target) / target > 0.01:
            raise AssertionError(f"sigma({n}) partial sum {got}")
        details.append(f"sigma({n})~{got:.4f}")
    return f"{terms}-term sums: " + ", ".join(details)


def _check_b6_rank() -> str:
    basis = ram_signal.ramanujan_basis(6)
    if basis.matrix[0] != (2, 1, -1, -2, -1, 1) or basis.rank != 2:
        raise AssertionError(f"rank={basis.rank} row={basis.matrix[0]}")
    return "B_6 has the reference first row and rank phi(6) = 2"


def _check_gamma_ratio() -> str:
    check = contfrac.gamma_ratio_cf_check(1, digits=20, depth=10**4)
    err = float(check.abs_error)
    if err > 1e-3:
        raise AssertionError(f"abs_error={err}")
    return f"squared ratio at x=1 equals 4/pi CF to {err:.1e}"


_QUICK_CHECKS = (
    ("pi digit string", _check_pi_digit_string),
    ("chudnovsky term integrality", _check_chudnovsky_terms),
    ("Table c_6", _check_c6_table),
    ("tau leading coefficients", _check_tau_start),
    ("tau prime bound", _check_tau_bound_quick),
    ("X^(5,29) generating set", _check_generating_set),
    ("X^(5,13) spectrum", _check_graph_5_13),
    ("pi simple continued fraction", _check_pi_expansion),
    ("registry pi", _check_registry_pi),
    ("registry e", _check_registry_e),
    ("Rogers-Ramanujan evaluation", _check_rogers_ramanujan),
    ("sigma partial sums", lambda: _check_sigma_series(1000)),
    ("B_6 rank", _check_b6_rank),
    ("gamma ratio fraction", _check_gamma_ratio),
)

_FULL_CHECKS = _QUICK_CHECKS + (
    ("X^(5,29) spectrum", _check_graph_5_29),
    ("sigma partial sums 10^4 terms", lambda: _check_sigma_series(10**4)),
)


def _cmd_selftest(args) -> int:
    checks = _QUICK_CHECKS if args.level == "quick" else _FULL_CHECKS
    results = []
    for name, func in checks:
        try:
            detail = func()
            results.append({"name": name, "ok": True, "detail": detail})
        except Exception as exc:  # report, never crash the runner
            results.append({"name": name, "ok": False, "detail": str(exc)})
    passed = sum(1 for r in results if r["ok"])
    if args.json:
        _emit_json(
            {
                "level": args.level,
                "passed": passed,
                "failed": len(results) - passed,
                "checks": results,
            }
        )
    else:
        for r in results:
            print(f"{'PASS' if r['ok'] else 'FAIL'} {r['name']}: {r['detail']}")
        print(f"selftest {args.level}: {passed}/{len(results)} passed")
    return 0 if passed == len(results) else 1


# ------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramkit",
        description="pi series, Ramanujan graphs, continued fractions, "
        "Ramanujan sums and period estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pi", help="print pi to a digit count")
    sp.add_argument(
        "--method",
        required=True,
        choices=("madhava", "machin", "ramanujan", "chudnovsky"),
    )
    sp.add_argument("--digits", type=int, required=True)
    sp.add_argument("--terms", type=int, help="series terms (madhava only)")
    sp.add_argument("--report-convergence", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_pi)

    gp = sub.add_parser("graph", help="Ramanujan graph construction and checks")
    gsub = gp.add_subparsers(dest="graph_command", required=True)
    gb = gsub.add_parser("build", help="build X^(p,q) and verify its spectrum")
    gb.add_argument("--p", type=int, required=True)
    gb.add_argument("--q", type=int, required=True)
    gb.add_argument("--out", help="edge-list file; metadata goes to FILE.json")
    gb.add_argument("--json", action="store_true")
    gb.set_defaults(func=_cmd_graph_build)
    gc = gsub.add_parser("check", help="re-verify an edge-list file")
    gc.add_argument("--in", dest="infile", required=True)
    gc.add_argument("--degree", type=int, required=True)
    gc.add_argument("--json", action="store_true")
    gc.set_defaults(func=_cmd_graph_check)
    gv = gsub.add_parser(
        "verify",
        help="verify the spectrum of X^(p,q) without building it",
        description="Solve one dense block per irreducible representation of "
        "PGL(2,q), at most q+1 rows each, for every eigenvalue of X^(p,q) "
        "with its multiplicity. The graph is connected when k occurs once "
        "and bipartite when -k occurs.",
    )
    gv.add_argument("--p", type=int, required=True)
    gv.add_argument("--q", type=int, required=True)
    gv.add_argument("--json", action="store_true")
    gv.set_defaults(func=_cmd_graph_verify)

    cp = sub.add_parser("cf", help="continued fractions and the conjecture registry")
    csub = cp.add_subparsers(dest="cf_command", required=True)
    ce = csub.add_parser("eval", help="evaluate a polynomial continued fraction")
    ce.add_argument("--a-poly", required=True, help="highest degree first, e.g. 3,7,4")
    ce.add_argument("--b-poly", required=True)
    ce.add_argument("--a0", type=int, required=True)
    ce.add_argument("--digits", type=int, required=True)
    ce.add_argument("--depth", type=int, default=1000)
    ce.add_argument("--json", action="store_true")
    ce.set_defaults(func=_cmd_cf_eval)
    cx = csub.add_parser("expand", help="simple continued fraction coefficients")
    cx.add_argument(
        "--value", help="rational like 5000/127; write a negative one as --value=-5000/127"
    )
    cx.add_argument(
        "--constant", choices=("pi", "e", "log2", "catalan", "zeta3")
    )
    cx.add_argument("--terms", type=int, default=20)
    cx.add_argument("--json", action="store_true")
    cx.set_defaults(func=_cmd_cf_expand)
    cv = csub.add_parser("verify", help="check a registry record numerically")
    cv.add_argument("--name", required=True)
    cv.add_argument("--digits", type=int, default=30)
    cv.add_argument("--json", action="store_true")
    cv.set_defaults(func=_cmd_cf_verify)

    up = sub.add_parser("sums", help="Ramanujan sums and the tau function")
    usub = up.add_subparsers(dest="sums_command", required=True)
    ut = usub.add_parser("table", help="print c_q(0..n-1)")
    ut.add_argument("--q", type=int, required=True)
    ut.add_argument("--n", type=int, required=True)
    ut.add_argument("--json", action="store_true")
    ut.set_defaults(func=_cmd_sums_table)
    uu = usub.add_parser("tau", help="print tau(1..max)")
    uu.add_argument("--max", type=int, required=True)
    uu.add_argument("--check-bound", action="store_true")
    uu.add_argument("--json", action="store_true")
    uu.set_defaults(func=_cmd_sums_tau)

    sgp = sub.add_parser("signal", help="periodic decomposition of signals")
    nsub = sgp.add_subparsers(dest="signal_command", required=True)
    nd = nsub.add_parser("decompose", help="split a signal over divisor periods")
    nd.add_argument("--in", dest="infile", required=True)
    nd.add_argument("--csv", action="store_true", help="force CSV input parsing")
    nd.add_argument("--json", action="store_true")
    nd.set_defaults(func=_cmd_signal_decompose)
    npr = nsub.add_parser("periods", help="rank periods by component energy")
    npr.add_argument("--in", dest="infile", required=True)
    npr.add_argument("--csv", action="store_true", help="force CSV input parsing")
    npr.add_argument("--top", type=int, default=3)
    npr.add_argument("--json", action="store_true")
    npr.set_defaults(func=_cmd_signal_periods)

    st = sub.add_parser("selftest", help="run the built-in verification suite")
    st.add_argument("--level", choices=("quick", "full"), default="quick")
    st.add_argument("--json", action="store_true")
    st.set_defaults(func=_cmd_selftest)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
