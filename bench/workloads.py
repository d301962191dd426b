"""Seeded job mixes for the four benchmark workloads, and how to run a job.

A run repeats pairs of *rounds* until its timed wall clock reaches
``--seconds``; latency metrics are taken over each pair on its own.
Every round of a workload has the same composition: the same job kinds,
the same size classes, the same count of each. The seed (with the round
index) only draws the concrete inputs inside each class: digit counts,
polynomials, signals, graph pairs, argv values. Failure counts per round
are therefore fixed by the mix, which makes the error share exact, and
run-to-run spread comes from the code, not from a lucky draw.

ramkit receives only the generated inputs. Nothing here imports an
oracle; ``oracles.py`` checks results afterwards.
"""

import hashlib
import json
import math
import random
import subprocess
import sys
from contextlib import nullcontext
from fractions import Fraction

WORKLOADS = ("precision", "graphs", "signals", "cli-cold")

# Single-run sizing that chose the mix: seconds per call on one core of
# a 2-vCPU x86-64 container, Python 3.11.7, numpy 2.4, scipy 1.17.
SIZING = {
    "precision": {
        "pi_madhava_4000_digits": 0.66, "pi_machin_4000": 0.020,
        "pi_ramanujan_4000": 0.087, "pi_chudnovsky_4000": 0.053,
        "pi_chudnovsky_10000_recurrence": 0.53, "pi_chudnovsky_20000_binsplit": 0.050,
        "pi_chudnovsky_100000_binsplit": 0.97, "eval_cf_depth_20000": 0.055,
        "verify_zeta3_10_digits": 0.67, "verify_zeta3_11_digits": 1.45,
        "verify_zeta3_12_digits": 5.3, "verify_zeta3_13_digits_cap": 9.7,
        "left_out": "zeta3 at 11-12 digits (1.5 s, 5.3 s) and madhava above 1500 digits",
    },
    "graphs": {
        "X(17,13)_PSL_1092_dense": 0.35, "X(5,13)_PGL_2184_lanczos": 0.52,
        "X(13,17)_PSL_2448": 0.25, "X(5,17)_PGL_4896": 0.28,
        "X(5,29)_PSL_12180": 0.63, "X(13,29)_PSL_12180": 1.44,
        "X(5,37)_PGL_50616": 3.9, "X(29,37)_PGL_50616": 17.8,
        "left_out": "every valid pair with q <= 37 not in GRAPH_ROUND (0.6-18 s each)",
    },
    "signals": {
        "fir_exact_N60": 0.53, "fir_exact_N96": 0.82, "fir_exact_N120": 4.8,
        "fir_float_N120": 1.09, "fir_float_N240": 3.7, "fir_float_N360": 7.3,
        "tau_5000": 1.38, "check_tau_bound_5000": 1.31,
        "left_out": "exact N=120/144 and float N=360 (5-7 s each)",
    },
    "cli-cold": {
        "bare_interpreter": 0.07, "import_ramkit_cli": 0.34,
        "pi_digits_42": 0.33, "graph_build_5_13": 0.91, "selftest_full": 2.2,
    },
}


class Draws:
    """Seeded draws for one round.

    A size class with ``count`` jobs per round splits its range into
    2 * count equal strata. Round 2k draws one value in the middle fifth
    of each even stratum; round 2k+1 reuses the same random numbers
    mirrored (u -> 1-u), which lands one value in each odd stratum. Each
    pair of rounds thus covers every stratum once and costs nearly the
    same whatever the seed, so that order statistics such as the median
    job do not move with the draw. Contents (signal values, coefficients, order)
    come from the round's own stream.
    """

    def __init__(self, workload: str, seed: int, index: int):
        self._sizes = random.Random(f"{workload}/{seed}/pair{index // 2}")
        self._mirror = index % 2 == 1
        self.rng = random.Random(f"{workload}/{seed}/{index}")

    def _units(self, count: int) -> list:
        strata = 2 * count
        out = []
        for i in range(count):
            u = (2 * i + 0.4 + 0.2 * self._sizes.random()) / strata
            out.append(1.0 - u if self._mirror else u)
        return out

    def sizes(self, lo: int, hi: int, count: int) -> list:
        span = hi - lo + 1
        return [lo + min(int(u * span), span - 1) for u in self._units(count)]

    def size(self, lo: int, hi: int) -> int:
        return self.sizes(lo, hi, 1)[0]

    def pick(self, seq):
        return seq[min(int(self._units(1)[0] * len(seq)), len(seq) - 1)]


def job(kind: str, cls: str, **args) -> dict:
    return {"kind": kind, "cls": cls, **args}


def digest(jobs) -> str:
    """sha256 prefix of a job list, for determinism checks."""
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- precision -------------------------------------------------------------

REGISTRY_FAST = ("pi", "e", "log2", "catalan")
CONSTANTS = ("pi", "e", "log2", "catalan", "zeta3")


def random_cf(rng: random.Random) -> dict:
    """Polynomial CF with positive a_n of degree 2 and |b_n| far below
    a_{n-1} a_n, so every convergent denominator stays positive."""
    a_poly = [rng.randint(1, 5), rng.randint(0, 9), rng.randint(1, 9)]
    sign = rng.choice((-1, 1))
    b_poly = [0, sign * rng.randint(1, 3), sign * rng.randint(0, 2)]
    return {"a0": rng.randint(0, 5), "a_poly": a_poly, "b_poly": b_poly}


def precision_round(d: Draws) -> list:
    jobs = []
    for method, lo, hi in (("madhava", 500, 1500), ("machin", 500, 4000),
                           ("ramanujan", 500, 4000), ("chudnovsky", 500, 4000)):
        for digits in d.sizes(lo, hi, 2):
            jobs.append(job("pi", f"pi_{method}", method=method, digits=digits))
    jobs.append(job("pi", "chud_recurrence_side", method="chudnovsky", digits=d.size(4400, 10000)))
    jobs.append(job("pi", "chud_binsplit_side", method="chudnovsky", digits=d.size(20000, 100000)))
    for depth, digits in zip(d.sizes(1000, 20000, 3), d.sizes(20, 60, 3)):
        jobs.append(job("eval_cf", "eval_cf", depth=depth, digits=digits, **random_cf(d.rng)))
    jobs.append(job("expand_rational", "expand", num=d.rng.getrandbits(200) | 1,
                    den=d.rng.getrandbits(190) | 1, terms=400))
    jobs.append(job("expand_constant", "expand", name=d.pick(("pi", "log2", "catalan", "zeta3")),
                    terms=d.size(50, 400)))
    jobs.append(job("expand_constant", "expand_e_long", name="e", terms=d.size(200, 400)))
    for name, digits in zip(REGISTRY_FAST, d.sizes(30, 120, 4)):
        jobs.append(job("verify", "verify", name=name, digits=digits))
    # three equal jobs: over a pair of rounds the tail rank (11th slowest,
    # after the 8 failures) falls inside this block
    for _ in range(3):
        jobs.append(job("verify", "zeta3_converging", name="zeta3", digits=10))
    jobs.append(job("verify", "zeta3_unconverged", name="zeta3", digits=d.pick((13, 14))))
    return jobs


# -- graphs ------------------------------------------------------------------

# Valid pairs (p, q distinct primes = 1 mod 4, q > 2 sqrt(p)) from
# X^(17,13) (PSL, 1092 vertices, dense solve) to X^(5,37) (PGL, 50616
# vertices). Vertex counts are q(q^2-1)/2 (PSL) or q(q^2-1) (PGL). Each
# pair is deterministic, so every round builds the same multiset and the
# seed sets the order. Repeated pairs keep the median and the tail rank
# (the 11th slowest of two rounds) inside blocks of equal jobs.
GRAPH_ROUND = (
    *[("psl_1092_dense", (17, 13))] * 3, *[("psl_1092_dense", (29, 13))] * 2,
    *[("pgl_2184_lanczos", (5, 13))] * 3, *[("psl_2448_lanczos", (13, 17))] * 2,
    ("pgl_4896_lanczos", (5, 17)),
    *[("psl_12180_lanczos", (5, 29))] * 5,
    ("pgl_50616_lanczos", (5, 37)),
)


def graphs_round(d: Draws) -> list:
    jobs = [job("lps", cls, p=p, q=q) for cls, (p, q) in GRAPH_ROUND]
    d.rng.shuffle(jobs)
    return jobs


# -- signals -----------------------------------------------------------------


def periodic_signal(rng: random.Random, n: int, integer: bool) -> list:
    """Sum of two or three random patterns whose periods divide n, plus
    noise: small integers for the exact path, Gaussian for the float one."""
    periods = [d for d in range(2, n) if n % d == 0 and d <= 24]
    out = [0] * n if integer else [0.0] * n
    for q in rng.sample(periods, min(3, len(periods))):
        pattern = [rng.randint(-4, 4) for _ in range(q)]
        for i in range(n):
            out[i] += pattern[i % q]
    for i in range(n):
        out[i] += rng.randint(-1, 1) if integer else round(rng.gauss(0.0, 0.3), 6)
    return out


def signals_round(d: Draws) -> list:
    """Sizes chosen so that, over a pair of rounds, the median job falls in
    the block of float N=60 decompositions and the tail (11th slowest) in
    the block of N=120 jobs, whose costs do not depend on the samples."""
    rng = d.rng
    jobs = [job("fir", "fir_exact", samples=periodic_signal(rng, n, True))
            for n in (24, 36, 48, 60, 72, 96)]
    jobs += [job("fir", "fir_float", samples=periodic_signal(rng, n, False))
             for n in (60, 60, 60, 60, 120, 120, 180)]
    jobs += [job("periods", "periods_float", samples=periodic_signal(rng, n, False), top=3)
             for n in (120, 240)]
    jobs += [job("sums_table", "sums_table", q=q, n=n)
             for q, n in zip(d.sizes(1, 500, 8), d.sizes(50, 400, 8))]
    jobs.append(job("tau", "tau", max=d.size(4000, 5000)))
    jobs.append(job("tau_bound", "tau_bound", p_max=d.size(1000, 2500)))
    return jobs


# -- cli-cold ----------------------------------------------------------------


def cli_round(d: Draws) -> tuple[list, dict]:
    """argv jobs run from a per-round directory, plus the input files to
    write there first. ``expect`` names what the oracle checks."""
    signal_txt = periodic_signal(d.rng, 12, True)
    signal_csv = periodic_signal(d.rng, 60, False)
    files = {
        "signal.txt": "\n".join(str(v) for v in signal_txt) + "\n",
        "signal.csv": ",".join(repr(v) for v in signal_csv) + "\n",
    }
    cf = random_cf(d.rng)
    d_chud, d_mad, d_ram = d.size(30, 60), d.size(15, 25), d.size(20, 40)
    num, den = d.rng.randint(1000, 10**6), d.rng.randint(7, 9999)
    const, const_terms = d.pick(CONSTANTS), d.size(5, 30)
    verify_name, verify_digits = d.pick(REGISTRY_FAST), d.size(20, 40)
    sq, sn = d.size(2, 30), d.size(6, 40)
    tau_max = d.size(50, 200)
    d_cap_chud, d_cap_machin = d.size(4400, 9000), d.size(4400, 6000)
    cf_digits = d.size(15, 30)
    bogus = d.rng.randint(0, 99)
    poly = lambda c: ",".join(str(v) for v in c)  # noqa: E731

    def c(cls, argv, expect, **extra):
        return job("cli", cls, argv=argv, expect=expect, **extra)

    jobs = [
        c("cli_pi", ["pi", "--method", "chudnovsky", "--digits", str(d_chud)], "pi", digits=d_chud),
        c("cli_pi", ["pi", "--method", "madhava", "--digits", str(d_mad), "--terms", "60"], "pi", digits=d_mad),
        c("cli_pi", ["pi", "--method", "ramanujan", "--digits", str(d_ram), "--report-convergence", "--json"],
          "pi_json", digits=d_ram),
        c("cli_graph", ["graph", "build", "--p", "5", "--q", "13", "--out", "x513.txt", "--json"],
          "graph_build", p=5, q=13, file="x513.txt"),
        c("cli_graph", ["graph", "check", "--in", "x513.txt", "--degree", "6", "--json"],
          "graph_check", p=5, q=13, file="x513.txt"),
        c("cli_cf", ["cf", "eval", "--a-poly", poly(cf["a_poly"]), "--b-poly", poly(cf["b_poly"]),
                     "--a0", str(cf["a0"]), "--digits", str(cf_digits)],
          "cf_eval", depth=1000, digits=cf_digits, **cf),
        c("cli_cf", ["cf", "expand", "--value", f"{num}/{den}"], "expand_rational", num=num, den=den),
        c("cli_cf", ["cf", "expand", "--constant", const, "--terms", str(const_terms)],
          "expand_constant", name=const, terms=const_terms),
        c("cli_cf", ["cf", "verify", "--name", verify_name, "--digits", str(verify_digits), "--json"],
          "verify", name=verify_name, digits=verify_digits),
        c("cli_sums", ["sums", "table", "--q", str(sq), "--n", str(sn)], "sums_table", q=sq, n=sn),
        c("cli_sums", ["sums", "tau", "--max", str(tau_max), "--check-bound", "--json"], "tau_json", max=tau_max),
        c("cli_signal", ["signal", "decompose", "--in", "signal.txt", "--json"],
          "signal_decompose", samples=signal_txt),
        c("cli_signal", ["signal", "periods", "--in", "signal.csv", "--top", "3"],
          "signal_periods", samples=signal_csv, top=3),
        c("cli_selftest", ["selftest", "--level", "quick"], "selftest", level="quick"),
        c("cli_selftest", ["selftest", "--level", "full", "--json"], "selftest_json", level="full"),
        c("cli_graph", ["graph", "check", "--in", "x513.txt", "--degree", "6"],
          "graph_check_text", p=5, q=13, file="x513.txt"),
        c("cli_graph", ["graph", "check", "--in", "x513.txt", "--degree", "6", "--json"],
          "graph_check", p=5, q=13, file="x513.txt"),
        c("cli_error", ["cf", "verify", "--name", f"nosuch{bogus}"], "error"),
        c("cli_error", ["sums", "table", "--q", "0", "--n", str(sn)], "error"),
        c("cli_usage", ["pi", "--method", "leibniz", "--digits", str(d_mad)], "usage"),
        c("cli_missing_file", ["graph", "check", "--in", "missing.txt", "--degree", "6"], "error"),
        c("cli_pi_over_cap", ["pi", "--method", "chudnovsky", "--digits", str(d_cap_chud)], "pi",
          digits=d_cap_chud),
        c("cli_pi_over_cap", ["pi", "--method", "machin", "--digits", str(d_cap_machin)], "pi",
          digits=d_cap_machin),
    ]
    return jobs, files


def make_round(workload: str, seed: int, index: int) -> tuple[list, dict]:
    """Jobs of round ``index`` and the input files they read (cli only)."""
    d = Draws(workload, seed, index)
    if workload == "precision":
        return precision_round(d), {}
    if workload == "graphs":
        return graphs_round(d), {}
    if workload == "signals":
        return signals_round(d), {}
    if workload == "cli-cold":
        return cli_round(d)
    raise ValueError(f"unknown workload {workload!r}")


# -- execution ---------------------------------------------------------------


class Runner:
    """Imports the ramkit layers a workload calls and executes its jobs.

    ``span`` opens a benchmark-side span (a no-op context unless the run
    is traced); it marks the ``str()`` of job outputs.
    """

    def __init__(self, workload: str, cli_env: dict | None = None):
        self.workload = workload
        self.cli_env = cli_env
        self.span = lambda name: nullcontext({})
        if workload == "precision":
            from ramkit import contfrac, pi_engine
            self.pi_engine, self.contfrac = pi_engine, contfrac
        elif workload == "graphs":
            from ramkit import lps_graphs
            self.lps_graphs = lps_graphs
        elif workload == "signals":
            from ramkit import ram_signal
            self.ram_signal = ram_signal

    def to_str(self, value) -> str:
        with self.span("bigdec.to_str") as attrs:
            text = str(value)
            attrs["chars"] = len(text)
        return text

    def warmup(self) -> None:
        """One small untimed job per job kind."""
        for j in WARMUPS[self.workload]:
            self.execute(j)

    def execute(self, j: dict, cwd=None, extra_flags=()):
        kind = j["kind"]
        if kind == "pi":
            pe = self.pi_engine
            d = j["digits"]
            if j["method"] == "madhava":
                value = pe.pi_madhava(math.ceil(d / 0.47) + 10, d)
            else:
                value = getattr(pe, f"pi_{j['method']}")(d)
            return self.to_str(value)
        if kind == "eval_cf":
            cf = self.contfrac
            spec = cf.CFSpec(a0=j["a0"], depth=j["depth"], a_poly=tuple(j["a_poly"]),
                             b_poly=tuple(j["b_poly"]))
            return self.to_str(cf.eval_cf(spec, j["digits"]).value)
        if kind == "expand_rational":
            res = self.contfrac.simple_cf_expand(Fraction(j["num"], j["den"]), j["terms"])
            return list(res.coeffs), res.truncated
        if kind == "expand_constant":
            cf = self.contfrac
            x = cf.reference_constant(j["name"], max(30, math.ceil(j["terms"] * 1.2) + 15))
            res = cf.simple_cf_expand(x, j["terms"])
            return list(res.coeffs), res.truncated
        if kind == "verify":
            return self.contfrac.verify_conjecture(j["name"], j["digits"])
        if kind == "lps":
            return self.lps_graphs.build_lps(j["p"], j["q"])
        rs = getattr(self, "ram_signal", None)
        if kind == "fir":
            return rs.fir_decompose(rs.Signal(tuple(j["samples"])))
        if kind == "periods":
            return rs.estimate_periods(rs.Signal(tuple(j["samples"])), j["top"])
        if kind == "sums_table":
            return [rs.ramanujan_sum(j["q"], n) for n in range(j["n"])]
        if kind == "tau":
            return rs.tau_coefficients(j["max"])
        if kind == "tau_bound":
            return rs.check_tau_bound(j["p_max"])
        if kind == "cli":
            argv = [sys.executable, *extra_flags, "-m", "ramkit.cli", *j["argv"]]
            proc = subprocess.run(argv, cwd=cwd, env=self.cli_env, capture_output=True,
                                  text=True, timeout=150)
            return proc.returncode, proc.stdout, proc.stderr
        raise ValueError(f"unknown job kind {kind!r}")


WARMUPS = {
    "precision": [
        job("pi", "warmup", method=m, digits=60) for m in ("madhava", "machin", "ramanujan", "chudnovsky")
    ] + [
        job("eval_cf", "warmup", depth=100, digits=20, a0=4, a_poly=[3, 7, 4], b_poly=[0, 0, -2]),
        job("expand_rational", "warmup", num=5000, den=127, terms=20),
        job("expand_constant", "warmup", name="pi", terms=10),
        job("verify", "warmup", name="e", digits=10),
    ],
    "graphs": [job("lps", "warmup", p=29, q=13), job("lps", "warmup", p=13, q=17)],
    "signals": [
        job("fir", "warmup", samples=[1, 2, 3, 4, 5, 6]),
        job("fir", "warmup", samples=[0.5, 1.5, -1.0, 2.0, 0.25, 1.0]),
        job("periods", "warmup", samples=[0.5, 1.5, -1.0, 2.0, 0.25, 1.0], top=2),
        job("sums_table", "warmup", q=6, n=12),
        job("tau", "warmup", max=50),
        job("tau_bound", "warmup", p_max=50),
    ],
    "cli-cold": [],
}
