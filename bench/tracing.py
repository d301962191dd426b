"""Spans around calls into ramkit's public functions, and the per-layer
metrics derived from them.

Each public function is wrapped under the name its caller looks it up
by: a module global of the calling module (``ram_signal.divisors``,
``lps_graphs.cayley_graph``, ``contfrac.eval_cf``) or an alias bound at
import time (``contfrac.pi_chudnovsky``). Spans (name, start, end,
parent, job id, attributes) stay in memory and are written out when the
run ends. A span is recorded only inside a job, so oracle work between
jobs never shows up. Self time is a span's duration minus the durations
of its child spans.
"""

import json
import time
from contextlib import contextmanager

# (module, attribute, span name, hook) per workload; the hook stores
# attributes of the call on its span.
_PATCHES = {
    "precision": [
        ("pi_engine", "pi_madhava", "pi_engine.pi_madhava", None),
        ("pi_engine", "pi_machin", "pi_engine.pi_machin", None),
        ("pi_engine", "pi_ramanujan", "pi_engine.pi_ramanujan", None),
        ("pi_engine", "pi_chudnovsky", "pi_engine.pi_chudnovsky", lambda a, kw, r: {"digits": a[0]}),
        ("contfrac", "pi_chudnovsky", "pi_engine.pi_chudnovsky", lambda a, kw, r: {"digits": a[0]}),
        ("contfrac", "eval_cf", "contfrac.eval_cf", lambda a, kw, r: {"depth": a[0].depth}),
        ("contfrac", "verify_conjecture", "contfrac.verify_conjecture",
         lambda a, kw, r: {"depth_used": r.depth_used, "match": r.match}),
        ("contfrac", "reference_constant", "contfrac.reference_constant", None),
        ("contfrac", "simple_cf_expand", "contfrac.simple_cf_expand", None),
    ],
    "graphs": [
        ("lps_graphs", "build_lps", "lps_graphs.build_lps", None),
        ("lps_graphs", "generating_set", "lps_graphs.generating_set", None),
        ("lps_graphs", "enumerate_group", "lps_graphs.enumerate_group", None),
        ("lps_graphs", "cayley_graph", "lps_graphs.cayley_graph",
         lambda a, kw, r: {"n": r.n, "edges": sum(map(len, r.adjacency)) // 2}),
        ("lps_graphs", "spectral_report", "lps_graphs.spectral_report", None),
        ("lps_graphs", "is_connected", "lps_graphs.is_connected", None),
        ("numpy.linalg", "eigvalsh", "solver.dense", None),
        ("scipy.sparse.linalg", "eigsh", "solver.lanczos", None),
    ],
    "signals": [
        ("ram_signal", "fir_decompose", "ram_signal.fir_decompose",
         lambda a, kw, r: {"n": r.n, "exact": r.exact}),
        ("ram_signal", "estimate_periods", "ram_signal.estimate_periods", None),
        ("ram_signal", "ramanujan_basis", "ram_signal.ramanujan_basis", None),
        ("ram_signal", "tau_coefficients", "ram_signal.tau_coefficients", None),
        ("ram_signal", "check_tau_bound", "ram_signal.check_tau_bound", None),
        ("ram_signal", "ramanujan_sum", "ram_signal.ramanujan_sum", None),
        ("ram_signal", "divisors", "numtheory.divisors", None),
        ("ram_signal", "mobius", "numtheory.mobius", None),
        ("numtheory", "divisors", "numtheory.divisors", None),
        ("numtheory", "mobius", "numtheory.mobius", None),
    ],
    "cli-cold": [],
}

LAYERS = ("bigdec", "pi_engine", "contfrac", "lps_graphs", "ram_signal", "numtheory")

# Per-layer metrics with their units, in report order. Every traced run
# reports all of them; a layer the workload does not call reads 0.
METRICS = {
    "bigdec.to_str_s": "s", "bigdec.digits_out": "count",
    "pi_engine.madhava_s": "s", "pi_engine.machin_s": "s", "pi_engine.ramanujan_s": "s",
    "pi_engine.chudnovsky_s": "s", "pi_engine.calls": "count",
    "pi_engine.chudnovsky_recurrence_digits_per_s": "digits/s",
    "pi_engine.chudnovsky_binsplit_digits_per_s": "digits/s",
    "contfrac.eval_cf_s": "s", "contfrac.eval_cf_calls": "count", "contfrac.cf_terms": "count",
    "contfrac.verify_s": "s", "contfrac.useful_depth_ratio": "ratio", "contfrac.verified_ratio": "ratio",
    "contfrac.reference_s": "s", "contfrac.reference_cache_hits": "count", "contfrac.expand_s": "s",
    "lps_graphs.generating_set_s": "s", "lps_graphs.enumerate_group_s": "s",
    "lps_graphs.cayley_graph_s": "s", "lps_graphs.spectral_report_s": "s",
    "lps_graphs.is_connected_s": "s", "lps_graphs.eigensolve_s": "s",
    "lps_graphs.vertices": "count", "lps_graphs.edges": "count",
    "lps_graphs.cayley_vertices_per_s": "vertices/s",
    "lps_graphs.dense_solves": "count", "lps_graphs.lanczos_solves": "count",
    "ram_signal.fir_exact_s": "s", "ram_signal.fir_float_s": "s",
    "ram_signal.ramanujan_basis_s": "s", "ram_signal.ramanujan_basis_calls": "count",
    "ram_signal.samples_decomposed": "count", "ram_signal.estimate_periods_s": "s",
    "ram_signal.tau_s": "s", "ram_signal.sums_s": "s",
    "numtheory.divisors_calls": "count", "numtheory.divisors_s": "s", "numtheory.mobius_calls": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.import_share": "ratio",
    "cli.numpy_loaded_jobs": "count", "cli.traceback_jobs": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []  # [name, start, end, parent index, job id, attrs]
        self.stack = []
        self.job_id = None
        self.cache_hits = 0
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job_id, {}])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """Benchmark-side span; yields its attribute dict."""
        if not self.stack:
            yield {}
            return
        idx = self._open(name)
        try:
            yield self.spans[idx][5]
        finally:
            self._close(idx)

    def begin_job(self, job_id) -> None:
        self.job_id = job_id
        self._open("job")

    def end_job(self) -> None:
        self._close(self.stack[0])
        self.job_id = None

    # -- patching ------------------------------------------------------------

    def _wrap(self, orig, name: str, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.stack:
                return orig(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer.spans[idx][5].update(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = orig
        return traced

    def install(self) -> None:
        import importlib

        if self.workload == "precision":
            from ramkit import contfrac

            self._reference = contfrac.reference_constant  # the lru_cache object
            self._hits_before = self._reference.cache_info().hits
        for mod_name, attr, name, hook in _PATCHES[self.workload]:
            full = mod_name if "." in mod_name else f"ramkit.{mod_name}"
            module = importlib.import_module(full)
            orig = getattr(module, attr)
            self._patched.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name, hook))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()
        if self.workload == "precision":
            self.cache_hits += self._reference.cache_info().hits - self._hits_before

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, job, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "job": job, **attrs}) + "\n")

    # -- derived metrics -----------------------------------------------------

    def layer_metrics(self) -> dict:
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        def outermost(i):
            name, p = spans[i][0], spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return False
                p = spans[p][3]
            return True

        top = [outermost(i) for i in range(len(spans))]

        def pick(name, pred=lambda a: True):
            return [i for i, s in enumerate(spans) if s[0] == name and pred(s[5])]

        def busy(name, pred=lambda a: True):
            return sum(dur[i] for i in pick(name, pred) if top[i])

        def ratio(a, b):
            return a / b if b else 0.0

        def under(i, name):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return p
                p = spans[p][3]
            return None

        chud = "pi_engine.pi_chudnovsky"
        small = lambda a: a.get("digits", 0) <= 10**4  # noqa: E731
        large = lambda a: a.get("digits", 0) > 10**4  # noqa: E731
        eval_spans = pick("contfrac.eval_cf")
        verify_spans = pick("contfrac.verify_conjecture")
        ladder_terms = sum(spans[i][5].get("depth", 0) for i in eval_spans
                           if under(i, "contfrac.verify_conjecture") is not None)
        fir = pick("ram_signal.fir_decompose")
        cayley = pick("lps_graphs.cayley_graph")
        m = {
            "bigdec.to_str_s": busy("bigdec.to_str"),
            "bigdec.digits_out": sum(spans[i][5].get("chars", 0) for i in pick("bigdec.to_str")),
            "pi_engine.madhava_s": busy("pi_engine.pi_madhava"),
            "pi_engine.machin_s": busy("pi_engine.pi_machin"),
            "pi_engine.ramanujan_s": busy("pi_engine.pi_ramanujan"),
            "pi_engine.chudnovsky_s": busy(chud),
            "pi_engine.calls": sum(1 for s in spans if s[0].startswith("pi_engine.")),
            "pi_engine.chudnovsky_recurrence_digits_per_s": ratio(
                sum(spans[i][5]["digits"] for i in pick(chud, small) if top[i]), busy(chud, small)),
            "pi_engine.chudnovsky_binsplit_digits_per_s": ratio(
                sum(spans[i][5]["digits"] for i in pick(chud, large) if top[i]), busy(chud, large)),
            "contfrac.eval_cf_s": busy("contfrac.eval_cf"),
            "contfrac.eval_cf_calls": len(eval_spans),
            "contfrac.cf_terms": sum(spans[i][5].get("depth", 0) for i in eval_spans),
            "contfrac.verify_s": busy("contfrac.verify_conjecture"),
            "contfrac.useful_depth_ratio": ratio(
                sum(spans[i][5]["depth_used"] for i in verify_spans), ladder_terms),
            "contfrac.verified_ratio": ratio(
                sum(1 for i in verify_spans if spans[i][5]["match"]), len(verify_spans)),
            "contfrac.reference_s": busy("contfrac.reference_constant"),
            "contfrac.reference_cache_hits": self.cache_hits,
            "contfrac.expand_s": busy("contfrac.simple_cf_expand"),
            "lps_graphs.generating_set_s": busy("lps_graphs.generating_set"),
            "lps_graphs.enumerate_group_s": busy("lps_graphs.enumerate_group"),
            "lps_graphs.cayley_graph_s": busy("lps_graphs.cayley_graph"),
            "lps_graphs.spectral_report_s": busy("lps_graphs.spectral_report"),
            "lps_graphs.is_connected_s": busy("lps_graphs.is_connected"),
            "lps_graphs.eigensolve_s": busy("solver.dense") + busy("solver.lanczos"),
            "lps_graphs.vertices": sum(spans[i][5]["n"] for i in cayley),
            "lps_graphs.edges": sum(spans[i][5]["edges"] for i in cayley),
            "lps_graphs.cayley_vertices_per_s": ratio(
                sum(spans[i][5]["n"] for i in cayley), busy("lps_graphs.cayley_graph")),
            "lps_graphs.dense_solves": len(pick("solver.dense")),
            "lps_graphs.lanczos_solves": len(pick("solver.lanczos")),
            "ram_signal.fir_exact_s": busy("ram_signal.fir_decompose", lambda a: a.get("exact") is True),
            "ram_signal.fir_float_s": busy("ram_signal.fir_decompose", lambda a: a.get("exact") is False),
            "ram_signal.ramanujan_basis_s": busy("ram_signal.ramanujan_basis"),
            "ram_signal.ramanujan_basis_calls": len(pick("ram_signal.ramanujan_basis")),
            "ram_signal.samples_decomposed": sum(spans[i][5].get("n", 0) for i in fir),
            "ram_signal.estimate_periods_s": busy("ram_signal.estimate_periods"),
            "ram_signal.tau_s": busy("ram_signal.tau_coefficients"),
            "ram_signal.sums_s": busy("ram_signal.ramanujan_sum"),
            "numtheory.divisors_calls": len(pick("numtheory.divisors")),
            "numtheory.divisors_s": busy("numtheory.divisors"),
            "numtheory.mobius_calls": len(pick("numtheory.mobius")),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                dur[i] - child[i] for i, s in enumerate(spans) if s[0].split(".")[0] == layer)
        # lps_graphs self time includes the solver calls it makes
        m["lps_graphs.self_s"] += m["lps_graphs.eigensolve_s"]
        return m
