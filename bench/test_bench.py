"""Tests of the benchmark itself: determinism, oracles, ranking, tracing.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
Every oracle must accept ramkit's real output and reject a corrupted copy.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracles import FAIL, OK, WRONG  # noqa: E402
from ramkit import contfrac, lps_graphs, pi_engine, ram_signal  # noqa: E402

ORACLES = oracles.Oracles(HERE.parent / "src")


def flip_last_digit(text: str) -> str:
    return text[:-1] + str((int(text[-1]) + 1) % 10)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_deterministic_per_seed(workload):
    first = workloads.digest([workloads.make_round(workload, 7, r) for r in range(2)])
    again = workloads.digest([workloads.make_round(workload, 7, r) for r in range(2)])
    other = workloads.digest([workloads.make_round(workload, 8, r) for r in range(2)])
    assert first == again != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_share_one_composition(workload):
    classes = [sorted(j["cls"] for j in workloads.make_round(workload, s, r)[0])
               for s in (1, 2) for r in (0, 1)]
    assert all(c == classes[0] for c in classes)


def test_to_decimal_passes_the_int_str_cap():
    n = 10**9000 + 7
    assert oracles.to_decimal(n) == "1" + "0" * 8999 + "7"


def test_pi_oracle_rejects_flipped_digit():
    text = str(pi_engine.pi_chudnovsky(300))
    assert oracles.check_pi(text, 300)[0] == OK
    assert oracles.check_pi(flip_last_digit(text), 300)[0] == WRONG


def test_cf_value_oracle_rejects_flipped_digit():
    j = workloads.job("eval_cf", "t", depth=2000, digits=40, a0=4, a_poly=[3, 7, 4], b_poly=[0, 0, -2])
    text = workloads.Runner("precision").execute(j)
    assert ORACLES.check(j, text)[0] == OK
    assert ORACLES.check(j, flip_last_digit(text))[0] == WRONG


def test_expand_oracles_reject_corruption():
    res = contfrac.simple_cf_expand(Fraction(5000, 127), 20)
    assert oracles.check_expand_rational(list(res.coeffs), res.truncated, 5000, 127, 20)[0] == OK
    bad = list(res.coeffs)
    bad[2] += 1
    assert oracles.check_expand_rational(bad, res.truncated, 5000, 127, 20)[0] == WRONG
    assert oracles.check_expand_rational(list(res.coeffs), True, 5000, 127, 20)[0] == WRONG
    assert oracles.check_expand_constant([3, 7, 15, 1, 292], "pi", 5)[0] == OK
    assert oracles.check_expand_constant([3, 7, 15, 2, 292], "pi", 5)[0] == WRONG
    assert oracles.check_expand_constant([3, 7, 15], "pi", 5)[0] == FAIL


def test_verify_oracle_checks_verdict_and_error():
    res = contfrac.verify_conjecture("e", 30)
    assert ORACLES.registry.check("e", 30, res.match, str(res.abs_error), res.depth_used)[0] == OK
    assert ORACLES.registry.check("e", 30, False, str(res.abs_error), res.depth_used)[0] == WRONG
    rec = contfrac.load_registry()["zeta3"]
    err = str(abs(contfrac.eval_cf(rec.cf_spec(1000), 25).value - rec.lhs_value(25)))
    assert ORACLES.registry.check("zeta3", 10, False, err, 1000)[0] == FAIL
    assert ORACLES.registry.check("zeta3", 10, True, err, 1000)[0] == WRONG
    assert ORACLES.registry.check("zeta3", 10, False, "1e-9", 1000)[0] == WRONG


@pytest.mark.parametrize("p,q", [(17, 13), (5, 13)])
def test_graph_oracle_rejects_dropped_edge_and_bad_lambda(p, q):
    j = workloads.job("lps", "t", p=p, q=q)
    graph, report, meta = lps_graphs.build_lps(p, q)
    assert ORACLES.check(j, (graph, report, meta)) == (OK, "")
    dropped = lps_graphs.Graph(graph.n, [list(lst) for lst in graph.adjacency])
    dropped.adjacency[0].pop()
    assert ORACLES.check(j, (dropped, report, meta))[0] == WRONG
    shifted = dataclasses.replace(report, lambda_nontrivial=report.lambda_nontrivial + 1e-3)
    assert ORACLES.check(j, (graph, shifted, dict(meta, lambda_nontrivial=shifted.lambda_nontrivial)))[0] == WRONG
    verdict = dataclasses.replace(report, is_ramanujan=False)
    assert ORACLES.check(j, (graph, verdict, meta))[0] == WRONG


def test_graph_oracle_reads_cli_edge_lists(tmp_path):
    graph, _, _ = lps_graphs.build_lps(17, 13)
    lines = [f"{graph.n} {graph.edge_count()}"] + [f"{u} {v}" for u, v in graph.edges()]
    n, rows, cols = oracles.GraphOracle.arrays_from_edge_list("\n".join(lines))
    assert ORACLES.graphs.check(17, 13, n, rows, cols, {})[0] == OK
    n, rows, cols = oracles.GraphOracle.arrays_from_edge_list("\n".join([f"{n} {graph.edge_count() - 1}"] + lines[2:]))
    assert ORACLES.graphs.check(17, 13, n, rows, cols, {})[0] == WRONG


@pytest.mark.parametrize("integer", [True, False])
def test_fir_oracle_rejects_perturbed_component(integer):
    samples = workloads.periodic_signal(random.Random(3), 24, integer)
    dec = ram_signal.fir_decompose(ram_signal.Signal(tuple(samples)))
    assert oracles.check_fir(samples, dec) == (OK, "")
    comps = dict(dec.components)
    q = max(comps)
    comps[q] = (comps[q][0] + (1 if integer else 1e-3),) + comps[q][1:]
    assert oracles.check_fir(samples, dataclasses.replace(dec, components=comps))[0] == WRONG


def test_periods_oracle_rejects_wrong_ranking():
    samples = workloads.periodic_signal(random.Random(4), 60, False)
    ranked = ram_signal.estimate_periods(ram_signal.Signal(tuple(samples)), 3)
    assert oracles.check_periods(samples, ranked, 3) == (OK, "")
    assert oracles.check_periods(samples, ranked[::-1], 3)[0] == WRONG
    assert oracles.check_periods(samples, [(ranked[0][0], ranked[0][1] * 0.9)] + ranked[1:], 3)[0] == WRONG


def test_sums_and_tau_oracles_reject_corruption():
    table = [ram_signal.ramanujan_sum(12, n) for n in range(30)]
    assert oracles.check_sums_table(table, 12, 30) == (OK, "")
    assert oracles.check_sums_table(table[:-1] + [table[-1] + 1], 12, 30)[0] == WRONG
    taus = ram_signal.tau_coefficients(400)
    assert oracles.check_tau(taus, 400) == (OK, "")
    bad = list(taus)
    bad[396] += 691  # tau(397), a prime: multiplicativity and 691 cannot see it
    assert oracles.check_tau(bad, 400)[0] == WRONG
    report = vars(ram_signal.check_tau_bound(400))
    assert oracles.check_tau_bound(report, 400) == (OK, "")
    assert oracles.check_tau_bound(dict(report, worst_prime=2), 400)[0] == WRONG


def test_tau_oracle_is_multiplicative_with_known_values():
    t = oracles.tau_oracle(600)
    assert t[:10] == oracles.TAU_KNOWN
    assert oracles.tau_multiplicative(t)


def test_cli_oracle_outcomes(tmp_path):
    pi20 = str(pi_engine.pi_chudnovsky(20))
    pi_job = workloads.job("cli", "t", argv=[], expect="pi", digits=20)
    err_job = workloads.job("cli", "t", argv=[], expect="error")
    assert ORACLES.check(pi_job, (0, pi20 + "\n", ""), tmp_path) == (OK, "")
    assert ORACLES.check(pi_job, (0, flip_last_digit(pi20) + "\n", ""), tmp_path)[0] == WRONG
    assert ORACLES.check(pi_job, (1, "", "Traceback (most recent call last):\nValueError: x\n"), tmp_path)[0] == FAIL
    assert ORACLES.check(err_job, (1, "", "error: no such file\n"), tmp_path) == (OK, "")
    assert ORACLES.check(err_job, (1, "", "Traceback (most recent call last):\nOSError\n"), tmp_path)[0] == FAIL
    assert ORACLES.check(err_job, (0, "", ""), tmp_path)[0] == FAIL


def test_failures_rank_slowest_and_fixing_one_never_raises_the_tail():
    rng = random.Random(5)
    for _ in range(200):
        recs = [{"latency": rng.random(), "status": rng.choice(("ok", "ok", "ok", "fail"))} for _ in range(30)]
        before = run.latency_summary(recs)
        assert before["tail_jobs_beyond"] == run.TAIL_BEYOND
        failed = [r for r in recs if r["status"] != "ok"]
        if failed:
            fixed = [dict(r, status="ok") if r is failed[0] else r for r in recs]
            assert run.latency_summary(fixed)["job_tail_ms"] <= before["job_tail_ms"]


def test_tail_does_not_move_with_failure_count_or_failure_speed():
    rng = random.Random(6)
    pair = [{"latency": rng.random(), "status": "ok"} for _ in range(40)]
    pair += [{"latency": 9.0, "status": "fail"} for _ in range(8)]
    faster = [dict(r, latency=0.01) if r["status"] == "fail" else r for r in pair]
    assert run.latency_summary(faster)["job_tail_ms"] == run.latency_summary(pair)["job_tail_ms"]
    one = run.pairs_summary([pair[:24], pair[24:]])
    # three pairs hold 24 failures, more than TAIL_BEYOND, yet each pair has 8
    three = run.pairs_summary([pair[:24], pair[24:], faster[:24], faster[24:], pair[:24], pair[24:]])
    assert three["pairs"] == 3
    for key in ("job_tail_ms", "job_p50_ms", "jobs", "tail_percentile", "tail_jobs_beyond"):
        assert three[key] == one[key], key
    assert one["job_tail_ms"] < 1000


def traced_metrics(workload: str, jobs: list) -> dict:
    runner = workloads.Runner(workload)
    tracer = tracing.Tracer(workload)
    runner.span = tracer.span
    tracer.install()
    try:
        for k, j in enumerate(jobs):
            tracer.begin_job(k)
            try:
                runner.execute(j)
            except ValueError:
                pass
            tracer.end_job()
    finally:
        tracer.uninstall()
    assert all(s[2] is not None for s in tracer.spans)
    return tracer.layer_metrics()


def test_traced_runs_produce_every_per_layer_metric():
    job = workloads.job
    metrics = {
        "precision": traced_metrics("precision", [
            job("pi", "t", method=m, digits=d) for m, d in
            (("madhava", 50), ("machin", 50), ("ramanujan", 50), ("chudnovsky", 50), ("chudnovsky", 10001))
        ] + [job("verify", "t", name="pi", digits=20), job("expand_constant", "t", name="pi", terms=10)]),
        "graphs": traced_metrics("graphs", [job("lps", "t", p=17, q=13), job("lps", "t", p=5, q=13)]),
        "signals": traced_metrics("signals", [
            job("fir", "t", samples=[1, 2, 3, 4]), job("periods", "t", samples=[0.5, 1.0, 2.0, 0.0], top=2),
            job("sums_table", "t", q=6, n=12), job("tau_bound", "t", p_max=30)]),
    }
    derived = set(tracing.METRICS) - {k for k in tracing.METRICS if k.startswith(("cli.", "trace."))}
    for workload, m in metrics.items():
        assert set(m) == derived, workload
    nonzero = {
        "precision": ("bigdec.to_str_s", "bigdec.digits_out", "pi_engine.madhava_s", "pi_engine.machin_s",
                      "pi_engine.ramanujan_s", "pi_engine.chudnovsky_s", "pi_engine.calls",
                      "pi_engine.chudnovsky_recurrence_digits_per_s", "pi_engine.chudnovsky_binsplit_digits_per_s",
                      "contfrac.eval_cf_calls", "contfrac.cf_terms", "contfrac.verify_s",
                      "contfrac.useful_depth_ratio", "contfrac.verified_ratio", "contfrac.reference_s",
                      "contfrac.expand_s", "pi_engine.self_s", "contfrac.self_s"),
        "graphs": ("lps_graphs.generating_set_s", "lps_graphs.enumerate_group_s", "lps_graphs.cayley_graph_s",
                   "lps_graphs.spectral_report_s", "lps_graphs.is_connected_s", "lps_graphs.eigensolve_s",
                   "lps_graphs.vertices", "lps_graphs.edges", "lps_graphs.cayley_vertices_per_s",
                   "lps_graphs.dense_solves", "lps_graphs.lanczos_solves", "lps_graphs.self_s"),
        "signals": ("ram_signal.fir_exact_s", "ram_signal.fir_float_s", "ram_signal.ramanujan_basis_s",
                    "ram_signal.ramanujan_basis_calls", "ram_signal.samples_decomposed",
                    "ram_signal.estimate_periods_s", "ram_signal.tau_s", "ram_signal.sums_s",
                    "numtheory.divisors_calls", "numtheory.divisors_s", "numtheory.mobius_calls",
                    "ram_signal.self_s", "numtheory.self_s"),
    }
    for workload, names in nonzero.items():
        assert all(metrics[workload][n] > 0 for n in names), workload
    assert metrics["graphs"]["lps_graphs.vertices"] == 1092 + 2184
    assert metrics["graphs"]["lps_graphs.dense_solves"] == 1
    assert metrics["graphs"]["lps_graphs.lanczos_solves"] == 1


def test_benchmark_json_names_match_the_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "precision", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
