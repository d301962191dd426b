#!/usr/bin/env python3
"""ramkit benchmark: four seeded closed-loop workloads with oracle checks.

Usage, from the repository root:

    python3 bench/run.py --workload precision --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client runs one job at a time (a closed loop with no think time
beyond the oracle check and a garbage collection, neither timed). Jobs
run in rounds of a fixed composition (see workloads.py), in pairs of
rounds, until the summed job latencies reach --seconds; a pair is never
cut short. Latency metrics are computed over each pair on its own, so
the job count, the failure count and the tail rank they rest on are
constants of the mix, and the run reports their median over its pairs.
setup_s is the median over at least five fresh-interpreter set-ups.
ramkit is imported from ``src/`` next to this directory and nowhere
else; without it the run exits 1. numpy, scipy and BLAS run with NPROC threads at most.

--trace 0 prints the end-to-end metrics. --trace 1 runs every round
twice, untraced then traced, and prints the per-layer metrics derived
from the traced spans (tracing.py), plus trace.overhead_ratio, the traced
rate of successful jobs over the untraced one. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it holds run metadata. Spans of a traced run and nothing else are
written under bench/out/.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5  # at least this many set-ups per run ...
SETUP_PROBE_SECONDS = 2.0  # ... and more, up to 15, until this much time has passed
TAIL_BEYOND = 10
FAILED_RANK_S = 180.0  # a failed job ranks as if it took as long as a whole run may

# End-to-end metrics and units, in report order.
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
              "peak_rss_mb": "MB"}

for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (after the BLAS caps, before anything imports numpy)


def require_source() -> None:
    """Import ramkit from this checkout's src/ only; exit 1 without it."""
    if not (SRC / "ramkit" / "__init__.py").is_file():
        sys.exit(f"error: no ramkit sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ramkit

    if Path(ramkit.__file__).resolve().parent != SRC / "ramkit":
        sys.exit(f"error: ramkit imported from {ramkit.__file__}, not {SRC}")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup(workload: str, flags=()) -> list:
    """Seconds until a fresh interpreter is ready for its first timed job:
    imports plus one warm-up job per kind. For cli-cold, the
    ``import ramkit.cli`` that every job pays. Returns each probe's time
    and, with ``-X importtime`` flags, its stderr."""
    if workload == "cli-cold":
        code = "import ramkit.cli; print('ready', flush=True)"
    else:
        code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
                f"workloads.Runner({workload!r}).warmup(); print('ready', flush=True)")
    probes = []
    began = time.perf_counter()
    while len(probes) < SETUP_PROBES or (time.perf_counter() - began < SETUP_PROBE_SECONDS
                                         and len(probes) < 15):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, *flags, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"error: {workload} set-up probe failed: {err.strip()[-300:]}")
        probes.append((elapsed, err))
    return probes


def rank_latencies(records: list) -> list:
    """Latencies with every failed job ranked after every success, at
    FAILED_RANK_S whatever it took."""
    ok = sorted(r["latency"] for r in records if r["status"] == "ok")
    return ok + [FAILED_RANK_S] * (len(records) - len(ok))


def latency_summary(records: list) -> dict:
    """Rate, median and tail of one pair of rounds."""
    window = sum(r["latency"] for r in records)
    ranked = rank_latencies(records)
    n = len(ranked)
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    ok = sum(1 for r in records if r["status"] == "ok")
    return {
        "window_s": window,
        "jobs_per_s": ok / window,
        "job_p50_ms": 1000 * ranked[math.ceil(0.5 * n) - 1],
        "job_tail_ms": 1000 * ranked[tail_index],
        "tail_percentile": 100 * (tail_index + 1) / n,
        "tail_jobs_beyond": n - tail_index - 1,
        "jobs": n,
    }


def pairs_summary(rounds: list) -> dict:
    """latency_summary of each pair of rounds; the median of each metric
    over the pairs, and the pair's constant job count and tail rank."""
    pairs = [latency_summary(rounds[i] + rounds[i + 1]) for i in range(0, len(rounds), 2)]
    out = {k: statistics.median(s[k] for s in pairs) for k in ("jobs_per_s", "job_p50_ms", "job_tail_ms")}
    out.update({k: pairs[0][k] for k in ("tail_percentile", "tail_jobs_beyond", "jobs")})
    out.update(pairs=len(pairs), window_s=sum(s["window_s"] for s in pairs))
    return out


def max_rss_mb(job: dict) -> float:
    """High-water resident memory so far: of this process, or of its
    largest child for CLI jobs."""
    who = resource.RUSAGE_CHILDREN if job["kind"] == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def imported_name(line: str) -> str:
    """Module name on an ``-X importtime`` line."""
    return line.rsplit("|", 1)[-1].strip()


def run_job(runner, oracles, job: dict, cwd, tracer, job_id) -> dict:
    flags = ("-X", "importtime") if tracer and job["kind"] == "cli" else ()
    gc.collect()  # untimed: a job's latency must not depend on its predecessor's garbage
    start = time.perf_counter()
    if tracer:
        tracer.begin_job(job_id)
    try:
        result, error = runner.execute(job, cwd=cwd, extra_flags=flags), None
    except Exception as exc:  # a failed job is a measured outcome
        result, error = None, f"{type(exc).__name__}: {exc}"[:200]
    finally:
        if tracer:
            tracer.end_job()
    latency = time.perf_counter() - start
    rec = {"cls": job["cls"], "latency": latency, "rss_mb": max_rss_mb(job)}
    if error:
        rec.update(status="fail", detail=error, rss_after_check_mb=rec["rss_mb"])
        return rec
    if flags:
        code, out, err = result
        lines = err.splitlines(keepends=True)
        rec["numpy"] = any(ln.startswith("import time:") and imported_name(ln) == "numpy" for ln in lines)
        result = (code, out, "".join(ln for ln in lines if not ln.startswith("import time:")))
    if job["kind"] == "cli":
        rec["traceback"] = "Traceback (most recent call last)" in result[2]
    try:
        rec["status"], rec["detail"] = oracles.check(job, result, cwd)
    except Exception as exc:  # an output the oracle cannot read is wrong
        rec["status"], rec["detail"] = "wrong", f"unreadable result: {type(exc).__name__}: {exc}"[:200]
    rec["rss_after_check_mb"] = max_rss_mb(job)
    return rec


def run_workload(args) -> int:
    require_source()
    workload = args.workload
    probes = measure_setup(workload)
    from oracles import Oracles
    from tracing import METRICS, Tracer

    runner = workloads.Runner(workload, cli_env=child_env())
    runner.warmup()
    oracles = Oracles(SRC)
    tracer = Tracer(workload) if args.trace else None
    workdir = OUT / f"work-{workload}-{args.seed}-{os.getpid()}"
    plain, traced, job_lists = [], [], []  # records per round
    untraced_span = runner.span
    try:
        index = 0
        while True:
            jobs, files = workloads.make_round(workload, args.seed, index)
            job_lists.append(jobs)
            cwd = None
            if files or workload == "cli-cold":
                cwd = workdir / f"round-{index}"
                cwd.mkdir(parents=True)
                for name, text in files.items():
                    (cwd / name).write_text(text)
            for trace_pass in ((False, True) if tracer else (False,)):
                if trace_pass:
                    runner.span = tracer.span
                    tracer.install()
                try:
                    recs = [run_job(runner, oracles, job, cwd, tracer if trace_pass else None, (index, k))
                            for k, job in enumerate(jobs)]
                    (traced if trace_pass else plain).append(recs)
                finally:
                    if trace_pass:
                        tracer.uninstall()
                        runner.span = untraced_span
            index += 1
            # whole pairs only: rounds 2k and 2k+1 hold mirrored sizes
            if index % 2 == 0 and sum(r["latency"] for rnd in plain + traced for r in rnd) >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = pairs_summary(plain)
    plain_records = [r for rnd in plain for r in rnd]
    records = plain_records + [r for rnd in traced for r in rnd]
    failed = [r for r in records if r["status"] != "ok"]
    wrong = [r for r in records if r["status"] == "wrong"]
    # read after each job and before its oracle check; the high-water mark
    # is the program's unless some oracle check is what first reached it
    peak_rss = max(r["rss_mb"] for r in plain_records)
    oracle_raised = any(r["rss_mb"] < peak_rss <= r["rss_after_check_mb"] for r in plain_records)
    e2e = {
        "setup_s": statistics.median(p[0] for p in probes),
        "jobs_per_s": summary["jobs_per_s"],
        "job_p50_ms": summary["job_p50_ms"],
        "job_tail_ms": summary["job_tail_ms"],
        "peak_rss_mb": peak_rss,
    }
    meta = run_metadata(args, summary, len(job_lists), workloads.digest(job_lists))
    meta["rss_peak_set_by_oracle"] = oracle_raised
    print(f"# {workload} seed={args.seed} rounds={len(job_lists)} pairs={summary['pairs']} "
          f"jobs_per_pair={summary['jobs']} digest={meta['jobs_digest']} trace={args.trace}")
    for name, unit in END_TO_END.items():
        extra = ""
        if name == "job_tail_ms":
            extra = f"  (p{summary['tail_percentile']:.1f}, n={summary['jobs']}, {summary['tail_jobs_beyond']} beyond)"
        if name == "peak_rss_mb" and oracle_raised:
            extra = "  (set by an oracle check, not by the program)"
        print(f"{name:14s} {e2e[name]:.6g} {unit}{extra}")
    n_fail = sum(1 for r in plain_records if r["status"] != "ok")
    print(f"{'error_rate':14s} {n_fail / len(plain_records):.6g} ratio  ({n_fail}/{len(plain_records)} failed)")
    by_class = {}
    for r in plain_records:
        by_class.setdefault(r["cls"], []).append(r)
    for cls, recs in sorted(by_class.items()):
        bad = sum(1 for r in recs if r["status"] != "ok")
        print(f"  {cls:22s} n={len(recs):3d} failed={bad:3d} "
              f"median={1000 * statistics.median(r['latency'] for r in recs):.4g} ms")
    for r in failed[:8]:
        print(f"  failed {r['cls']}: {r['status']}: {r['detail']}")
    if args.trace:
        metrics = tracer.layer_metrics()
        traced_records = [r for rnd in traced for r in rnd]
        metrics.update(cli_metrics(workload, traced_records, summary) if workload == "cli-cold" else
                       {k: 0 for k in METRICS if k.startswith("cli.")})
        base = summary["jobs_per_s"]
        metrics["trace.overhead_ratio"] = pairs_summary(traced)["jobs_per_s"] / base if base else 0.0
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{args.seed}.jsonl")
        for name, unit in METRICS.items():
            print(f"{name:48s} {metrics[name]:.6g} {unit}")
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in METRICS.items()}
    else:
        result_metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not wrong, "attempted": len(records), "failed": len(failed),
                      "metrics": result_metrics}))
    return 0


def cli_metrics(workload: str, traced: list, summary: dict) -> dict:
    """cli.* from probes of a bare interpreter and of ``-X importtime``
    imports of ramkit.cli, and from the traced jobs' stderr."""
    bare = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
        bare.append(time.perf_counter() - start)
    imports = []
    for _, err in measure_setup(workload, ("-X", "importtime")):
        line = next(ln for ln in err.splitlines() if imported_name(ln) == "ramkit.cli")
        imports.append(int(line.split("|")[1]) / 1e6)
    import_s = statistics.median(imports)
    return {
        "cli.interpreter_s": statistics.median(bare),
        "cli.import_s": import_s,
        "cli.import_share": import_s / (summary["job_p50_ms"] / 1000),
        "cli.numpy_loaded_jobs": sum(1 for r in traced if r.get("numpy")),
        "cli.traceback_jobs": sum(1 for r in traced if r.get("traceback")),
    }


def run_metadata(args, summary: dict, rounds: int, digest: str) -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "numpy": version("numpy"), "scipy": version("scipy"),
        "mpmath": version("mpmath"), "nproc": NPROC, "blas_threads": os.environ[BLAS_VARS[0]],
        "numpy_imported": "numpy" in sys.modules, "rounds": rounds, "pairs": summary["pairs"],
        "jobs_per_pair": summary["jobs"], "jobs_digest": digest, "tail_percentile": summary["tail_percentile"],
        "tail_jobs_beyond": summary["tail_jobs_beyond"], "timed_s": summary["window_s"],
        "sizing_s": workloads.SIZING[args.workload],
    }


def run_all(args) -> int:
    """Every workload in its own process; prints their reports in turn."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: {workload} failed: {proc.stderr.strip()[-300:]}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-2]), flush=True)
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
