"""End-to-end checks of the command-line interface via run(argv)."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramkit import ram_signal
from ramkit.bigdec import BigDecimal
from ramkit.cli import run
from ramkit.pi_engine import pi_machin

PI_42 = "3.141592653589793238462643383279502884197169"


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_pi_text_is_one_line(capsys):
    assert run(["pi", "--method", "machin", "--digits", "42"]) == 0
    out, err = out_of(capsys)
    assert out == PI_42 + "\n"
    assert err == ""


def test_pi_json_payload(capsys):
    assert run(["pi", "--method", "madhava", "--digits", "20", "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["method"] == "madhava"
    assert payload["digits"] == 20
    assert isinstance(payload["terms_used"], int) and payload["terms_used"] > 20
    assert payload["value"] == "3.14159265358979323846"


def test_pi_terms_flag_is_madhava_only(capsys):
    assert run(["pi", "--method", "machin", "--digits", "10", "--terms", "5"]) == 1
    _, err = out_of(capsys)
    assert err.startswith("error:")


def test_pi_nonpositive_terms_is_one_error_line(capsys):
    for terms in ("0", "-1"):
        argv = ["pi", "--method", "madhava", "--digits", "10", "--terms", terms, "--json"]
        assert run(argv) == 1
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_pi_report_convergence(capsys):
    argv = ["pi", "--method", "chudnovsky", "--digits", "30", "--json",
            "--report-convergence"]
    assert run(argv) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert abs(payload["digits_per_term"] - 14.18) < 0.3
    # text mode keeps stdout to the bare number; the rate goes to stderr
    assert run(["pi", "--method", "ramanujan", "--digits", "20",
                "--report-convergence"]) == 0
    out, err = out_of(capsys)
    assert len(out.strip().splitlines()) == 1
    assert "digits_per_term" in err
    assert run(["pi", "--method", "madhava", "--digits", "10",
                "--report-convergence"]) == 1


def test_exit_codes(capsys):
    assert run(["pi", "--method", "machin", "--digits", "0"]) == 1
    assert run(["pi", "--method", "machin"]) == 2  # missing --digits
    assert run(["frobnicate"]) == 2
    assert run(["--help"]) == 0
    assert run(["graph", "build", "--p", "4", "--q", "29"]) == 1
    capsys.readouterr()


def test_cf_eval(capsys):
    argv = ["cf", "eval", "--a-poly", "3,7,4", "--b-poly", "0,0,-2",
            "--a0", "4", "--digits", "20", "--depth", "400"]
    assert run(argv) == 0
    out, _ = out_of(capsys)
    assert out == "3.85645844807353723880\n"
    assert run(argv + ["--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["value"] == "3.85645844807353723880"
    assert payload["error_estimate"] == 0.0
    assert payload["a_poly"] == [3, 7, 4]


def test_cf_eval_bad_poly(capsys):
    assert run(["cf", "eval", "--a-poly", "3;7", "--b-poly", "1",
                "--a0", "0", "--digits", "10"]) == 1
    capsys.readouterr()


def test_cf_expand_rational(capsys):
    assert run(["cf", "expand", "--value", "5000/127", "--terms", "10"]) == 0
    out, _ = out_of(capsys)
    assert out == "39 2 1 2 2 1 4\n"
    # the documented forms p/q, -p/q, integers and decimals; "--value=" keeps
    # argparse from reading a leading '-' as an option
    for text, coeffs in (("-5000/127", "-40 1 1 1 2 2 1 4"), ("-17", "-17"), ("2.5", "2 2")):
        assert run(["cf", "expand", f"--value={text}"]) == 0
        assert out_of(capsys) == (coeffs + "\n", "")
    for text in ("1e3", "1_000", "\u0663/4", "3/0", "1/2/3", "3/"):
        assert run(["cf", "expand", f"--value={text}"]) == 1
        assert out_of(capsys) == ("", f"error: cannot parse rational {text!r}\n")


def test_cf_expand_value_past_int_str_digit_cap(capsys):
    # 5000 digits is past Python's default 4300-digit int/str limit;
    # (10^5000 - 1)/9 = 7 * quotient + 4, and 7/4 = [1; 1, 3]
    ones = "1" * 5000
    quotient = "15873" + "015873" * 832 + "01"
    assert run(["cf", "expand", "--value", ones + "/7"]) == 0
    assert out_of(capsys) == (quotient + " 1 1 3\n", "")
    assert run(["cf", "expand", "--value", ones + "/7", "--json"]) == 0
    out, _ = out_of(capsys)
    assert out == (f'{{"input": "{ones}/7", "coefficients": [{quotient}, 1, 1, 3], '
                   '"truncated": false}\n')


_LONG_DIGITS = st.tuples(
    st.text("0123456789", min_size=1, max_size=8),
    st.integers(4301, 6000),
    st.sampled_from(["", "/7", "/0", ".5", "/x", "/" + "3" * 4400]),
).map(lambda t: (t[0] * 6000)[: t[1]] + t[2])


@given(st.one_of(st.text(), st.text("0123456789\u0663\u00b2/.-+ e_", max_size=12), _LONG_DIGITS))
@settings(max_examples=200)
def test_cf_expand_value_never_raises(text):
    # any text ends in an answer (0) or one error line (1), never a traceback
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert run(["cf", "expand", f"--value={text}"]) in (0, 1)


def test_cf_expand_constant_json(capsys):
    assert run(["cf", "expand", "--constant", "pi", "--terms", "5", "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["coefficients"] == [3, 7, 15, 1, 292]
    assert payload["truncated"] is False
    assert run(["cf", "expand", "--constant", "e", "--terms", "12"]) == 0
    out, _ = out_of(capsys)
    assert out == "2 1 2 1 1 4 1 1 6 1 1 8\n"


def test_cf_expand_needs_one_source(capsys):
    assert run(["cf", "expand", "--terms", "5"]) == 1
    assert run(["cf", "expand", "--value", "1/2", "--constant", "pi"]) == 1
    capsys.readouterr()


def test_cf_verify_json_keys(capsys):
    assert run(["cf", "verify", "--name", "e", "--digits", "30", "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert set(payload) == {"name", "status", "digits", "abs_error",
                            "depth_used", "match"}
    assert payload["name"] == "e"
    assert payload["match"] is True
    assert payload["abs_error"] < 1e-30
    assert run(["cf", "verify", "--name", "nonsense"]) == 1
    capsys.readouterr()


def test_sums_table(capsys):
    assert run(["sums", "table", "--q", "6", "--n", "12"]) == 0
    out, _ = out_of(capsys)
    assert out == "2 1 -1 -2 -1 1 2 1 -1 -2 -1 1\n"
    assert run(["sums", "table", "--q", "6", "--n", "12", "--json"]) == 0
    out, _ = out_of(capsys)
    assert json.loads(out)["values"] == [2, 1, -1, -2, -1, 1, 2, 1, -1, -2, -1, 1]
    # c_q(0) = phi(q) without listing the divisors of q
    assert run(["sums", "table", "--q", "100000000000000000000", "--n", "2"]) == 0
    assert out_of(capsys) == ("40000000000000000000 0\n", "")


def test_sums_table_sums_once_per_gcd(monkeypatch, capsys):
    # c_q(n) depends on n only through gcd(q, n); for a prime q the row
    # meets two gcds, so q is factorized twice, not once per value
    calls = []
    factorize = ram_signal.factorize
    monkeypatch.setattr(ram_signal, "factorize", lambda n: calls.append(n) or factorize(n))
    assert run(["sums", "table", "--q", "1000000000039", "--n", "10"]) == 0
    assert out_of(capsys) == ("1000000000038" + " -1" * 9 + "\n", "")
    assert len(calls) <= 2


def test_sums_tau(capsys):
    assert run(["sums", "tau", "--max", "5"]) == 0
    out, _ = out_of(capsys)
    assert out == "1 -24 252 -1472 4830\n"
    assert run(["sums", "tau", "--max", "100", "--check-bound", "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["bound"]["holds"] is True
    assert payload["bound"]["primes_checked"] == 25
    assert run(["sums", "tau", "--max", "1", "--check-bound"]) == 1
    capsys.readouterr()


@pytest.fixture(scope="module")
def built_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "x513.txt"
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["graph", "build", "--p", "5", "--q", "13",
                    "--out", str(path), "--json"])
    assert code == 0
    return path, buf.getvalue()


def test_graph_build_sidecar(built_graph):
    path, stdout = built_graph
    payload = json.loads(stdout)
    assert set(payload) == {"p", "q", "branch", "vertices", "degree",
                            "lambda", "bound", "is_ramanujan"}
    assert payload["branch"] == "PGL"
    assert payload["vertices"] == 2184
    assert payload["degree"] == 6
    assert abs(payload["lambda"] - 4.249720849060802) < 1e-9
    assert abs(payload["bound"] - 4.47213595499958) < 1e-12
    assert payload["is_ramanujan"] is True
    sidecar = json.loads((path.parent / (path.name + ".json")).read_text())
    assert sidecar == payload


def test_graph_build_unwritable_out_is_one_error_line(tmp_path, capsys):
    (tmp_path / "taken.txt.json").mkdir()  # the sidecar cannot be written
    for out in (tmp_path / "missing" / "x.txt", tmp_path / "taken.txt"):
        assert run(["graph", "build", "--p", "5", "--q", "13", "--out", str(out)]) == 1
        stdout, err = out_of(capsys)
        assert stdout == "" and err.startswith(f"error: cannot write {out}") and err.count("\n") == 1


def test_graph_edge_list_format(built_graph):
    path, _ = built_graph
    lines = path.read_text().splitlines()
    assert lines[0] == "2184 6552"
    assert len(lines) == 6553
    u, v = lines[1].split()
    assert 0 <= int(u) < 2184 and 0 <= int(v) < 2184


def test_graph_check_roundtrip(built_graph, capsys):
    path, _ = built_graph
    assert run(["graph", "check", "--in", str(path), "--degree", "6",
                "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["vertices"] == 2184
    assert abs(payload["lambda"] - 4.249720849060802) < 1e-6
    assert abs(payload["lambda_second"] - 6.0) < 1e-6
    assert payload["bipartite"] is True
    assert payload["is_ramanujan"] is True
    assert abs(payload["bound_alt"] - 4.898979485566356) < 1e-9


def test_graph_check_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n")
    assert run(["graph", "check", "--in", str(bad), "--degree", "2"]) == 1
    capsys.readouterr()


def _write_c3_c7(path):
    samples = [ram_signal.ramanujan_sum(3, n) + ram_signal.ramanujan_sum(7, n)
               for n in range(21)]
    path.write_text("\n".join(str(v) for v in samples) + "\n")
    return samples


def test_signal_decompose_json(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    _write_c3_c7(sig)
    assert run(["signal", "decompose", "--in", str(sig), "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["N"] == 21
    assert payload["residual"] == 0.0
    qs = [comp["q"] for comp in payload["components"]]
    assert qs == [1, 3, 7, 21]
    by_q = {comp["q"]: comp for comp in payload["components"]}
    assert by_q[7]["samples"][0] == 6
    assert by_q[7]["energy_fraction"] == 0.75
    assert by_q[3]["energy_fraction"] == 0.25
    assert all(v == 0 for v in by_q[1]["samples"])


def test_signal_periods_text(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    _write_c3_c7(sig)
    assert run(["signal", "periods", "--in", str(sig), "--top", "2"]) == 0
    out, _ = out_of(capsys)
    assert out.splitlines() == ["7 0.75", "3 0.25"]


def test_signal_csv_input(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    sig.write_text("1, -1, 1, -1, 1, -1\n")
    assert run(["signal", "periods", "--in", str(sig), "--top", "1",
                "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["N"] == 6
    assert payload["top"][0]["q"] == 2
    assert payload["top"][0]["energy_fraction"] == 1.0


def test_signal_missing_file(capsys):
    assert run(["signal", "decompose", "--in", "/nonexistent/sig.txt"]) == 1
    capsys.readouterr()


def test_graph_check_missing_file(capsys):
    assert run(["graph", "check", "--in", "/nonexistent/graph.txt",
                "--degree", "6"]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_signal_non_ascii_file(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    sig.write_bytes(b"1\n\xff\n")
    assert run(["signal", "periods", "--in", str(sig)]) == 1
    _, err = out_of(capsys)
    assert err.startswith("error:") and err.count("\n") == 1


def test_reruns_are_byte_identical(capsys):
    for argv in (
        ["pi", "--method", "chudnovsky", "--digits", "60", "--json"],
        ["cf", "verify", "--name", "pi", "--digits", "30", "--json"],
        ["sums", "tau", "--max", "30", "--check-bound", "--json"],
        ["cf", "expand", "--constant", "catalan", "--terms", "15"],
    ):
        assert run(argv) == 0
        first, _ = out_of(capsys)
        assert run(argv) == 0
        second, _ = out_of(capsys)
        assert first == second


def test_selftest_quick(capsys):
    assert run(["selftest", "--level", "quick", "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["level"] == "quick"
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["checks"]) == 14
    names = {c["name"] for c in payload["checks"]}
    assert "Table c_6" in names
    assert "X^(5,13) spectrum" in names


def test_selftest_catches_corrupted_table(monkeypatch, capsys):
    real = ram_signal.ramanujan_sum

    def corrupted(q, n):
        value = real(q, n)
        return value + 1 if (q, n % max(q, 1)) == (6, 4) else value

    monkeypatch.setattr(ram_signal, "ramanujan_sum", corrupted)
    assert run(["selftest", "--level", "quick", "--json"]) == 1
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["failed"] >= 1
    failed_names = {c["name"] for c in payload["checks"] if not c["ok"]}
    assert "Table c_6" in failed_names


@pytest.mark.parametrize("command", ["periods", "decompose"])
@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_signal_non_finite_sample(tmp_path, capsys, command, fmt):
    sig = tmp_path / "sig.txt"
    sig.write_text("1\ninf\n2\n3")
    assert run(["signal", command, "--in", str(sig), *fmt]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("sample, message", [
    ("1.3407807929942597e+154", "signal energy exceeds the float range"),  # squares past 1.8e308
    ("1" + "0" * 400, "sample exceeds the float range"),  # an int with no float value
], ids=["float", "int"])
def test_signal_energy_past_float_range(tmp_path, capsys, sample, message):
    sig = tmp_path / "sig.txt"
    sig.write_text(f"{sample}\n0.5\n")
    assert run(["signal", "periods", "--in", str(sig)]) == 1
    assert out_of(capsys) == ("", f"error: {message}\n")


def test_import_leaves_numpy_unloaded(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ramkit

    src = str(Path(ramkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import ramkit.cli, sys; assert not {'numpy', 'scipy'} & set(sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    # graph check reads its file before it imports lps_graphs
    code = (
        "import sys; from ramkit.cli import run; "
        "code = run(['graph', 'check', '--in', 'missing.txt', '--degree', '6']); "
        "print('numpy' in sys.modules); sys.exit(code)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "False\n")
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


def test_pi_past_int_str_digit_cap(capsys):
    # 4400 digits is past Python's default 4300-digit int/str limit
    for method in ("chudnovsky", "machin"):
        assert run(["pi", "--method", method, "--digits", "4400"]) == 0
        out, err = out_of(capsys)
        assert err == ""
        assert len(out) == 4403 and out.startswith("3.14159")
        assert BigDecimal.parse(out).mantissa == pi_machin(4400).mantissa


def test_cf_expand_e_grows_reference_precision(capsys):
    # e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]; the starting budget of 1.2
    # digits per term (375 digits) certifies only 263 of 300 terms
    assert run(["cf", "expand", "--constant", "e", "--terms", "300", "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    want = [2] + [2 * (i + 1) // 3 if i % 3 == 2 else 1 for i in range(1, 300)]
    assert payload["coefficients"] == want
    assert payload["truncated"] is False


def test_cf_expand_past_reference_cap_is_an_error(capsys):
    # 500 reference digits certify 335 terms of e
    assert run(["cf", "expand", "--constant", "e", "--terms", "400"]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_graph_verify_matches_build(built_graph, capsys):
    _, build_stdout = built_graph
    built = json.loads(build_stdout)
    assert run(["graph", "verify", "--p", "5", "--q", "13", "--json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert {k: payload[k] for k in built} == built
    assert payload["connected"] is True and payload["bipartite"] is True
    assert abs(payload["lambda_second"] - 6.0) < 1e-9
    assert run(["graph", "verify", "--p", "5", "--q", "29"]) == 0
    out, _ = out_of(capsys)
    assert out.startswith("X^(5,29) branch=PSL vertices=12180 degree=6 lambda=4.44201644")
    assert out.endswith(" bipartite=False ramanujan=True\n")


def test_graph_commands_reject_oversized_q(capsys):
    for command in ("build", "verify"):
        assert run(["graph", command, "--p", "5", "--q", "1009"]) == 1
        out, err = out_of(capsys)
        assert out == "" and err.startswith("error: X^(5,1009) has ") and err.count("\n") == 1


def test_cf_expand_negative_value_spelling(capsys):
    # argparse reads a separate "-5000/127" as an option; the help names
    # the --value= spelling, which parses
    assert run(["cf", "expand", "--help"]) == 0
    assert "--value=-5000/127" in " ".join(out_of(capsys)[0].split())
    assert run(["cf", "expand", "--value", "-5000/127"]) == 2
    assert "expected one argument" in out_of(capsys)[1]
    assert run(["cf", "expand", "--value=-5000/127"]) == 0
    assert out_of(capsys) == ("-40 1 1 1 2 2 1 4\n", "")


def _arg(values):
    """An argument value: one of `values` or arbitrary short text."""
    return st.one_of(values.map(str), st.text(max_size=6))


def _exit_code(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return run(argv)


# exit 0 is an answer, 1 one `error:` line and 2 an argparse usage error;
# a traceback fails the test
@given(q=_arg(st.integers(-3, 60)), n=_arg(st.integers(-3, 200)))
@settings(max_examples=100, deadline=None)
def test_sums_table_exit_codes(q, n):
    assert _exit_code(["sums", "table", f"--q={q}", f"--n={n}"]) in (0, 1, 2)


@given(
    samples=st.lists(st.one_of(st.integers(-9, 9), st.floats(-1e6, 1e6), st.floats()), max_size=60),
    top=_arg(st.integers(-3, 70)),
)
@settings(max_examples=100, deadline=None)
def test_signal_periods_exit_codes(tmp_path_factory, samples, top):
    path = tmp_path_factory.getbasetemp() / "fuzzed_signal.txt"
    path.write_text("".join(f"{v!r}\n" for v in samples))
    assert _exit_code(["signal", "periods", "--in", str(path), f"--top={top}"]) in (0, 1, 2)


_POLY = st.lists(st.integers(-9, 9), max_size=8).map(lambda cs: ",".join(map(str, cs)))


@given(
    a_poly=st.one_of(_POLY, st.text(max_size=6)),
    b_poly=st.one_of(_POLY, st.text(max_size=6)),
    a0=_arg(st.integers(-9, 9)),
    digits=_arg(st.integers(-3, 200)),
    depth=_arg(st.integers(-3, 10**4)),
)
@settings(max_examples=100, deadline=None)
def test_cf_eval_exit_codes(a_poly, b_poly, a0, digits, depth):
    argv = ["cf", "eval", f"--a-poly={a_poly}", f"--b-poly={b_poly}", f"--a0={a0}",
            f"--digits={digits}", f"--depth={depth}"]
    assert _exit_code(argv) in (0, 1, 2)


_SMALL_LPS = st.one_of(st.integers(-3, 60), st.sampled_from([5, 13, 17, 29]))


@given(p=_arg(_SMALL_LPS), q=_arg(_SMALL_LPS))
@settings(max_examples=40, deadline=None)
def test_graph_verify_exit_codes(p, q):
    assert _exit_code(["graph", "verify", f"--p={p}", f"--q={q}"]) in (0, 1, 2)


@given(p=_arg(_SMALL_LPS), q=_arg(_SMALL_LPS))
@settings(max_examples=40, deadline=None)
def test_graph_build_exit_codes(tmp_path_factory, p, q):
    out = tmp_path_factory.getbasetemp() / "fuzzed_graph.txt"
    assert _exit_code(["graph", "build", f"--p={p}", f"--q={q}", f"--out={out}"]) in (0, 1, 2)
