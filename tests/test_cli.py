"""CLI surface: JSON payloads, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trirad
import trirad.cli
from trirad import linking
from trirad.cli import main
from conftest import PQ_LIST, random_element
from trirad.group import Element, cocycle_W_el, get_params
from trirad.words import GroupWord, Syllable, parse_word, render_word


def run_python(*args):
    """A fresh interpreter with this checkout's trirad on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(trirad.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_symbol_command(capsys):
    code, d = run_json(capsys, "symbol", "--pq", "2,3", "--word", "U * S * U^2 * S")
    assert code == 0
    assert d["pq"] == [2, 3]
    assert d["psi"] == 0 and d["Psi"] == 0 and d["Phi"] == "6/2"
    assert d["classification"] == "hyperbolic"


def test_symbol_from_matrix(capsys):
    code, d = run_json(capsys, "symbol", "--pq", "2,3", "--matrix", "2,1;1,1")
    assert code == 0
    assert d["psi"] == 0
    assert d["word"] == "U * S * U^2 * S"
    # 60 (U^e S) pairs: 33-bit entries, past where a float search lost its way
    rng = random.Random(3)
    text = " * ".join(f"U^{rng.randint(1, 2)} * S" for _ in range(60))
    m = Element(get_params(2, 3), parse_word(text)).matrix
    a, b, c, d_ = (int(x.rational_value()) for x in m.entries())
    assert max(abs(v) for v in (a, b, c, d_)).bit_length() >= 33
    code, by_word = run_json(capsys, "symbol", "--pq", "2,3", "--word", text)
    code_m, by_matrix = run_json(capsys, "symbol", "--pq", "2,3", f"--matrix={a},{b};{c},{d_}")
    assert code == code_m == 0
    assert by_matrix == by_word


def test_symbol_generators(capsys):
    code, d = run_json(capsys, "symbol", "--pq", "3,4", "--word", "S")
    assert code == 0
    assert d["psi"] == -4
    # note --word=-I: argparse would read a bare -I as a flag
    code, d = run_json(capsys, "symbol", "--pq", "3,4", "--word=-I")
    assert d["psi"] == 12


def test_link_command(capsys):
    code, d = run_json(capsys, "link", "--pq", "2,5", "--word", "S", "--variant", "Psi_e")
    assert code == 0
    assert d["r"] == 3
    assert d["lk_lens"] == "-5/3"
    assert d["lk_s3"] == -5 and d["components"] == 1
    code, d = run_json(
        capsys, "link", "--pq", "2,5", "--word", "S", "--variant", "Psi_e", "--space", "lens"
    )
    assert "lk_s3" not in d


def test_lift_command(capsys):
    code, d = run_json(capsys, "lift", "--pq", "2,3", "--word", "U * S * U^2 * S")
    assert code == 0
    # psi = character + 2pq * level: 0 = -12 + 12
    assert d["level"] == 1
    assert d["psi"] == 0
    assert [s["factor"] for s in d["steps"]] == ["U^1", "S^1", "U^2", "S^1"]
    # the standard lift of -I sits at level 0
    code, d = run_json(capsys, "lift", "--pq", "2,3", "--word", "S * S")
    assert d["word"] == "-I" and d["level"] == 0 and d["psi"] == 6


def test_word_starting_with_minus_takes_the_equals_form(capsys):
    # argparse reads a bare -I as a flag (exit 2); --word=-I is the documented form
    code, d = run_json(capsys, "lift", "--pq", "3,4", "--word=-I")
    assert code == 0 and d["word"] == "-I" and d["level"] == 0 and d["psi"] == 12


def _lift_by_products(el):
    """level and steps of `trirad lift`, one Element product and W per syllable."""
    params = el.params
    steps = []
    cur = Element.identity(params)
    level = 0
    if el.word.sign < 0:
        cur = -cur
        steps.append({"factor": "-I", "level": 0, "partial": render_word(cur.word)})
    for gen, e in el.word.syllables:
        step_el = Element.generator(params, gen, e)
        nxt = cur * step_el
        w = cocycle_W_el(cur, step_el, nxt)
        level += w
        cur = nxt
        steps.append({"factor": f"{gen}^{e}", "W": w, "level": level, "partial": render_word(cur.word)})
    return level, steps


def test_lift_matches_the_per_step_cocycle(capsys, rng):
    # every pair, both central signs, cusp prefixes, and words equal to -I
    for p, q in PQ_LIST:
        params = get_params(p, q)
        texts = [f"S^{p}", f"U^{q} * S * U * S^{p - 1}"]
        for i in range(12):
            w = random_element(params, rng, 40, min_syllables=3).word
            if i % 3 == 0:
                # (U S)^2 or (S^(p-1) U^(q-1))^2 in front: prefixes with c = 0
                if w.syllables[0].gen == "U":
                    cusp = (Syllable("U", 1), Syllable("S", 1))
                else:
                    cusp = (Syllable("S", p - 1), Syllable("U", q - 1))
                w = GroupWord(w.sign, cusp * 2 + w.syllables)
            texts.append(render_word(w))
        for text in texts:
            code, d = run_json(capsys, "lift", "--pq", f"{p},{q}", "--word", text)
            level, steps = _lift_by_products(Element(params, parse_word(text)))
            assert code == 0 and (d["level"], d["steps"]) == (level, steps), text


def test_normal_form_command(capsys):
    code, d = run_json(capsys, "normal-form", "--pq", "3,5", "--word", "S * U^5 * U^3 * S^2")
    assert code == 0
    assert d["normal_form"] == "- S * U^3 * S^2"


def test_code23_command(capsys):
    code, d = run_json(capsys, "code23", "--pq", "2,3", "--word", "U * S * U^2 * S")
    assert code == 0
    assert sorted(d["epsilons"]) == [-1, 1]
    assert d["sum"] == 0 == d["Psi"]


def test_enumerate_json_and_csv(capsys):
    code, d = run_json(capsys, "enumerate", "--pq", "2,3", "--max-syllables", "6")
    assert code == 0
    assert d["count"] == 3
    code, out = run(capsys, "enumerate", "--pq", "2,3", "--max-syllables", "6", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0].startswith("word,trace_numeric,psi,Psi,length")
    assert len(lines) == 4


def test_stats_command(capsys):
    code, d = run_json(capsys, "stats", "--pq", "2,3", "--max-syllables", "10", "--a", "0")
    assert code == 0
    assert d["count"] > 0
    assert 0 <= d["fraction"] <= 1
    assert abs(d["reference"] - 0.5) < 1e-9
    code, d2 = run_json(capsys, "stats", "--pq", "2,3", "--max-trace", "20", "--a", "0")
    assert d2["count"] > d["count"]


def test_stats_csv_is_the_payload_as_one_row(capsys):
    argv = ("stats", "--pq", "2,3", "--max-trace", "20", "--a", "0")
    code, d = run_json(capsys, *argv)
    code_csv, out = run(capsys, *argv, "--format", "csv")
    assert code == code_csv == 0
    header, row = csv.reader(io.StringIO(out))
    assert header == list(d) == ["pq", "count", "a", "b", "fraction", "reference", "ks_distance"]
    assert row == ["[2, 3]", str(d["count"]), "0.0", "", repr(d["fraction"]), repr(d["reference"]), repr(d["ks_distance"])]


def test_csv_elsewhere_names_the_commands_that_have_it(capsys):
    code, d = run_json(capsys, "symbol", "--pq", "2,3", "--word", "S", "--format", "csv")
    assert code == 4 and d["error"] == "DomainError"
    assert "enumerate" in d["message"] and "stats" in d["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--max-trace", "0"),
        ("--max-trace", "2"),
        ("--a", "nan"),
        ("--b", "nan"),
        ("--a", "1", "--b", "-1"),
        ("--a", "inf", "--b", "inf"),
        ("--a=-inf",),
        ("--b", "inf"),
    ],
)
def test_stats_bad_bounds_exit_4(capsys, argv):
    # --max-trace 0 used to fall back to the syllable table, NaN printed an
    # invalid JSON reference, a > b a negative one, and an infinite bound
    # was written as Infinity, which is not JSON
    code, d = run_json(capsys, "stats", "--pq", "2,3", *argv)
    assert code == 4 and d["error"] == "DomainError"


@pytest.mark.parametrize("n", ["8", "12"])
def test_stats_takes_one_population_bound(capsys, n):
    # --max-syllables next to --max-trace was dropped without a word; an explicit
    # 12, the value used when neither flag is given, is refused like any other
    with pytest.raises(SystemExit) as e:
        main(["stats", "--pq", "2,5", "--max-syllables", n, "--max-trace", "100"])
    assert e.value.code == 2 and "not allowed with argument" in capsys.readouterr().err
    code, d = run_json(capsys, "stats", "--pq", "2,5")
    code12, d12 = run_json(capsys, "stats", "--pq", "2,5", "--max-syllables", "12")
    assert code == code12 == 0 and d == d12 and d["count"] == 962


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_needs_a_positive_count(capsys, count):
    code, d = run_json(capsys, "verify", "--pq", "2,3", "--count", count)
    assert code == 4 and d["error"] == "DomainError"


def test_numeric_check_command(capsys):
    code, d = run_json(capsys, "numeric-check", "--pq", "2,3", "--max-syllables", "6")
    assert code == 0
    assert d["failures"] == 0
    assert all(row["ok"] for row in d["classes"])


def test_numeric_check_to_sixteen_syllables(capsys):
    code, d = run_json(capsys, "numeric-check", "--pq", "2,3", "--max-syllables", "16")
    assert code == 0 and d["failures"] == 0
    assert len(d["classes"]) == 69
    assert all(row["ok"] and row["cycle_residual"] < 1e-10 for row in d["classes"])


def test_numeric_check_failure_exits_6(capsys, monkeypatch):
    from trirad import analytic

    monkeypatch.setattr(analytic, "winding_residual_23", lambda el: (0, 1.0))
    code, out = run(capsys, "numeric-check", "--pq", "2,3", "--max-syllables", "4")
    assert code == 6
    assert json.loads(out.splitlines()[-1])["error"] == "NumericError"


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_numeric_check_invalid_tol_exits_4(capsys, tol):
    code, d = run_json(capsys, "numeric-check", "--pq", "2,3", "--max-syllables", "6", f"--tol={tol}")
    assert code == 4 and d["error"] == "DomainError"


def test_numeric_check_refuses_an_invalid_tol_with_no_class_to_check(capsys):
    # 2 syllables hold no primitive hyperbolic class, so no quadrature would see the tol
    code, d = run_json(capsys, "numeric-check", "--pq", "2,3", "--max-syllables", "2")
    assert code == 0 and d["classes"] == []
    code, d = run_json(capsys, "numeric-check", "--pq", "2,3", "--max-syllables", "2", "--tol=-1")
    assert code == 4 and d["error"] == "DomainError"


def test_verify_failure_exits_9_under_optimize():
    # checks must not be asserts, which python -O strips
    broken = (
        "import sys; from trirad import cli, symbols; "
        "symbols.psi_via_cocycle = lambda el: symbols.psi(el) + 1; "
        "sys.exit(cli.main(['verify', '--pq', '2,3', '--count', '3']))"
    )
    res = run_python("-O", "-c", broken)
    assert res.returncode == 9, res.stdout + res.stderr
    assert json.loads(res.stdout)["error"] == "VerificationError"


def test_cli_import_leaves_out_numpy_and_scipy():
    res = run_python("-c", "import sys, trirad.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    assert res.returncode == 0 and res.stdout.strip() == "[]", res.stdout + res.stderr


@pytest.mark.parametrize(
    "argv", [["numeric-check", "--pq", "2,3", "--max-syllables", "8"], ["stats", "--pq", "2,3", "--max-trace", "100"]]
)
def test_analytic_commands_run_without_numpy(argv):
    # a None entry in sys.modules makes every import of numpy raise ImportError
    code = f"import sys; sys.modules['numpy'] = None; from trirad.cli import main; sys.exit(main({argv!r}))"
    res = run_python("-c", code)
    assert res.returncode == 0, res.stdout + res.stderr
    assert json.loads(res.stdout)["pq"] == [2, 3]


@pytest.mark.parametrize("module", ["trirad.cli", "trirad"])
def test_import_leaves_out_dataclasses_and_inspect(module):
    # together they cost about 20 ms of CPU in a one-shot command; the records are NamedTuples
    res = run_python("-c", f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))")
    assert res.returncode == 0 and res.stdout.strip() == "[]", res.stdout + res.stderr
    sources = sorted(Path(trirad.__file__).parent.glob("*.py"))
    assert [f.name for f in sources if "dataclass" in f.read_text()] == []


def test_verify_command_and_determinism(capsys):
    code, d1 = run_json(capsys, "verify", "--pq", "3,4", "--count", "40")
    assert code == 0
    assert d1["ok"] and d1["checks"]["dual_pipeline"] == 40
    # the word formula runs on the non-elliptic x only
    assert d1["checks"]["word_formula"] == 27
    code, d2 = run_json(capsys, "verify", "--pq", "3,4", "--count", "40")
    assert d1 == d2


def test_text_format(capsys):
    code, out = run(capsys, "symbol", "--pq", "2,3", "--word", "S", "--format", "text")
    assert code == 0
    assert "psi: -3" in out


def test_exit_code_parse_error(capsys):
    code, d = run_json(capsys, "symbol", "--pq", "2,3", "--word", "S^")
    assert code == 3
    assert d["error"] == "ParseError"


def test_exit_code_domain_error(capsys):
    code, d = run_json(capsys, "symbol", "--pq", "2,4", "--word", "S")
    assert code == 4
    code, d = run_json(capsys, "symbol", "--pq", "2,5", "--matrix", "1,0;0,1")
    assert code == 4  # matrix input only at (2,3)


def test_exit_code_precondition(capsys):
    code, d = run_json(capsys, "link", "--pq", "2,3", "--word", "S", "--variant", "psi")
    assert code == 5
    assert d["error"] == "PreconditionError"


def test_exit_code_not_in_group(capsys):
    # det 1 integer matrices are all in SL2(Z); force a failure via det
    code, d = run_json(capsys, "symbol", "--pq", "2,3", "--matrix", "1,0;0,2")
    assert code == 4  # caught at determinant validation


def test_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["symbol", "--pq"])
    assert e.value.code == 2


# sha256 of `enumerate --pq 3,4 --max-syllables 6` in each format, taken when the csv rows were built for
# every format: building them for csv only must leave every output byte for byte
ENUMERATE_34_SHA256 = {
    "json": "447e0f8429aecf411cccb6a872e974c6cdd4e171ae1c4cf4c44647853e5ede8f",
    "csv": "d25988cbdb6e42b598ab484269ca93aceb12ce517dbd242243c1f00e24c90f89",
    "text": "fcbc743beadc509408cd648ac14dc386a07827ef549f5fe7752cd7540202ba54",
}


def test_enumerate_builds_csv_rows_for_csv_output_only(capsys, monkeypatch):
    emitted = []
    emit = trirad.cli._emit
    monkeypatch.setattr(trirad.cli, "_emit", lambda args, payload, csv_rows=None: emitted.append(csv_rows) or emit(args, payload, csv_rows))
    for fmt, sha in ENUMERATE_34_SHA256.items():
        emitted.clear()
        code, out = run(capsys, "enumerate", "--pq", "3,4", "--max-syllables", "6", "--format", fmt)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == sha, fmt
        assert (emitted[0] is not None) == (fmt == "csv"), fmt


# ---------------------------------------------------------------------------
# seeded fuzzing of `main`, with README's exit-code table as the oracle


def _readme_exit_codes():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("Exit codes:", 1)[1].split("\n\n", 2)[1]
    return {int(m) for m in re.findall(r"^\| (\d+) \|", table, flags=re.M)}


_FUZZ_PQ = [f"{p},{q}" for p, q in PQ_LIST] * 6 + ["11,13", "1,2", "3,3", "2,4", "3,2", "-2,3", "2,3,4", "a,b", " 2 , 3", "2,", ""]
_FUZZ_TOKENS = ["S", "U", "S^2", "U^2", "S^-1", "U^-3", "S^0", "U^1.5", "S^99999999999", "*", "(", ")", "^", "-", "T", "I"]
_FUZZ_FLOATS = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e-30", "1e300", "5e-324", "x"] + ["0.5", "1e-6", "-0.25", "1e-3", "2"] * 2
_FUZZ_MATRICES = [
    "2,1;1,1", "1,5;0,1", "-1,0;0,-1", "0,-1;1,0", "5,2;2,1", "1,0;0,1", "-3,-1;-5,-2",
    "1,0;0,2", "12345678901234567890123,1;0,1", "1,2,3", "a,b;c,d", "1.5,0;0,1", ";", "",
]
_FUZZ_COMMANDS = ["symbol", "link", "lift", "normal-form", "code23", "enumerate", "stats", "numeric-check", "verify"]


def _fuzz_word(rng):
    """A word of up to 6 syllables with exponents past the generators' orders, or a soup of the grammar's tokens."""
    if rng.random() < 0.3:
        return " ".join(rng.choice(_FUZZ_TOKENS) for _ in range(rng.randint(0, 6)))
    gens = "SU" if rng.random() < 0.5 else "US"
    body = " * ".join(f"{gens[i % 2]}^{rng.choice([-7, -2, -1, 1, 2, 3, 4, 9])}" for i in range(rng.randint(1, 6)))
    return ("- " if rng.random() < 0.3 else "") + body


def _fuzz_int(rng, lo, hi):
    return rng.choice([str(rng.randint(lo, hi))] * 8 + ["x", "1.5"])


def _fuzz_argv(rng):
    """Random argv for one command, with small size bounds so that every run takes milliseconds."""
    command = rng.choice(_FUZZ_COMMANDS)
    pq = "2,3" if command in ("code23", "numeric-check") and rng.random() < 0.7 else rng.choice(_FUZZ_PQ)
    argv = [command, f"--pq={pq}"] if rng.random() < 0.97 else [command]
    small = pq in ("2,3", "2,5")  # few classes per syllable
    if command in ("symbol", "link", "lift", "normal-form", "code23"):
        if rng.random() < 0.8:
            argv.append(f"--word={_fuzz_word(rng)}")
        if rng.random() < (0.4 if pq == "2,3" else 0.05):  # --matrix is for (2,3) only
            argv.append(f"--matrix={rng.choice(_FUZZ_MATRICES)}")
        if command == "link":
            argv += ["--variant", rng.choice(linking.VARIANTS + ("bogus",))] * (rng.random() < 0.7)
            argv += ["--space", rng.choice(["lens", "s3", "bogus"])] * (rng.random() < 0.7)
    elif command in ("enumerate", "stats"):
        bound = rng.choice(["syllables", "syllables", "trace", "both", "none"])
        if bound == "none" and not small:
            bound = "syllables"
        if bound in ("syllables", "both"):
            argv += ["--max-syllables", _fuzz_int(rng, -3, 8 if small else 4)]
        if bound in ("trace", "both") and command == "stats":
            argv += ["--max-trace", _fuzz_int(rng, -5, 40)]
        if command == "stats":
            argv += [f"--a={rng.choice(_FUZZ_FLOATS)}"] * (rng.random() < 0.5)
            argv += [f"--b={rng.choice(_FUZZ_FLOATS)}"] * (rng.random() < 0.5)
    elif command == "numeric-check":
        argv += ["--max-syllables", _fuzz_int(rng, -1, 8)] * (rng.random() < 0.8)
        argv += [f"--tol={rng.choice(_FUZZ_FLOATS + ['1e-30'] * 4)}"] * (rng.random() < 0.5)  # 1e-30: no sum reaches it
    else:  # verify
        argv += ["--count", _fuzz_int(rng, -3, 3)]  # the default count is 500
        argv += ["--seed", _fuzz_int(rng, -5, 10**6)] * (rng.random() < 0.5)
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(["json"] * 4 + ["text", "csv", "xml"])]
    return argv


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _as_text(payload, indent=""):
    """The JSON payload rendered as `key: value` lines, a nested object as `key:` and its lines indented."""
    lines = []
    for k, v in payload.items():
        lines += [f"{indent}{k}:", *_as_text(v, indent + "  ")] if isinstance(v, dict) else [f"{indent}{k}: {v}"]
    return lines


def _format_disagreement(argv, code, fmt, out, capsys):
    """None when a `--format text|csv` run agrees with the same argv under `--format json`, else what differs.

    Where the JSON run exits 0: text lines are its payload as `key: value`, the
    stats CSV is its keys and values, and csv elsewhere than enumerate and stats
    exits 4 with the documented DomainError.
    """
    i = argv.index("--format")
    json_argv = argv[:i] + argv[i + 2:]
    if main(json_argv) != 0:
        capsys.readouterr()
        return None
    payload = _strict_json(capsys.readouterr().out)
    if fmt == "text":
        ok = code == 0 and out.splitlines() == _as_text(payload)
    elif argv[0] == "stats":
        values = ["" if v is None else str(v) for v in payload.values()]
        ok = code == 0 and list(csv.reader(io.StringIO(out))) == [list(payload), values]
    elif argv[0] == "enumerate":
        ok = code == 0
    else:
        refusal = _strict_json(out) if code == 4 else {}
        ok = refusal.get("error") == "DomainError" and "enumerate and stats" in refusal.get("message", "")
    return None if ok else f"--format {fmt} disagrees with --format json"


def test_fuzzed_argv_exit_with_a_documented_code_and_strict_json(capsys):
    codes = _readme_exit_codes()
    assert codes == {0, 2, 3, 4, 5, 6, 7, 8, 9}
    rng = random.Random(2029)
    problems, seen, compared = [], set(), set()
    # the draws reach no successful `stats --format csv`; one of these leaves --a out, one --b
    fixed = [
        ["stats", "--pq=2,3", "--max-trace", "20", "--a=0", "--format", "csv"],
        ["stats", "--pq=2,5", "--max-syllables", "6", "--b=-0.25", "--format", "csv"],
    ]
    for argv in fixed + [_fuzz_argv(rng) for _ in range(600)]:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - an escape is what this test looks for
            problems.append((argv, f"escaped: {exc!r}"))
            capsys.readouterr()
            continue
        out = capsys.readouterr().out
        seen.add(code)
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        if code not in codes:
            problems.append((argv, f"exit code {code}"))
            continue
        if code != 2 and (code != 0 or fmt == "json"):
            # exit 0 in json, and every error payload, parse as strict JSON
            try:
                _strict_json(out)
            except ValueError as exc:
                problems.append((argv, f"not strict JSON: {exc}"))
                continue
        if code != 2 and fmt in ("text", "csv"):
            compared.add((argv[0], fmt, code))
            problem = _format_disagreement(argv, code, fmt, out, capsys)
            if problem:
                problems.append((argv, problem))
    assert not problems, problems[:5]
    # the draws reach success, usage, syntax, domain, precondition and numeric failures
    assert {0, 2, 3, 4, 5, 6} <= seen, seen
    # and compare text with JSON, the stats CSV, and the csv refusal elsewhere
    assert {("stats", "csv", 0), ("stats", "text", 0), ("verify", "text", 0), ("symbol", "csv", 4)} <= compared, compared
