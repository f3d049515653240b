"""CLI surface: JSON payloads, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import trirad
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


def test_numeric_check_command(capsys):
    code, d = run_json(capsys, "numeric-check", "--pq", "2,3", "--max-syllables", "6")
    assert code == 0
    assert d["failures"] == 0
    assert all(row["ok"] for row in d["classes"])


def test_numeric_check_failure_exits_6(capsys, monkeypatch):
    from trirad import analytic

    monkeypatch.setattr(analytic, "winding_residual_23", lambda el: (0, 1.0))
    code, out = run(capsys, "numeric-check", "--pq", "2,3", "--max-syllables", "4")
    assert code == 6
    assert json.loads(out.splitlines()[-1])["error"] == "NumericError"


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


def test_verify_command_and_determinism(capsys):
    code, d1 = run_json(capsys, "verify", "--pq", "3,4", "--count", "40")
    assert code == 0
    assert d1["ok"] and d1["checks"]["dual_pipeline"] == 40
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
