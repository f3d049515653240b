"""Command-line front end.

All machine output is JSON (text/csv renderings are derived from the same
dictionaries).  Error classes map to distinct exit codes:

    2  usage / bad flags        5  theorem precondition violated
    3  word or matrix syntax    6  numeric verification failure
    4  domain error             7  matrix not in the group
                                8  internal inconsistency
                                9  randomized verification failure

The analytic layer is imported only by the commands that use it: where no
bytecode is cached (PYTHONDONTWRITEBYTECODE=1), each import compiles the
module's source, and the other commands need not pay for that.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import random
import sys
from fractions import Fraction

from trirad import linking, symbols
from trirad.errors import DomainError, NumericError, ParseError, TriradError, VerificationError
from trirad.group import (
    Element,
    Matrix2,
    cocycle_W_el,
    get_params,
    is_cusp_word,
    matrix_to_word,
    w_from_signs,
)
from trirad.words import GroupWord, Syllable, parse_word, render_word

DEFAULT_SEED = 20240723


def _parse_pq(text):
    try:
        p_s, q_s = text.split(",")
        p, q = int(p_s), int(q_s)
    except ValueError:
        raise DomainError(f"--pq expects 'P,Q', got {text!r}")
    return get_params(p, q)


def _element(params, args) -> Element:
    if getattr(args, "matrix", None):
        if (params.p, params.q) != (2, 3):
            raise DomainError("--matrix input is supported for --pq 2,3 only")
        return parse_matrix_23(args.matrix, params)
    if getattr(args, "word", None):
        return Element(params, parse_word(args.word))
    raise DomainError("provide --word or (for 2,3) --matrix")


def parse_matrix_23(text, params) -> Element:
    try:
        row1, row2 = text.split(";")
        a, b = (int(x) for x in row1.split(","))
        c, d = (int(x) for x in row2.split(","))
    except ValueError:
        raise ParseError(f"--matrix expects 'a,b;c,d' with integers, got {text!r}")
    if a * d - b * c != 1:
        raise DomainError(f"matrix determinant is {a * d - b * c}, expected 1")
    f = params.field
    m = Matrix2(*(f.from_rational(v) for v in (a, b, c, d)))
    return Element(params, matrix_to_word(m, params), _normalized=True)


def _emit(args, payload, csv_rows=None):
    fmt = getattr(args, "format", "json") or "json"
    if fmt == "json":
        # json.dump makes a write per token; a write per 2^16 tokens costs less, and memory stays flat
        chunks = json.JSONEncoder(indent=2).iterencode(payload)
        while batch := "".join(itertools.islice(chunks, 1 << 16)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    elif fmt == "csv":
        if csv_rows is None:
            raise DomainError("csv output is available for the enumerate and stats commands only")
        out = csv.writer(sys.stdout)
        out.writerow(csv_rows[0])
        out.writerows(csv_rows[1:])
    else:  # text
        def render(obj, indent=""):
            for k, v in obj.items():
                if isinstance(v, dict):
                    print(f"{indent}{k}:")
                    render(v, indent + "  ")
                else:
                    print(f"{indent}{k}: {v}")

        render(payload)


def cmd_symbol(args):
    params = _parse_pq(args.pq)
    el = _element(params, args)
    rep = symbols.symbol_report(el)
    payload = {"pq": [params.p, params.q], "word": render_word(el.word)}
    payload.update(rep.to_dict())
    _emit(args, payload)
    return 0


def cmd_link(args):
    params = _parse_pq(args.pq)
    el = _element(params, args)
    rep = linking.linking_report(el, variant=args.variant, space=args.space)
    payload = {"pq": [params.p, params.q], "word": render_word(el.word), "space": args.space}
    payload.update(rep.to_dict())
    _emit(args, payload)
    return 0


def cmd_lift(args):
    params = _parse_pq(args.pq)
    el = _element(params, args)
    w = el.word
    # a prefix of a normal form is a normal form, so the partials are prefixes
    steps = []
    if w.sign < 0:
        steps.append({"factor": "-I", "level": 0, "partial": render_word(GroupWord(-1, ()))})
    level, prev = 0, w.sign
    for i, ((gen, e), s) in enumerate(zip(w.syllables, el.prefix_signs()), 1):
        # W(prefix, syllable power): the power's Asai sign is +1, as in symbols.psi
        step = w_from_signs(prev, 1, s)
        level += step
        prev = s
        partial = render_word(GroupWord(w.sign, w.syllables[:i]))
        steps.append({"factor": f"{gen}^{e}", "W": step, "level": level, "partial": partial})
    payload = {
        "pq": [params.p, params.q],
        "word": render_word(el.word),
        "level": level,
        "psi": symbols.psi(el),
        "steps": steps,
    }
    _emit(args, payload)
    return 0


def cmd_normal_form(args):
    params = _parse_pq(args.pq)
    el = _element(params, args)
    payload = {
        "pq": [params.p, params.q],
        "normal_form": render_word(el.word),
        "classification": el.classify(),
        "matrix_numeric": list(el.matrix.float_entries()),
    }
    _emit(args, payload)
    return 0


def cmd_code23(args):
    params = _parse_pq(args.pq)
    el = _element(params, args)
    coding = symbols.ghys_coding_23(el)
    payload = {
        "pq": [params.p, params.q],
        "word": render_word(el.word),
        "epsilons": list(coding.epsilons),
        "sum": coding.total,
        "Psi": symbols.rademacher_Psi(el),
    }
    _emit(args, payload)
    return 0


def cmd_enumerate(args):
    from trirad import analytic

    params = _parse_pq(args.pq)
    table = analytic.enumerate_classes(params, args.max_syllables)
    rows = table.to_rows()
    csv_rows = None
    if args.format == "csv":
        header = ["word", "trace_numeric", "psi", "Psi", "length"]
        csv_rows = [header] + [[r[h] for h in header] for r in rows]
    _emit(args, {"pq": [params.p, params.q], "count": len(rows), "classes": rows}, csv_rows)
    return 0


def cmd_stats(args):
    from trirad import analytic

    params = _parse_pq(args.pq)
    if not all(math.isfinite(v) for v in (args.a, args.b) if v is not None):
        raise DomainError("--a and --b must be finite; leave one out for an open bound")
    a = -math.inf if args.a is None else args.a
    b = math.inf if args.b is None else args.b
    if a > b:
        raise DomainError(f"--a {args.a} is above --b {args.b}")
    if args.max_trace is not None:
        table = analytic.enumerate_classes_by_trace(params, args.max_trace)
    else:
        table = analytic.enumerate_classes(params, 12 if args.max_syllables is None else args.max_syllables)
    st = analytic.distribution_stats(table, a, b)
    payload = {
        "pq": [params.p, params.q],
        "count": st.count,
        "a": args.a,
        "b": args.b,
        "fraction": st.fraction,
        "reference": st.reference,
        "ks_distance": st.ks_distance,
    }
    _emit(args, payload, [list(payload), list(payload.values())])
    return 0


def cmd_numeric_check(args):
    from trirad import analytic

    params = _parse_pq(args.pq)
    if (params.p, params.q) != (2, 3):
        raise DomainError("numeric-check runs at (p,q) = (2,3) only")
    if not 0.0 < args.tol < math.inf:  # also when the bound leaves no class to check
        raise DomainError("--tol must be finite and > 0")
    table = analytic.enumerate_classes(params, args.max_syllables)
    rows = []
    failures = 0
    for entry in table.entries:
        el = Element(params, entry.word, _normalized=True)
        if el.trace_sign() < 0:
            el = -el
        if el.asai() < 0:
            el = el.inverse()
        ci = analytic.cycle_integral_23(el, args.tol)
        winding, residual = analytic.winding_residual_23(el)
        ok = ci.residual < args.tol * 100 and winding == ci.psi and residual < 0.01
        failures += not ok
        rows.append(
            {
                "word": render_word(entry.word),
                "psi": ci.psi,
                "cycle_integral": ci.value,
                "cycle_residual": ci.residual,
                "winding": winding,
                "winding_residual": residual,
                "ok": ok,
            }
        )
    payload = {"pq": [2, 3], "classes": rows, "failures": failures}
    _emit(args, payload)
    if failures:
        raise NumericError(f"{failures} numeric checks failed")
    return 0


def _random_element(params, rng, max_syllables=6):
    gen = rng.choice("SU")
    sylls = []
    for _ in range(rng.randint(1, max_syllables)):
        order = params.p if gen == "S" else params.q
        sylls.append(Syllable(gen, rng.randint(1, order - 1)))
        gen = "U" if gen == "S" else "S"
    return Element(params, GroupWord(rng.choice((1, -1)), tuple(sylls)))


def _check(checks, name, holds, x, y):
    if not holds:
        raise VerificationError(f"{name} fails at x = {render_word(x.word)}, y = {render_word(y.word)}")
    checks[name] += 1


def cmd_verify(args):
    params = _parse_pq(args.pq)
    rng = random.Random(args.seed)
    if args.count < 1:
        raise DomainError(f"--count must be >= 1, got {args.count}")
    checks = {
        "dual_pipeline": 0,
        "coboundary": 0,
        "class_invariance": 0,
        "inversion": 0,
        "phi_coboundary": 0,
        "euler_integrality": 0,
        "word_formula": 0,
    }
    pq = params.p * params.q
    for _ in range(args.count):
        x = _random_element(params, rng)
        y = _random_element(params, rng)
        xy = x * y
        _check(checks, "dual_pipeline", symbols.psi(x) == symbols.psi_via_cocycle(x), x, y)
        lhs = symbols.psi(xy) - symbols.psi(x) - symbols.psi(y)
        _check(checks, "coboundary", lhs == 2 * pq * cocycle_W_el(x, y, xy), x, y)
        # Psi is read off the word; check it against psi: 2 Psi = 2 psi + pq asai (1 - trace sign)
        els = (x, x.conjugate(y), -x)
        twice = [2 * symbols.psi(e) + pq * e.asai() * (1 - e.trace_sign()) for e in els]
        holds = twice == [2 * symbols.rademacher_Psi(e) for e in els] == twice[:1] * 3
        _check(checks, "class_invariance", holds, x, y)
        # c = 0 exactly on the cusp words; there x = +-T^k, so d = a has the Asai sign
        d_neg = is_cusp_word(x.word.syllables, params.p, params.q) and x.asai() < 0
        expected = -symbols.psi(x) + (2 * pq if d_neg else 0)
        _check(checks, "inversion", symbols.psi(x.inverse()) == expected, x, y)
        s = symbols._c_sign(x) * symbols._c_sign(y) * symbols._c_sign(xy)
        lhs = symbols.dedekind_Phi(xy) - symbols.dedekind_Phi(x) - symbols.dedekind_Phi(y)
        _check(checks, "phi_coboundary", lhs == -Fraction(pq, 2) * s, x, y)
        symbols.euler_cocycle(x, y)  # raises InternalInconsistencyError unless integral
        checks["euler_integrality"] += 1
        if x.classify() in ("hyperbolic", "parabolic"):
            sylls = x.cyclic_reduce()[0].syllables
            i = sylls[0].gen == "U"  # rotate to start with S
            _check(checks, "word_formula", 2 * symbols.syllable_Psi(sylls[i:] + sylls[:i], params.p, params.q) == twice[0], x, y)
    payload = {"pq": [params.p, params.q], "seed": args.seed, "pairs": args.count, "checks": checks, "ok": True}
    _emit(args, payload)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="trirad", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, word=True, matrix=True):
        sp.add_argument("--pq", required=True, help="P,Q (coprime, 2 <= P < Q)")
        if word:
            sp.add_argument("--word", help="word expression, e.g. '- S^3 * U^-2 * S'; write --word=-I for a word starting with -")
        if matrix:
            sp.add_argument("--matrix", help="'a,b;c,d' integer matrix (2,3 only)")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")

    sp = sub.add_parser("symbol", help="Rademacher symbol report")
    common(sp)
    sp.set_defaults(fn=cmd_symbol)

    sp = sub.add_parser("link", help="linking numbers in the lens space / S^3")
    common(sp)
    sp.add_argument("--variant", choices=linking.VARIANTS, default="Psi_e")
    sp.add_argument("--space", choices=("lens", "s3"), default="s3")
    sp.set_defaults(fn=cmd_link)

    sp = sub.add_parser("lift", help="universal-cover level bookkeeping for a word")
    common(sp)
    sp.set_defaults(fn=cmd_lift)

    sp = sub.add_parser("normal-form", help="canonical word form")
    common(sp)
    sp.set_defaults(fn=cmd_normal_form)

    sp = sub.add_parser("code23", help="Lorenz/Ghys epsilon coding at (2,3)")
    common(sp)
    sp.set_defaults(fn=cmd_code23)

    sp = sub.add_parser("enumerate", help="primitive hyperbolic classes up to a syllable bound")
    common(sp, word=False, matrix=False)
    sp.add_argument("--max-syllables", type=int, default=6)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("stats", help="arctan distribution statistics")
    common(sp, word=False, matrix=False)
    bound = sp.add_mutually_exclusive_group()  # a default of 12 would let an explicit 12 pass with --max-trace
    bound.add_argument("--max-syllables", type=int, help="syllable bound of the population (default 12)")
    bound.add_argument("--max-trace", type=int, help="use the trace-complete (2,3) population instead")
    sp.add_argument("--a", type=float)
    sp.add_argument("--b", type=float)
    sp.set_defaults(fn=cmd_stats)

    sp = sub.add_parser("numeric-check", help="cycle-integral and winding checks at (2,3)")
    common(sp, word=False, matrix=False)
    sp.add_argument("--max-syllables", type=int, default=6)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.set_defaults(fn=cmd_numeric_check)

    sp = sub.add_parser("verify", help="randomized invariant suites")
    common(sp, word=False, matrix=False)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--count", type=int, default=500)
    sp.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except TriradError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stdout)
        sys.stdout.write("\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
