"""Span tracing of trirad's layers, hooked in from outside the package.

`Tracer.install` wraps the public functions listed in TARGETS.  A
`from ... import` copies a name into the importing module, so wrapping a
function where it is defined would miss the calls made through the copies:
install replaces every binding of the original object in every loaded trirad
module and in the classes defined there (`AlgebraicNumber.__rmul__` is such a
copy of `__mul__`).  `Tracer.restore` puts the originals back.

Each call becomes a span (id, parent id, name, start, end, aux) kept in one
flat array of doubles and written out at the end.  Counts come from the same
spans, so they are taken at the same boundaries as the times.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from array import array

# (span name, defining module, attribute path in that module)
TARGETS = (
    ("exactnum.mul", "trirad.exactnum", "AlgebraicNumber.__mul__"),
    ("exactnum.sign", "trirad.exactnum", "sign"),
    ("words.normal_form", "trirad.words", "normal_form"),
    ("words.cyclic_reduce", "trirad.words", "cyclic_reduce"),
    ("group.word_to_fmat", "trirad.group", "word_to_fmat"),
    ("group.word_to_matrix", "trirad.group", "word_to_matrix"),
    ("group.matrix_mul", "trirad.group", "Matrix2.__mul__"),
    ("group.classify", "trirad.group", "Element.classify"),
    ("group.matrix_to_word", "trirad.group", "matrix_to_word"),
    ("symbols.psi", "trirad.symbols", "psi"),
    ("symbols.psi_via_cocycle", "trirad.symbols", "psi_via_cocycle"),
    ("linking.linking_report", "trirad.linking", "linking_report"),
    ("analytic.enumerate_by_trace", "trirad.analytic", "enumerate_classes_by_trace"),
    ("analytic.distribution_stats", "trirad.analytic", "distribution_stats"),
    ("analytic.cycle_integral", "trirad.analytic", "cycle_integral_23"),
    ("analytic.winding", "trirad.analytic", "winding_residual_23"),
)

# every per-layer metric the traced run reports, in output order
LAYER_METRICS = (
    ("exactnum.mul_calls", "count"),
    ("exactnum.mul_s", "s"),
    ("exactnum.sign_calls", "count"),
    ("exactnum.sign_s", "s"),
    ("exactnum.sign_tier_zero", "count"),
    ("exactnum.sign_tier_rational", "count"),
    ("exactnum.sign_tier_float", "count"),
    ("exactnum.sign_tier_interval", "count"),
    ("exactnum.sign_interval_bits_max", "bits"),
    ("words.normal_form_calls", "count"),
    ("words.normal_form_s", "s"),
    ("words.cyclic_reduce_calls", "count"),
    ("words.cyclic_reduce_s", "s"),
    ("group.word_to_fmat_calls", "count"),
    ("group.word_to_fmat_s", "s"),
    ("group.word_to_matrix_calls", "count"),
    ("group.word_to_matrix_s", "s"),
    ("group.matrix_mul_calls", "count"),
    ("group.classify_calls", "count"),
    ("group.classify_s", "s"),
    ("group.matrix_to_word_calls", "count"),
    ("group.matrix_to_word_s", "s"),
    ("group.matrix_to_word_failed", "count"),
    ("symbols.psi_calls", "count"),
    ("symbols.psi_s", "s"),
    ("symbols.psi_via_cocycle_calls", "count"),
    ("symbols.psi_via_cocycle_s", "s"),
    ("symbols.psi_fallback_ratio", "ratio"),
    ("symbols.psi_fallback_base", "count"),
    ("symbols.cocycle_fallback_ratio", "ratio"),
    ("symbols.cocycle_fallback_base", "count"),
    ("linking.linking_report_calls", "count"),
    ("linking.linking_report_s", "s"),
    ("analytic.enumerate_by_trace_s", "s"),
    ("analytic.enumerate_by_trace_self_s", "s"),
    ("analytic.distribution_stats_s", "s"),
    ("analytic.cycle_integral_calls", "count"),
    ("analytic.cycle_integral_s", "s"),
    ("analytic.winding_calls", "count"),
    ("analytic.winding_s", "s"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.import_scipy_ms", "ms"),
    ("cli.command_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

COLUMNS = ("id", "parent", "name", "start", "end", "aux")
FAILED = -2.0  # aux of a span whose call raised
RATIONAL = -1.0  # aux of a sign span decided on the rational coefficient
_FALLBACK_WATCH = ("symbols.psi", "symbols.psi_via_cocycle")


def _resolve(modname, path):
    obj = sys.modules[modname]
    *owners, leaf = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return vars(obj)[leaf] if owners else getattr(obj, leaf)


def binding_sites(orig):
    """Every (namespace owner, name) in the loaded trirad modules bound to `orig`."""
    sites = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "trirad" or modname.startswith("trirad.")):
            continue
        owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == modname]
        for owner in owners:
            sites.extend((owner, k) for k, v in list(vars(owner).items()) if v is orig)
    return sites


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.spans = array("d")
        self.flagged = set()  # psi / psi_via_cocycle spans with an exactnum.sign below them
        self._seen_psi = {}  # id -> Element; holding the object keeps its id unique
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._local.stack = []
        self._replaced = []
        self._watch = {self.names.index(n) for n in _FALLBACK_WATCH}

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every binding of every target whose module is loaded."""
        for code, (name, modname, path) in enumerate(TARGETS):
            if modname not in sys.modules:
                continue
            orig = _resolve(modname, path)
            wrapper = self._wrap(code, name, orig)
            for owner, key in binding_sites(orig):
                setattr(owner, key, wrapper)
                self._replaced.append((owner, key, orig))

    def restore(self):
        for owner, key, orig in reversed(self._replaced):
            setattr(owner, key, orig)
        self._replaced.clear()

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:  # first span on a worker thread
            self._local.stack = []
            return self._local.stack

    def _wrap(self, code, name, fn):
        spans, ids, clock, stack_of = self.spans, self._ids, time.perf_counter, self._stack
        after = {
            "exactnum.sign": self._after_sign,
            "symbols.psi": self._after_psi,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1][0]
            else:  # a worker thread's outermost span belongs to the main thread's open span
                parent = self._main_stack[-1][0] if self._main_stack else 0
            sid = next(ids)
            stack.append((sid, code))
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.extend((sid, parent, code, t0, t1, FAILED))
                raise
            t1 = clock()
            stack.pop()
            aux = after(args, out, stack) if after else 0.0
            spans.extend((sid, parent, code, t0, t1, aux))
            return out

        return traced

    def _after_sign(self, args, cert, stack):
        for sid, code in stack:
            if code in self._watch:
                self.flagged.add(sid)
        bits = cert.precision_bits
        if bits == 64 and args[0].is_rational():
            return RATIONAL
        return float(bits)

    def _after_psi(self, args, out, stack):
        key = id(args[0])
        first = key not in self._seen_psi
        self._seen_psi[key] = args[0]
        return 1.0 if first else 0.0

    # -- results -------------------------------------------------------------

    def rows(self):
        s = self.spans
        for i in range(0, len(s), len(COLUMNS)):
            yield s[i], s[i + 1], int(s[i + 2]), s[i + 3], s[i + 4], s[i + 5]

    def layer_metrics(self):
        """The in-process LAYER_METRICS, computed from the recorded spans."""
        code = {name: i for i, name in enumerate(self.names)}
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        tiers = {"zero": 0, "rational": 0, "float": 0, "interval": 0}
        bits_max = 0
        m2w_failed = psi_base = psi_fallback = cocycle_fallback = 0
        enum_ids = set()
        for sid, _, c, t0, t1, aux in self.rows():
            calls[c] += 1
            busy[c] += t1 - t0
            if c == code["exactnum.sign"] and aux != FAILED:
                if aux == 0:
                    tiers["zero"] += 1
                elif aux == RATIONAL:
                    tiers["rational"] += 1
                elif aux == 53:
                    tiers["float"] += 1
                else:
                    tiers["interval"] += 1
                    bits_max = max(bits_max, int(aux))
            elif c == code["group.matrix_to_word"] and aux == FAILED:
                m2w_failed += 1
            elif c == code["symbols.psi"] and aux == 1:
                psi_base += 1
                psi_fallback += sid in self.flagged
            elif c == code["symbols.psi_via_cocycle"]:
                cocycle_fallback += sid in self.flagged
            elif c == code["analytic.enumerate_by_trace"]:
                enum_ids.add(sid)
        cocycle_base = calls[code["symbols.psi_via_cocycle"]]

        def n(name):
            return calls[code[name]]

        def t(name):
            return busy[code[name]]

        return {
            "exactnum.mul_calls": n("exactnum.mul"),
            "exactnum.mul_s": t("exactnum.mul"),
            "exactnum.sign_calls": n("exactnum.sign"),
            "exactnum.sign_s": t("exactnum.sign"),
            "exactnum.sign_tier_zero": tiers["zero"],
            "exactnum.sign_tier_rational": tiers["rational"],
            "exactnum.sign_tier_float": tiers["float"],
            "exactnum.sign_tier_interval": tiers["interval"],
            "exactnum.sign_interval_bits_max": bits_max,
            "words.normal_form_calls": n("words.normal_form"),
            "words.normal_form_s": t("words.normal_form"),
            "words.cyclic_reduce_calls": n("words.cyclic_reduce"),
            "words.cyclic_reduce_s": t("words.cyclic_reduce"),
            "group.word_to_fmat_calls": n("group.word_to_fmat"),
            "group.word_to_fmat_s": t("group.word_to_fmat"),
            "group.word_to_matrix_calls": n("group.word_to_matrix"),
            "group.word_to_matrix_s": t("group.word_to_matrix"),
            "group.matrix_mul_calls": n("group.matrix_mul"),
            "group.classify_calls": n("group.classify"),
            "group.classify_s": t("group.classify"),
            "group.matrix_to_word_calls": n("group.matrix_to_word"),
            "group.matrix_to_word_s": t("group.matrix_to_word"),
            "group.matrix_to_word_failed": m2w_failed,
            "symbols.psi_calls": n("symbols.psi"),
            "symbols.psi_s": t("symbols.psi"),
            "symbols.psi_via_cocycle_calls": cocycle_base,
            "symbols.psi_via_cocycle_s": t("symbols.psi_via_cocycle"),
            "symbols.psi_fallback_ratio": psi_fallback / psi_base if psi_base else 0.0,
            "symbols.psi_fallback_base": psi_base,
            "symbols.cocycle_fallback_ratio": cocycle_fallback / cocycle_base if cocycle_base else 0.0,
            "symbols.cocycle_fallback_base": cocycle_base,
            "linking.linking_report_calls": n("linking.linking_report"),
            "linking.linking_report_s": t("linking.linking_report"),
            "analytic.enumerate_by_trace_s": t("analytic.enumerate_by_trace"),
            "analytic.enumerate_by_trace_self_s": self.self_time(enum_ids),
            "analytic.distribution_stats_s": t("analytic.distribution_stats"),
            "analytic.cycle_integral_calls": n("analytic.cycle_integral"),
            "analytic.cycle_integral_s": t("analytic.cycle_integral"),
            "analytic.winding_calls": n("analytic.winding"),
            "analytic.winding_s": t("analytic.winding"),
        }

    def self_time(self, ids):
        """Total time of the spans `ids` minus the part their child spans cover."""
        own = {}
        children = {sid: [] for sid in ids}
        for sid, parent, _, t0, t1, _ in self.rows():
            if sid in children:
                own[sid] = t1 - t0
            if parent in children:
                children[parent].append((t0, t1))
        total = 0.0
        for sid, dur in own.items():
            covered = 0.0
            end = float("-inf")
            # children on the library's worker threads may overlap: cover their union
            for t0, t1 in sorted(children[sid]):
                if t1 > end:
                    covered += t1 - max(t0, end)
                    end = t1
            total += dur - covered
        return total

    def write(self, path):
        """Write the spans to `path`.f64 (raw doubles) with a JSON header beside it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".f64"), "wb") as fh:
            self.spans.tofile(fh)
        header = {"columns": COLUMNS, "names": self.names, "spans": len(self.spans) // len(COLUMNS),
                  "aux": {"exactnum.sign": "precision bits; -1 rational", "symbols.psi": "1 on the first call per Element",
                          "any": "-2 when the call raised"}}
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
