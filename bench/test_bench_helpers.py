"""Self-tests of the benchmark's helpers: tail choice, speed scaling, import-time parsing, tracing."""

import json

import measure
import run
import tracing
from trirad import exactnum, group, symbols
from trirad.group import Element, get_params
from trirad.words import parse_word


def test_tail_is_the_mean_of_the_slowest_percent_and_at_least_ten():
    assert measure.tail(list(range(1, 10001))) == (sum(range(9901, 10001)) / 100, 100)
    assert measure.tail(list(range(1, 201))) == (sum(range(191, 201)) / 10, 10)
    assert measure.tail([3.0, 1.0, 2.0]) == (2.0, 3)


class _FakeWorkload:
    """Rounds of two ops that report a CPU time of 1 s each."""

    def __init__(self):
        self.checked = []

    def inputs(self, round_idx):
        return [round_idx, round_idx]

    def run_round(self, inputs):
        return [0.5, 0.5], list(inputs), 1.0

    def check(self, inputs, results):
        self.checked.append(inputs[0])
        return [None, None]

    def digest(self, results):
        return repr(results)


def test_timed_phase_runs_a_fixed_round_count():
    wl = _FakeWorkload()
    rounds, rss_mb = run.timed_phase(wl, 3)
    assert [r.cpu for r in rounds] == [1.0, 1.0, 1.0]
    assert wl.checked == [0, 1, 2] and rss_mb > 0


def test_end_to_end_scales_op_times_by_the_speed_factor():
    rounds = [run.Round([0.001, 0.003], 0.004, [None, None], ""), run.Round([0.002, 0.002], 0.004, [None, None], "")]
    plain = run.end_to_end(rounds, [0.1, 0.3, 0.2], 30.0, 1.0)
    assert plain["setup_s"][0] == 0.2 and plain["round_s"][0] == 0.004
    assert abs(plain["op_p50_ms"][0] - 2.0) < 1e-12
    scaled = run.end_to_end(rounds, [0.1, 0.3, 0.2], 30.0, 0.5)
    for name, (value, unit) in scaled.items():
        # set-up times arrive scaled by their own children's probes
        assert value == plain[name][0] * (0.5 if name != "setup_s" and unit in ("s", "ms") else 1.0)


def test_speed_factor_is_the_reference_time_over_the_mean_probe(monkeypatch):
    monkeypatch.setattr(measure, "PROBES", [])
    measure.probe(3)
    assert len(measure.PROBES) == 3 and all(t > 0 for t in measure.PROBES)
    monkeypatch.setattr(measure, "PROBES", [0.01, 0.03, 0.02])
    assert measure.speed_factor() == measure.REF_SECONDS / 0.02
    monkeypatch.setattr(measure, "PROBES", [0.01, 0.01, 0.04])
    assert measure.speed_factor() == measure.REF_SECONDS / 0.02  # the mean, not the median
    monkeypatch.setattr(measure, "IMPORT_PROBES", [])
    cpu = measure.import_probe()
    assert cpu > 0 and measure.import_speed_factor() == measure.IMPORT_REF_SECONDS / cpu


def test_word_lengths_step_through_each_stratum():
    import words_long

    for lo, hi in words_long.LENGTH_STRATA + words_long.INTERVAL_STRATA:
        lengths = [words_long.stratum_length(lo, hi, i) for i in range(8)]
        assert all(lo <= n <= hi for n in lengths) and len(set(lengths)) == 8
        assert max(lengths) - min(lengths) > (hi - lo) * 0.7


def test_import_seconds_counts_outermost_imports_only():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       200 |        200 |     scipy._lib",
        "import time:       300 |        500 |   scipy",
        "import time:       400 |        400 |   scipy.integrate",
        "import time:      1000 |       2000 | trirad.analytic",
        "import time:        50 |         50 | json",
    ])
    entries = measure.parse_importtime(text)
    assert entries[1] == ("scipy._lib", 200e-6, 2)
    total, scipy = measure.import_seconds(entries, {"site"})
    assert abs(total - 2050e-6) < 1e-12
    assert abs(scipy - 900e-6) < 1e-12


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    import trirad.linking  # noqa: F401  (load the modules whose copies must be wrapped)

    originals = [exactnum.sign, exactnum.AlgebraicNumber.__mul__, symbols.psi, group.normal_form]
    sites_before = {id(o): len(tracing.binding_sites(o)) for o in originals}
    assert sites_before[id(exactnum.sign)] >= 3  # exactnum, group, symbols
    assert sites_before[id(exactnum.AlgebraicNumber.__mul__)] == 2  # __mul__ and __rmul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for o in originals:
            assert tracing.binding_sites(o) == []
        assert group.sign is symbols.sign is exactnum.sign
        assert exactnum.AlgebraicNumber.__rmul__ is exactnum.AlgebraicNumber.__mul__
    finally:
        tracer.restore()
    for o in originals:
        assert len(tracing.binding_sites(o)) == sites_before[id(o)]
    assert exactnum.sign.__module__ == "trirad.exactnum" and not hasattr(exactnum.sign, "__wrapped__")


def test_traced_spans_nest_and_count_fallbacks():
    P = get_params(2, 3)
    # U * S has c = 0 as a prefix product, which sends the float pipeline to exact arithmetic
    el = Element(P, parse_word("U * S * U"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        symbols.psi(el)
        symbols.psi(el)  # cache hit: not in the fallback base
        symbols.psi_via_cocycle(el)
    finally:
        tracer.restore()
    m = tracer.layer_metrics()
    assert m["symbols.psi_calls"] == 2
    assert (m["symbols.psi_fallback_ratio"], m["symbols.psi_fallback_base"]) == (1.0, 1)
    assert (m["symbols.cocycle_fallback_ratio"], m["symbols.cocycle_fallback_base"]) == (0.0, 1)
    assert (m["exactnum.sign_calls"], m["exactnum.sign_tier_zero"], m["exactnum.sign_tier_rational"]) == (4, 1, 3)
    names = tracer.names
    spans = list(tracer.rows())
    by_id = {sid: (names[code], parent) for sid, parent, code, *_ in spans}
    for sid, parent, code, *_ in spans:
        if names[code] == "exactnum.sign":
            chain = []
            while parent:
                name, parent = by_id[parent]
                chain.append(name)
            assert chain[-1] == "symbols.psi"


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()
    # parent 1 spans [0, 10]; children overlap on [2, 6] and [4, 8]
    tracer.spans.extend((1, 0, 0, 0.0, 10.0, 0.0))
    tracer.spans.extend((2, 1, 1, 2.0, 6.0, 0.0))
    tracer.spans.extend((3, 1, 1, 4.0, 8.0, 0.0))
    assert tracer.self_time({1}) == 4.0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((measure.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    rounds = [run.Round([0.001, 0.002], 0.003, [None, None], "")]
    printed = run.end_to_end(rounds, [0.1], 30.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in printed.items()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
