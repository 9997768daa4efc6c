"""Span wrappers reach every binding, count work, and undo cleanly."""

import json

import tracing
from tensorchain import bounds, chaining, cli, empirical, kernels, processes, tensor


def test_summarize_self_time_and_nesting():
    spans = [
        ("cli.main", -1, 0.0, 10.0, 0),
        ("kernels.batch_spectral", 0, 1.0, 4.0, 5),
        ("kernels.batch_spectral", 1, 2.0, 3.0, 2),  # nested call of the same name
        ("chaining.FiniteMetricSpace", 0, 5.0, 6.0, 7),
    ]
    s = tracing.summarize(spans)
    assert s["cli.self_s"] == 10.0 - 3.0 - 1.0
    assert s["kernels.self_s"] == (3.0 - 1.0) + 1.0
    assert s["kernels.batch_spectral.s"] == 3.0  # the outer call only
    assert s["kernels.batch_spectral.calls"] == 2
    assert s["kernels.batch_spectral.count"] == 7
    values = tracing.layer_metrics(s)
    assert values["kernels.batch_spectral.matrices"] == 7
    assert values["chaining.FiniteMetricSpace.points"] == 7
    assert values["sensing.rip_exact.calls"] == 0


def test_every_declared_metric_is_produced():
    values = tracing.layer_metrics({})
    declared = {name for name, _ in tracing.metric_names()}
    assert declared - set(values) == {"cli.output.bytes", "trace.overhead_s"}


def test_install_traces_names_bound_in_other_modules(tmp_path):
    cfg = {"experiment": "empirical", "seed": 1, "samples": 50, "t_count": 6, "n": 3,
           "row_modes": [2]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    originals = (empirical.fit_constants, cli.sample_ensemble, tensor.random_hermitian,
                 chaining.FiniteMetricSpace.__init__, kernels.batch_spectral)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert empirical.fit_constants is bounds.fit_constants  # one wrapper, both names
        assert cli.sample_ensemble is processes.sample_ensemble
        main = tracer.wrap("cli.main", cli.main)
        assert main(["empirical", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    finally:
        tracer.uninstall()
    assert (empirical.fit_constants, cli.sample_ensemble, tensor.random_hermitian,
            chaining.FiniteMetricSpace.__init__, kernels.batch_spectral) == originals
    s = tracing.summarize(tracer.take())
    assert s["empirical.family_space.count"] == 6 * 5 // 2
    assert s["bounds.fit_constants.calls"] == 1
    assert s["chaining.FiniteMetricSpace.count"] == 6
    # one call per pair in family_space, one in sample_family_sups, plus the
    # per-space envelopes and the overall scale
    assert s["kernels.batch_spectral.calls"] == 15 + 1 + 3 + 1
    assert s["empirical.sample_family_sups.count"] == 50
    assert tracer.take() == []
