"""Self-tests of the benchmark, at tiny shapes so they run in seconds."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from layers import PATCHES, Tracer, traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A low sample rate keeps every channel shorter than M; the closed form of
# the 8-user point needs M=32 for the longest one.
TINY = {
    "mc_fig6": dict(M=16, N_t=2, nr_points=(4, 8), trials=1,
                    sample_rate=1.92e6),
    "chain_mse": dict(M=16, N_t=2, N_r=4, bursts=1, sample_rate=1.92e6),
    "theory_fig4": dict(M=32, channels=("PedA",), nr_points=(4,),
                        gammas=(0.0, 20.0), multiuser_nr=16,
                        sample_rate=1.92e6),
}
SEED = 7


def _tiny(name):
    return WORKLOADS[name](SEED, **TINY[name])


def _keys(prepared):
    return [key for step in prepared.steps for key in step.keys]


def _attributes():
    return {(module.__name__, attr): getattr(module, attr)
            for module, attr, _, _ in PATCHES}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_passes_gate(name):
    prepared = _tiny(name)
    rec = worker.measure(prepared)
    assert rec["errors"] == {}
    assert rec["wall_s"] > 0 and rec["cpu_s"] > 0
    assert gate.check(_keys(prepared), rec["outputs"], None,
                      prepared.ceiling_db()) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_keeps_outputs_and_restores_attributes(name):
    before = _attributes()
    plain = worker.measure(_tiny(name))
    traced_rec = worker.measure(_tiny(name), Tracer())
    assert traced_rec["outputs"] == plain["outputs"]      # bit-identical
    after = _attributes()
    assert all(after[k] is before[k] for k in before)


def test_attributes_restored_after_an_exception():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            assert all(getattr(module, attr) is not before[(module.__name__, attr)]
                       for module, attr, _, _ in PATCHES)
            raise RuntimeError("stop")
    after = _attributes()
    assert all(after[k] is before[k] for k in before)


def test_self_times_fit_in_traced_wall_and_cover_the_layers():
    produced = set()
    for name in WORKLOADS:
        tracer = Tracer()
        rec = worker.measure(_tiny(name), tracer)
        layers = tracer.summary()
        produced.update(layers)
        root = tracer.spans[0]
        wall = root[2] - root[1]
        assert wall <= rec["wall_s"]
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert 0 < self_total <= wall + 1e-9
        assert 0 < layers["trace.coverage"] <= 1
    missing = set(run.PER_LAYER) - produced - {"trace.overhead"}
    assert not missing


def test_counters_at_a_tiny_shape():
    tracer = Tracer()
    worker.measure(_tiny("mc_fig6"), tracer)
    layers = tracer.summary()
    points, trials, M, N_t = 2, 1, 16, 2
    assert layers["metrics.trials"] == points * trials
    assert layers["metrics.measure.calls"] == points * trials
    assert layers["stage1.single_tap.calls"] == points * trials
    # two two-stage schemes, each one stage-1 design of L_g = M bins
    assert layers["stage1.design_highrate.calls"] == 2 * points * trials
    assert layers["stage1.bins"] == 3 * M * points * trials
    assert layers["stage2.fits"] == 2 * N_t * (4 + 8) * trials


def test_ratio_moment_repeats():
    tracer = Tracer()
    worker.measure(_tiny("theory_fig4"), tracer)
    layers = tracer.summary()
    # two SNR points on one (channel, N_r) pair, each calling it from
    # error_stats and from noise_power with the same correlations: only the
    # first of the four calls is new
    assert layers["theory.ratio_moments.calls"] == 4
    assert layers["theory.ratio_moments.repeat_ratio"] == 0.75


def test_gate_catches_perturbed_and_reseeded_outputs():
    refs = gate.load_references()
    for name, table in refs.items():
        seed, reference = next(iter(table.items()))
        keys = list(reference)
        outputs = dict(reference)
        assert gate.check(keys, outputs, reference) == []
        reassociated = {k: v * (1 + 1e-12) for k, v in outputs.items()}
        assert gate.check(keys, reassociated, reference) == []
        for key in keys:
            bad = dict(reference)
            if key.startswith("mse/"):
                bad[key] *= 1 + 10 * gate.TOL_REL
            else:
                bad[key] += 10 * gate.TOL_DB
            assert gate.check(keys, outputs, bad) == [key]
        assert gate.check(keys, {}, reference) == keys
    for name in ("mc_fig6", "chain_mse"):
        assert gate.check(list(refs[name]["0"]), refs[name]["0"],
                          refs[name]["1"]) == list(refs[name]["0"])


def test_gate_plausibility_without_references():
    keys = ["sinr_db/a", "mse/b", "sir_bound_db/c"]
    assert gate.check(keys, {"sinr_db/a": 20.0, "mse/b": 0.01,
                             "sir_bound_db/c": 65.0}, None, 65.0) == []
    assert gate.check(keys, {"sinr_db/a": 70.0, "mse/b": 0.0,
                             "sir_bound_db/c": float("nan")}, None,
                      65.0) == keys


def test_references_cover_the_default_seed():
    refs = gate.load_references()
    assert gate.reference_for(refs, "theory_fig4", 3) is not None
    for name in ("mc_fig6", "chain_mse"):
        assert gate.reference_for(refs, name, 12345) is not None
        assert gate.reference_for(refs, name, 10 ** 9) is None


def test_summarize_medians_and_failures():
    def rec(wall, traced, failed=()):
        return {"wall_s": wall, "cpu_s": wall, "setup_s": 1.0,
                "peak_rss_mb": 100.0, "keys": ["a", "b"],
                "failed_keys": list(failed), "traced": traced,
                "layers": {"metrics.measure.self_s": wall / 2}}
    plain = run.summarize([rec(1.0, False), rec(3.0, False, ["a"]),
                           rec(2.0, False)], trace=0)
    assert plain["correct"] is False
    assert (plain["attempted"], plain["failed"]) == (6, 1)
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert plain["metrics"]["wall_s"] == {"value": 2.0, "unit": "s"}
    traced_res = run.summarize([rec(2.0, False), rec(2.5, True)], trace=1)
    assert set(traced_res["metrics"]) == set(run.PER_LAYER)
    assert traced_res["metrics"]["trace.overhead"]["value"] == 0.25
    assert traced_res["metrics"]["metrics.measure.self_s"]["value"] == 1.25
    assert traced_res["metrics"]["fbmc.afb.calls"]["value"] == 0


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(BENCH, "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == [os.path.basename(BENCH)]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(BENCH, "..", "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_fig6", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
