"""Tests of the benchmark itself, on tiny worlds.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from checks import sample_indices, single_split  # noqa: E402
from relfrec import embed, evaluation, ingest, predict  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "train-embed": {"n_users": 60, "n_items": 40, "ratings_per_user": 12},
    "holdout-dense": {"n_users": 60, "n_items": 40, "ratings_per_user": 12},
    "coldstart-sparse": {"n_users": 80, "n_items": 300, "ratings_per_user": 10},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny worlds, and run records written under tmp_path."""
    for name, world in TINY.items():
        monkeypatch.setitem(run.WORKLOADS[name], "world", world)
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


def run_command(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    code, result = run_command(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    record = json.loads((tiny / "results" / f"BENCH_{workload}_3_t{trace}.json").read_text())
    assert record["failed_ratio"] == 0
    assert set(record["inputs"]) >= {"ratings.dat", "features.csv"}
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        glue = record["traced"]["glue_s"]
        assert record["layer_self_sum_s"] + glue == pytest.approx(values["trace.run_s"], abs=1e-9)
        assert glue < 0.05 * values["trace.run_s"] + 0.01
    else:
        for name in ("setup_s", "run_s", "predictions_per_s", "peak_rss_mb", "clique_margin"):
            assert result["metrics"][name]["value"] > 0, name


def tiny_spec(tmp_path, workload, **extra):
    config = run.WORKLOADS[workload]
    work_dir = tmp_path / "work"
    work_dir.mkdir()
    spec = {k: v for k, v in config.items() if k not in ("world", "vectors")}
    spec.update(workload=workload, seed=3, work_dir=str(work_dir), train=run.TRAIN, quality=True,
                trace_pass=False, inputs=run.generate_inputs(workload, 3, work_dir, TINY[workload]))
    spec.update(extra)
    return spec


def test_perturbed_prediction_counts_as_failure(tmp_path, monkeypatch):
    spec = tiny_spec(tmp_path, "holdout-dense")
    ratings = ingest.clean_and_join(ingest.parse_ratings(spec["inputs"]["ratings"]),
                                    ingest.parse_item_features(spec["inputs"]["features"])).ratings
    plan = evaluation.make_split(ratings, spec["split"], spec["seed"])
    user, item = ratings.records[int(sample_indices(plan, spec["seed"])[0])][:2]
    assert int(sample_indices(plan, spec["seed"])[0]) in set(single_split(plan)[1])
    original = predict.predict_rating

    def perturbed(u, i, *args, **kwargs):
        pred = original(u, i, *args, **kwargs)
        if (u, i) == (user, item):
            return predict.Prediction(pred.value + 1e-9, pred.detail, pred.neighbors_used)
        return pred

    monkeypatch.setattr(predict, "predict_rating", perturbed)
    out = worker.run(spec)
    assert "quality" in out
    oracle_failures = [f for f in out["failures"] if f.startswith("check oracle")]
    assert any(f"u={user},i={item}" in f for f in oracle_failures)
    assert len(oracle_failures) == len(out["failures"]) >= 1


def test_unperturbed_run_has_no_failures(tmp_path):
    out = worker.run(tiny_spec(tmp_path, "coldstart-sparse"))
    assert out["failures"] == []
    assert out["attempted"] > 0


def test_missing_function_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(embed, "save_embeddings")
    spec = tiny_spec(tmp_path, "holdout-dense", quality=False, trace_pass=True, untraced_run_s=1.0,
                     spans=str(tmp_path / "spans.npz"))
    out = worker.run(spec)
    assert out["failures"] == []
    assert out["missing"] == ["embed.save_embeddings"]
    assert "embed.io_s" in out["absent"] and "embed.io_s" not in out["per_layer"]
    assert "simcore.rating_calls" in out["per_layer"]
