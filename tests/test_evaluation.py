"""Offline evaluation: metrics, split plans, evaluate, sweeps, results."""

import io
import json

import numpy as np
import pytest

from relfrec.evaluation import (
    KIND_COLD_START,
    KIND_HOLDOUT,
    KIND_KFOLD,
    RESULTS_HEADER,
    MetricReport,
    SplitPlan,
    evaluate,
    mae,
    make_split,
    parse_split_kind,
    results_rows,
    rmse,
    sweep_k,
    write_manifest,
    write_results_csv,
)
from relfrec import predict, simcore
from relfrec.ingest import RatingDataset
from relfrec.predict import PredictionConfig, predict_batch
from relfrec.simcore import ItemVectorIndex, make_provider


def dataset(rows):
    return RatingDataset(records=[(u, i, float(r), 0) for u, i, r in rows])


def random_world(seed, n_users=12, n_items=8, density=0.7):
    rng = np.random.default_rng(seed)
    rows = [
        (u + 1, i + 1, float(rng.integers(1, 6)))
        for u in range(n_users)
        for i in range(n_items)
        if rng.random() < density
    ]
    return dataset(rows)


def full_coverage_index(item_ids, seed=9):
    rng = np.random.default_rng(seed)
    vectors = {i: rng.uniform(0.1, 1.0, 4) for i in item_ids}
    return ItemVectorIndex(vectors=vectors, coverage={i: 3 for i in item_ids}, dim=4)


class TestMetrics:
    PAIRS = [(3.5, 3.0), (4.5, 3.0), (2.0, 3.0)]  # residuals 0.5, 1.5, -1

    def test_rmse_hand_value(self):
        assert rmse(self.PAIRS) == pytest.approx(1.0801234497346435, abs=1e-12)

    def test_mae_hand_value(self):
        assert mae(self.PAIRS) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_predictions(self):
        pairs = [(4.0, 4.0), (2.5, 2.5)]
        assert rmse(pairs) == 0.0
        assert mae(pairs) == 0.0

    def test_single_residual(self):
        assert rmse([(5.0, 3.0)]) == pytest.approx(2.0, abs=1e-12)
        assert mae([(5.0, 3.0)]) == pytest.approx(2.0, abs=1e-12)

    def test_empty_fatal(self):
        with pytest.raises(ValueError):
            rmse([])
        with pytest.raises(ValueError):
            mae([])

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            pred = rng.uniform(1, 5, n)
            act = rng.uniform(1, 5, n)
            pairs = list(zip(pred, act))
            assert rmse(pairs) == pytest.approx(
                float(np.sqrt(np.mean((pred - act) ** 2))), abs=1e-12
            )
            assert mae(pairs) == pytest.approx(float(np.mean(np.abs(pred - act))), abs=1e-12)

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            pairs = list(zip(rng.uniform(1, 5, n), rng.uniform(1, 5, n)))
            assert mae(pairs) <= rmse(pairs) + 1e-12


class TestParseSplitKind:
    def test_defaults(self):
        assert parse_split_kind("kfold") == (KIND_KFOLD, 5)
        assert parse_split_kind("holdout") == (KIND_HOLDOUT, 0.8)
        assert parse_split_kind("cold-start") == (KIND_COLD_START, 0.05)

    def test_explicit_parameters(self):
        assert parse_split_kind("kfold(3)") == (KIND_KFOLD, 3)
        assert parse_split_kind("holdout(0.9)") == (KIND_HOLDOUT, 0.9)
        assert parse_split_kind("cold-start(0.1)") == (KIND_COLD_START, 0.1)

    def test_name_normalization(self):
        assert parse_split_kind("cold_start(0.1)")[0] == KIND_COLD_START
        assert parse_split_kind("coldstart")[0] == KIND_COLD_START
        assert parse_split_kind(" KFOLD(4) ") == (KIND_KFOLD, 4)

    def test_bad_forms_fatal(self):
        for text in ("bogus", "kfold(x)", "kfold(3", "holdout()"):
            with pytest.raises(ValueError):
                parse_split_kind(text)


class TestMakeSplit:
    def test_kfold_partition_sizes(self):
        ds = random_world(1)
        plan = make_split(ds, "kfold(5)", seed=2)
        n = len(ds.records)
        counts = np.bincount(plan.assignment, minlength=5)
        assert counts.sum() == n
        assert counts.max() - counts.min() <= 1

    def test_kfold_folds_partition_the_records(self):
        ds = random_world(1)
        plan = make_split(ds, "kfold(4)", seed=2)
        seen = []
        for fold, train_idx, test_idx in plan.folds():
            assert np.intersect1d(train_idx, test_idx).size == 0
            assert len(train_idx) + len(test_idx) == len(ds.records)
            seen.extend(test_idx.tolist())
        assert sorted(seen) == list(range(len(ds.records)))

    def test_holdout_counts(self):
        ds = dataset([(1, i, 3) for i in range(1, 11)])  # 10 records
        plan = make_split(ds, "holdout(0.8)", seed=3)
        _, train_idx, test_idx = next(plan.folds())
        assert len(train_idx) == 8
        assert len(test_idx) == 2

    def test_cold_start_quarantines_whole_items(self):
        ds = random_world(5, n_users=15, n_items=10, density=0.8)
        plan = make_split(ds, "cold-start(0.2)", seed=4)
        test_items = {ds.records[i][1] for i in np.flatnonzero(plan.assignment == 1)}
        train_items = {ds.records[i][1] for i in np.flatnonzero(plan.assignment == 0)}
        assert len(test_items) == 2  # round(0.2 * 10)
        assert not (test_items & train_items)
        # every record of a chosen item is on the test side
        for idx, rec in enumerate(ds.records):
            if rec[1] in test_items:
                assert plan.assignment[idx] == 1

    def test_cold_start_minimum_one_item(self):
        ds = random_world(6, n_users=10, n_items=5, density=0.9)
        plan = make_split(ds, "cold-start(0.01)", seed=4)
        test_items = {ds.records[i][1] for i in np.flatnonzero(plan.assignment == 1)}
        assert len(test_items) == 1

    def test_deterministic_per_seed(self):
        ds = random_world(7)
        for kind in ("kfold(3)", "holdout(0.8)", "cold-start(0.2)"):
            a = make_split(ds, kind, seed=11)
            b = make_split(ds, kind, seed=11)
            c = make_split(ds, kind, seed=12)
            assert np.array_equal(a.assignment, b.assignment)
            assert not np.array_equal(a.assignment, c.assignment)

    def test_labels(self):
        ds = random_world(1)
        assert make_split(ds, "kfold(5)", 1).label == "kfold(5)"
        assert make_split(ds, "holdout(0.8)", 1).label == "holdout(0.8)"
        assert make_split(ds, "cold-start(0.05)", 1).label == "cold-start(0.05)"

    def test_bad_parameters_fatal(self):
        ds = dataset([(1, i, 3) for i in range(1, 6)])  # 5 records, 5 items
        with pytest.raises(ValueError):
            make_split(ds, "kfold(1)")
        with pytest.raises(ValueError):
            make_split(ds, "kfold(6)")  # more folds than records
        with pytest.raises(ValueError):
            make_split(ds, "holdout(0)")
        with pytest.raises(ValueError):
            make_split(ds, "holdout(1.0)")
        with pytest.raises(ValueError):
            make_split(ds, "cold-start(0.99)")  # would quarantine every item
        two = dataset([(1, 1, 3), (2, 1, 4)])
        with pytest.raises(ValueError):
            make_split(two, "cold-start(0.5)")  # only item would go cold


class TestEvaluate:
    def test_constant_ratings_score_zero_error(self):
        ds = dataset([(u, i, 4) for u in range(1, 7) for i in range(1, 6)])
        plan = make_split(ds, "kfold(3)", seed=1)
        report = evaluate("cf", plan, ds)
        assert report.rmse == 0.0
        assert report.mae == 0.0
        assert report.n_predictions == len(ds.records)

    def test_no_test_data_reaches_training_state(self):
        # Train ratings are uniformly 3.0; the two test ratings are 5.0.
        # Any leak of test data into means would pull predictions above
        # 3.0 and the error below 2.0 exactly.
        rows = [(u, i, 3.0, 0) for u in range(1, 5) for i in (10, 11, 12, 13)]
        rows += [(2, 14, 3.0, 0), (3, 14, 3.0, 0)]
        train_n = len(rows)
        rows += [(1, 14, 5.0, 0), (5, 10, 5.0, 0)]
        ds = RatingDataset(records=rows)
        assignment = np.array([0] * train_n + [1, 1], dtype=np.int64)
        plan = SplitPlan(KIND_HOLDOUT, 0.9, 0, assignment)
        report = evaluate("cf", plan, ds)
        assert report.rmse == 2.0
        assert report.mae == 2.0
        assert report.n_predictions == 2
        assert report.n_fallbacks == 1  # user 5 is unseen in training

    def test_cf_on_cold_items_always_falls_back(self):
        ds = random_world(8, n_users=20, n_items=12, density=0.6)
        plan = make_split(ds, "cold-start(0.25)", seed=2)
        report = evaluate("cf", plan, ds)
        assert report.n_fallbacks == report.n_predictions
        assert report.n_predictions == int((plan.assignment == 1).sum())

    def test_content_predictor_reaches_cold_items(self):
        ds = random_world(8, n_users=20, n_items=12, density=0.6)
        plan = make_split(ds, "cold-start(0.25)", seed=2)
        index = full_coverage_index(ds.per_item.keys())
        report = evaluate("cb", plan, ds, index=index)
        assert report.n_fallbacks < report.n_predictions

    def test_matches_manual_pipeline(self):
        ds = random_world(9)
        plan = make_split(ds, "holdout(0.8)", seed=3)
        report = evaluate("cf", plan, ds)
        _, train_idx, test_idx = next(plan.folds())
        train = ds.subset(train_idx)
        provider = make_provider("cf", ratings=train)
        test_records = sorted((ds.records[i] for i in test_idx), key=lambda r: (r[1], r[0]))
        preds = predict_batch([(r[0], r[1]) for r in test_records], train, provider)
        pairs = [(p.value, r[2]) for p, r in zip(preds, test_records)]
        assert report.rmse == rmse(pairs)
        assert report.mae == mae(pairs)
        assert report.n_fallbacks == sum(1 for p in preds if p.is_fallback)

    @pytest.mark.parametrize("kind", ["holdout(0.8)", "kfold(3)", "cold-start(0.25)"])
    def test_predicts_each_test_record_through_predict_rating(self, monkeypatch, kind):
        ds = random_world(11, n_users=16, n_items=10)
        plan = make_split(ds, kind, seed=6)
        index = full_coverage_index(ds.per_item.keys())
        calls = []
        original = predict.predict_rating

        def counted(user, item, *args, **kwargs):
            calls.append((user, item))
            return original(user, item, *args, **kwargs)

        monkeypatch.setattr(predict, "predict_rating", counted)
        report = evaluate("hybrid", plan, ds, index=index)
        test_pairs = [ds.records[i][:2] for _f, _train, test_idx in plan.folds() for i in test_idx]
        assert sorted(calls) == sorted(test_pairs)
        assert report.n_predictions == len(calls)

    def test_kfold_aggregate_is_unweighted_mean(self):
        ds = random_world(10)
        plan = make_split(ds, "kfold(4)", seed=5)
        report = evaluate("cf", plan, ds)
        assert report.per_fold is not None and len(report.per_fold) == 4
        assert report.rmse == sum(r.rmse for r in report.per_fold) / 4
        assert report.mae == sum(r.mae for r in report.per_fold) / 4
        assert report.n_predictions == sum(r.n_predictions for r in report.per_fold)
        assert report.n_fallbacks == sum(r.n_fallbacks for r in report.per_fold)

    def test_single_split_has_no_per_fold(self):
        ds = random_world(10)
        plan = make_split(ds, "holdout(0.8)", seed=5)
        assert evaluate("cf", plan, ds).per_fold is None

    def test_deterministic(self):
        ds = random_world(12)
        plan = make_split(ds, "holdout(0.8)", seed=7)
        index = full_coverage_index(ds.per_item.keys())
        for predictor in ("cf", "cb", "hybrid"):
            a = evaluate(predictor, plan, ds, index=index)
            b = evaluate(predictor, plan, ds, index=index)
            assert a == b

    def test_missing_index_fatal_for_content_routes(self):
        ds = random_world(12)
        plan = make_split(ds, "holdout(0.8)", seed=7)
        with pytest.raises(ValueError):
            evaluate("cb", plan, ds)
        with pytest.raises(ValueError):
            evaluate("hybrid", plan, ds)
        with pytest.raises(ValueError):
            evaluate("mystery", plan, ds)


class TestSweepK:
    def test_single_cell_equals_evaluate(self):
        ds = random_world(13)
        plan = make_split(ds, "holdout(0.8)", seed=8)
        cfg = PredictionConfig(k=35)
        table = sweep_k([5], ["cf"], plan, ds, config=cfg)
        assert len(table) == 1
        predictor, k, report = table[0]
        assert (predictor, k) == ("cf", 5)
        from dataclasses import replace

        assert report == evaluate("cf", plan, ds, config=replace(cfg, k=5))

    def test_grid_order_predictor_outer(self):
        ds = random_world(13)
        plan = make_split(ds, "holdout(0.8)", seed=8)
        index = full_coverage_index(ds.per_item.keys())
        table = sweep_k([2, 4], ["cf", "cb"], plan, ds, index=index)
        assert [(p, k) for p, k, _ in table] == [("cf", 2), ("cf", 4), ("cb", 2), ("cb", 4)]

    def test_cells_equal_per_cell_evaluate(self):
        ds = random_world(15, n_users=20, n_items=12)
        plan = make_split(ds, "kfold(3)", seed=4)
        index = full_coverage_index(ds.per_item.keys())
        cfg = PredictionConfig(min_neighbors=2)
        table = sweep_k((1, 3, 35), ("cf", "cb", "hybrid"), plan, ds, config=cfg, index=index)
        assert len(table) == 9
        for predictor, k, report in table:
            assert report == evaluate(predictor, plan, ds, config=PredictionConfig(k=k, min_neighbors=2), index=index)
            assert len(report.per_fold) == 3

    @pytest.mark.parametrize("kind", ["cold-start(0.25)", "kfold(3)"])
    def test_content_rows_computed_once_per_item_across_ks(self, monkeypatch, kind):
        ds = random_world(17, n_users=16, n_items=10)
        plan = make_split(ds, kind, seed=5)
        index = full_coverage_index(ds.per_item.keys())
        ks = (1, 3, 35)
        rows, predictions = [], []
        original_row = simcore._ContentRows.row
        original_predict = predict.predict_rating

        def counted_row(self, item, arrays):
            rows.append(item)
            return original_row(self, item, arrays)

        def counted_predict(user, item, *args, **kwargs):
            predictions.append((user, item))
            return original_predict(user, item, *args, **kwargs)

        monkeypatch.setattr(simcore._ContentRows, "row", counted_row)
        monkeypatch.setattr(predict, "predict_rating", counted_predict)
        table = sweep_k(ks, ["hybrid"], plan, ds, index=index)
        test_items = [sorted({ds.records[i][1] for i in test_idx}) for _f, _train, test_idx in plan.folds()]
        assert rows == [item for items in test_items for item in items]
        test_records = sum(len(test_idx) for _f, _train, test_idx in plan.folds())
        assert len(predictions) == len(ks) * test_records
        assert [report.n_predictions for _p, _k, report in table] == [test_records] * len(ks)

    def test_bad_ks_fatal(self):
        ds = random_world(13)
        plan = make_split(ds, "holdout(0.8)", seed=8)
        with pytest.raises(ValueError):
            sweep_k([], ["cf"], plan, ds)
        with pytest.raises(ValueError):
            sweep_k([3, 0], ["cf"], plan, ds)


class TestResultsOutput:
    def test_holdout_single_row(self):
        ds = random_world(14)
        plan = make_split(ds, "holdout(0.8)", seed=9)
        report = evaluate("cf", plan, ds)
        rows = results_rows("cf", plan, 35, report)
        assert len(rows) == 1
        row = rows[0]
        assert row[0] == "cf"
        assert row[1] == "holdout(0.8)"
        assert row[2] == "9"
        assert row[3] == "35"
        assert row[4] == "0"
        assert float(row[5]) == report.rmse  # repr round-trips exactly
        assert float(row[6]) == report.mae
        assert row[7] == str(report.n_predictions)

    def test_kfold_rows_include_mean(self):
        ds = random_world(14)
        plan = make_split(ds, "kfold(3)", seed=9)
        report = evaluate("cf", plan, ds)
        rows = results_rows("cf", plan, 10, report)
        assert len(rows) == 4
        assert [r[4] for r in rows] == ["0", "1", "2", "mean"]
        assert float(rows[-1][5]) == report.rmse

    def test_csv_header_and_shape(self):
        ds = random_world(14)
        plan = make_split(ds, "holdout(0.8)", seed=9)
        rows = results_rows("cf", plan, 35, evaluate("cf", plan, ds))
        sink = io.StringIO()
        write_results_csv(rows, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == ",".join(RESULTS_HEADER)
        assert len(lines) == 2
        assert lines[1].startswith("cf,holdout(0.8),9,35,0,")

    def test_manifest_round_trip(self):
        manifest = {"command": "evaluate", "k": 35, "split": "kfold(5)", "seed": 1}
        sink = io.StringIO()
        write_manifest(manifest, sink)
        text = sink.getvalue()
        assert text.endswith("\n")
        assert json.loads(text) == manifest
        # keys are emitted sorted so the bytes are stable
        assert text.index('"command"') < text.index('"k"') < text.index('"seed"')


class TestMetricReport:
    def test_as_dict(self):
        inner = MetricReport(rmse=1.0, mae=0.5, n_predictions=10, n_fallbacks=2)
        outer = MetricReport(rmse=1.0, mae=0.5, n_predictions=10, n_fallbacks=2, per_fold=(inner,))
        d = outer.as_dict()
        assert d["rmse"] == 1.0
        assert d["per_fold"][0]["n_fallbacks"] == 2
        assert "per_fold" not in inner.as_dict()
