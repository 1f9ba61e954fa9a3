"""Offline evaluation: metrics, split plans, evaluate, sweeps, results."""

import io
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from relfrec.evaluation import (
    KIND_COLD_START,
    KIND_HOLDOUT,
    KIND_KFOLD,
    RESULTS_HEADER,
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
from relfrec import evaluation, predict, simcore
from relfrec.ingest import RatingDataset, parse_ratings
from relfrec.predict import DETAIL_FULL, DETAIL_GLOBAL_MEAN, DETAIL_ITEM_MEAN, PredictionConfig, predict_batch
from relfrec.simcore import HybridPolicy, make_provider

import oracles
import synthdata
from synthdata import dataset, random_world


def full_coverage_index(item_ids, seed=9):
    rng = np.random.default_rng(seed)
    vectors = {i: rng.uniform(0.1, 1.0, 4) for i in item_ids}
    return synthdata.item_index(vectors, dim=4, coverage=3)


def tie_world(seed=3):
    """Sparse integer ratings and an item index where equal similarities straddle small ks.

    Items 2 and 3 copy item 1's rating column and items 6-8 copy item 5's
    vector; a pair with one co-rater has a rating cosine of exactly 1.
    User 40 rates only item 1, so the fold that tests that record does
    not know the user. Item 20 has no vector.
    """
    rng = np.random.default_rng(seed)
    rows = [(u, i, int(rng.integers(1, 6))) for u in range(1, 25) for i in [1, *range(4, 21)] if rng.random() < 0.3]
    rows += [(u, j, r) for u, i, r in rows if i == 1 for j in (2, 3)] + [(40, 1, 4)]
    vectors = {i: rng.normal(0.3, 1.0, 4) for i in range(1, 20)}
    for j in (6, 7, 8):
        vectors[j] = vectors[5]
    return dataset(rows), synthdata.item_index(vectors, dim=4)


def sparse_world(seed=6):
    """Users who rate 2-4 of 100 items, and three who rate 20; items 10, 20, ... have no vector.

    A test item's light users read few cells of its row, so sweep_k
    computes that row at their columns only; a heavy user's test item
    reads enough of its row to keep it whole.
    """
    rng = np.random.default_rng(seed)
    items = np.arange(1, 101)
    rows = [(u, int(i), int(rng.integers(1, 6)))
            for u in range(1, 34) for i in rng.choice(items, 20 if u > 30 else rng.integers(2, 5), replace=False)]
    vectors = {i: rng.normal(0.3, 1.0, 4) for i in range(1, 101) if i % 10}
    return dataset(rows), synthdata.item_index(vectors, dim=4)


def spy_batches(monkeypatch):
    """Record sweep_k's predict_batch calls: (pairs, whether the target's row was narrowed).

    Whole and narrowed rows reach predict_batch in one holder, so whether a
    target is narrowed is read from the fold's _targets, which gives its reads."""
    calls, narrowed = [], {}
    targets = evaluation._targets

    def spied_targets(*args):
        found = targets(*args)
        narrowed.clear()
        narrowed.update((item, reads is not None) for item, _pairs, reads in found)
        return found

    def spied(pairs, ratings, rows, *args):
        calls.append((list(pairs), narrowed[pairs[0][1]]))
        return predict_batch(pairs, ratings, rows, *args)

    monkeypatch.setattr(evaluation, "_targets", spied_targets)
    monkeypatch.setattr(evaluation, "predict_batch", spied)
    return calls


def reference_sim(predictor, train, index, policy):
    """oracles.reference_similarity's value, or None, as oracles.knn_prediction's sim."""
    pair = oracles.reference_similarity(predictor, train, index, policy)
    return lambda i, j: getattr(pair(i, j), "value", None)


def tie_at(k, user, item, records, sim):
    """Whether the k-th and the next positive similarity of user's candidates for item are equal."""
    values = (sim(item, j) for u, j, *_ in records if u == user and j != item)
    ranked = sorted((v for v in values if v is not None and v > 0.0), reverse=True)
    return len(ranked) > k and ranked[k - 1] == ranked[k]


class TestMetrics:
    PREDICTED = np.array([3.5, 4.5, 2.0])
    ACTUAL = np.array([3.0, 3.0, 3.0])  # residuals 0.5, 1.5, -1

    def test_rmse_hand_value(self):
        assert rmse(self.PREDICTED, self.ACTUAL) == pytest.approx(1.0801234497346435, abs=1e-12)

    def test_mae_hand_value(self):
        assert mae(self.PREDICTED, self.ACTUAL) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_predictions(self):
        values = np.array([4.0, 2.5])
        assert rmse(values, values) == 0.0
        assert mae(values, values) == 0.0

    def test_single_residual(self):
        assert rmse(np.array([5.0]), np.array([3.0])) == pytest.approx(2.0, abs=1e-12)
        assert mae(np.array([5.0]), np.array([3.0])) == pytest.approx(2.0, abs=1e-12)

    def test_empty_fatal(self):
        with pytest.raises(ValueError):
            rmse(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            mae(np.array([]), np.array([]))

    @pytest.mark.parametrize("metric", [rmse, mae])
    def test_misaligned_or_2d_fatal(self, metric):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            metric(np.array([3.5, 4.5]), np.array([3.0]))
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            metric(np.array([[3.5, 3.0], [4.5, 3.0]]), np.array([[3.5, 3.0], [4.5, 3.0]]))

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            pred = rng.uniform(1, 5, n)
            act = rng.uniform(1, 5, n)
            assert rmse(pred, act) == pytest.approx(
                float(np.sqrt(np.mean((pred - act) ** 2))), abs=1e-12
            )
            assert mae(pred, act) == pytest.approx(float(np.mean(np.abs(pred - act))), abs=1e-12)

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            predicted, actual = rng.uniform(1, 5, n), rng.uniform(1, 5, n)
            assert mae(predicted, actual) <= rmse(predicted, actual) + 1e-12


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

    def test_kfold_count_must_be_an_integer(self):
        ds = dataset([(1, i, 3) for i in range(1, 6)])
        for count in (2.5, 2.0, "2", True, None):
            with pytest.raises(ValueError, match=f"kfold needs an integer fold count, got {count!r}"):
                make_split(ds, ("kfold", count))
        with pytest.raises(ValueError):
            make_split(ds, "kfold(2.5)")
        plan = make_split(ds, ("kfold", np.int64(2)), seed=3)
        assert plan.label == "kfold(2)" and plan.assignment.tolist() == make_split(ds, "kfold(2)", 3).assignment.tolist()


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
        index = full_coverage_index(dict.fromkeys(ds.item.tolist()))
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
        predicted = np.array([p.value for p in preds])
        actual = np.array([r[2] for r in test_records])
        assert report.rmse == rmse(predicted, actual)
        assert report.mae == mae(predicted, actual)
        assert report.n_fallbacks == sum(1 for p in preds if p.is_fallback)

    @pytest.mark.parametrize("kind", ["holdout(0.8)", "kfold(3)", "cold-start(0.25)"])
    def test_predicts_each_test_record_through_predict_rating(self, monkeypatch, kind):
        ds = random_world(11, n_users=16, n_items=10)
        plan = make_split(ds, kind, seed=6)
        index = full_coverage_index(dict.fromkeys(ds.item.tolist()))
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
        index = full_coverage_index(dict.fromkeys(ds.item.tolist()))
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
        assert report == evaluate("cf", plan, ds, config=replace(cfg, k=5))

    def test_grid_order_predictor_outer(self):
        ds = random_world(13)
        plan = make_split(ds, "holdout(0.8)", seed=8)
        index = full_coverage_index(dict.fromkeys(ds.item.tolist()))
        table = sweep_k([2, 4], ["cf", "cb"], plan, ds, index=index)
        assert [(p, k) for p, k, _ in table] == [("cf", 2), ("cf", 4), ("cb", 2), ("cb", 4)]

    def test_cells_equal_per_cell_evaluate(self):
        # Unsorted ks, with 500 larger than every neighborhood.
        ds = random_world(15, n_users=20, n_items=12)
        plan = make_split(ds, "kfold(3)", seed=4)
        index = full_coverage_index(dict.fromkeys(ds.item.tolist()))
        ks = (35, 1, 500, 3)
        table = sweep_k(ks, ("cf", "cb", "hybrid"), plan, ds, index=index)
        assert [(p, k) for p, k, _ in table] == [(p, k) for p in ("cf", "cb", "hybrid") for k in ks]
        for predictor, k, report in table:
            assert report == evaluate(predictor, plan, ds, config=PredictionConfig(k=k), index=index)
            assert len(report.per_fold) == 3

    @pytest.mark.parametrize("kind", ["cold-start(0.25)", "kfold(3)"])
    def test_content_rows_computed_once_per_item_across_ks(self, monkeypatch, kind):
        ds = random_world(17, n_users=16, n_items=10)
        plan = make_split(ds, kind, seed=5)
        index = full_coverage_index(dict.fromkeys(ds.item.tolist()))
        ks = (1, 3, 35)
        rows, predictions = [], []
        original_row = simcore._ContentRows.row
        original_predict = predict.predict_rating

        def counted_row(self, item, items):
            rows.append(item)
            return original_row(self, item, items)

        def counted_predict(user, item, *args, **kwargs):
            predictions.append((user, item))
            return original_predict(user, item, *args, **kwargs)

        monkeypatch.setattr(simcore._ContentRows, "row", counted_row)
        monkeypatch.setattr(predict, "predict_rating", counted_predict)
        table = sweep_k(ks, ["hybrid"], plan, ds, index=index)
        test_items = [sorted({ds.records[i][1] for i in test_idx}) for _f, _train, test_idx in plan.folds()]
        assert rows == [item for items in test_items for item in items]
        # One ranking per test record and fold serves every k.
        test_pairs = [ds.records[i][:2] for _f, _train, test_idx in plan.folds() for i in test_idx]
        assert sorted(predictions) == sorted(test_pairs)
        assert [report.n_predictions for _p, _k, report in table] == [len(test_pairs)] * len(ks)

    @pytest.mark.parametrize("kind", ["cold-start(0.25)", "kfold(3)"])
    def test_rating_rows_summed_once_per_item_across_ks(self, monkeypatch, kind):
        """In a sweep over cf, cb and hybrid, each rated test item's rating row
        is summed once per fold and each test item's content row computed once
        per fold: the predictors share them."""
        ds = random_world(17, n_users=16, n_items=10)
        plan = make_split(ds, kind, seed=5)
        index = full_coverage_index(dict.fromkeys(ds.item.tolist()))
        summed, contents = [], []
        pair_sums, content_row = simcore._pair_sums, simcore._ContentRows.row

        def counted(arrays, t, *args):
            summed.append(int(arrays.items[t]))
            return pair_sums(arrays, t, *args)

        def counted_content(self, item, *args):
            contents.append(item)
            return content_row(self, item, *args)

        monkeypatch.setattr(simcore, "_pair_sums", counted)
        monkeypatch.setattr(simcore._ContentRows, "row", counted_content)
        sweep_k((1, 3, 35), ["cf", "cb", "hybrid"], plan, ds, index=index)
        expected, expected_contents = [], []
        for _f, train_idx, test_idx in plan.folds():
            train = ds.subset(train_idx).arrays
            test = [ds.records[i][:2] for i in test_idx]
            assert test
            expected += sorted({i for _u, i in test if i in train.position})
            expected_contents += sorted({i for _u, i in test})
        assert summed == expected
        assert contents == expected_contents
        # Cold-start test items have no training ratings: no row is summed.
        assert (summed == []) == (kind == "cold-start(0.25)")

    @pytest.mark.parametrize("kind", ["holdout(0.8)", "kfold(3)", "cold-start(0.25)"])
    def test_builds_no_records_or_lookup_maps(self, monkeypatch, kind):
        """Splits, training sides and predictions read columns and arrays:
        neither the dataset nor a training side builds its record tuples."""
        records = random_world(19, n_users=16, n_items=10).records
        ds = parse_ratings(io.StringIO("".join(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in records)), fmt="dat")
        index = full_coverage_index(range(1, 11))
        subsets = []
        original = RatingDataset.subset

        def captured(self, indices):
            subsets.append(original(self, indices))
            return subsets[-1]

        monkeypatch.setattr(RatingDataset, "subset", captured)
        plan = make_split(ds, kind, seed=3)
        sweep_k([1, 35], ["cf", "cb", "hybrid"], plan, ds, index=index)
        assert len(subsets) == plan.n_folds
        for data in [ds, *subsets]:
            assert "records" not in vars(data)

    def test_cells_equal_the_per_record_oracle(self, monkeypatch):
        """Every cell's RMSE, MAE and fallbacks, fold by fold, against
        oracles.knn_prediction over the per-pair reference functions, at
        k 1, at k 2 where equal similarities straddle the cut, and past
        every neighbourhood; on the sparse world, over narrowed and
        whole rows."""
        sparse = sparse_world()
        policy, ks, predictors = HybridPolicy(), (1, 2, 500), ("cf", "cb", "hybrid")
        seen, calls = set(), spy_batches(monkeypatch)
        for (ds, index), kind in [(w, kind) for w in (tie_world(), sparse) for kind in ("kfold(3)", "cold-start(0.2)")]:
            plan = make_split(ds, kind, seed=3)
            want = {(p, k): [] for p in predictors for k in ks}
            for _f, train_idx, test_idx in plan.folds():
                train, records = ds.subset(train_idx), [ds.records[r] for r in train_idx]
                tests = [ds.records[r] for r in test_idx]
                users, items = {u for u, *_ in records}, {i for _u, i, *_ in records}
                seen.update("unknown user" for u, _i, _r, _t in tests if u not in users)
                seen.update("cold item" for _u, i, _r, _t in tests if i not in items)
                for predictor in predictors:
                    sim = reference_sim(predictor, train, index, policy)
                    seen.update(f"{predictor} tie" for u, i, _r, _t in tests if tie_at(2, u, i, records, sim))
                    for k in ks:
                        got = [oracles.knn_prediction(u, i, records, sim, k, ds.r_min, ds.r_max)
                               for u, i, _r, _t in tests]
                        errors = [value - r for (value, _d, _n), (_u, _i, r, _t) in zip(got, tests)]
                        want[predictor, k].append((
                            math.sqrt(sum(e * e for e in errors) / len(errors)),
                            sum(abs(e) for e in errors) / len(errors),
                            sum(detail != DETAIL_FULL for _v, detail, _n in got),
                        ))
                        seen.update(detail for _v, detail, _n in got)
            for predictor, k, report in sweep_k(ks, predictors, plan, ds, index=index, policy=policy):
                folds = want[predictor, k]
                for fold, (o_rmse, o_mae, o_fallbacks) in zip(report.per_fold or (report,), folds, strict=True):
                    assert abs(fold.rmse - o_rmse) <= 1e-12 and abs(fold.mae - o_mae) <= 1e-12, (kind, predictor, k)
                    assert fold.n_fallbacks == o_fallbacks, (kind, predictor, k)
                assert abs(report.rmse - sum(f[0] for f in folds) / len(folds)) <= 1e-12
                assert abs(report.mae - sum(f[1] for f in folds) / len(folds)) <= 1e-12
                assert report.n_fallbacks == sum(f[2] for f in folds)
            seen.update(("narrowed row" if narrowed else "whole row") for _p, narrowed in calls if ds is sparse[0])
            calls.clear()
        assert seen == {DETAIL_FULL, DETAIL_ITEM_MEAN, DETAIL_GLOBAL_MEAN, "unknown user", "cold item",
                        "cf tie", "cb tie", "hybrid tie", "narrowed row", "whole row"}

    def test_values_at_reads_only_the_ks_below_the_largest(self, monkeypatch):
        """The ranking's own k is read from Prediction.value: a one-k evaluate
        never calls values_at, and a sweep calls it once per record with the
        smaller ks alone; the cells and their results rows stay the same."""
        ds, index = sparse_world()
        plan = make_split(ds, "kfold(3)", seed=3)
        predictors, ks = ("cf", "cb", "hybrid"), [10, 35, 1, 5]
        calls, original = [], evaluation.values_at

        def counted(prediction, ks, ratings):
            calls.append(list(ks))
            return original(prediction, ks, ratings)

        monkeypatch.setattr(evaluation, "values_at", counted)
        per_cell = [(p, k, evaluate(p, plan, ds, config=PredictionConfig(k=k), index=index))
                    for p in predictors for k in ks]
        assert calls == []
        table = sweep_k(ks, predictors, plan, ds, index=index)
        assert calls == [[10, 1, 5]] * (len(predictors) * len(ds))
        assert table == per_cell

        def csv_text(cells):
            sink = io.StringIO()
            write_results_csv([row for p, k, rep in cells for row in results_rows(p, plan, k, rep)], sink)
            return sink.getvalue()

        assert csv_text(table) == csv_text(per_cell)

    def test_bad_ks_fatal(self):
        ds = random_world(13)
        plan = make_split(ds, "holdout(0.8)", seed=8)
        with pytest.raises(ValueError):
            sweep_k([], ["cf"], plan, ds)
        with pytest.raises(ValueError):
            sweep_k([3, 0], ["cf"], plan, ds)
        with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
            sweep_k([2.5], ["cf"], plan, ds)
        with pytest.raises(ValueError, match="k must be an integer, got '5'"):
            sweep_k([3, "5"], ["cf"], plan, ds)

    def test_predictors_from_a_generator(self):
        # The predictors are read once, so a generator gives the same cells as a list.
        ds = random_world(13)
        plan = make_split(ds, "kfold(3)", seed=8)
        index = full_coverage_index(range(1, 9))
        table = sweep_k([5], (p for p in ("cf", "hybrid")), plan, ds, index=index)
        assert table == sweep_k([5], ["cf", "hybrid"], plan, ds, index=index)
        assert [(p, k) for p, k, _ in table] == [("cf", 5), ("hybrid", 5)]

    def test_no_predictor_fatal(self):
        ds = random_world(13)
        plan = make_split(ds, "holdout(0.8)", seed=8)
        with pytest.raises(ValueError, match="at least one predictor"):
            sweep_k([5], [], plan, ds)

    def test_repeated_k_or_predictor_fatal(self):
        # A repeated cell would append each fold's report twice.
        ds = random_world(13)
        plan = make_split(ds, "kfold(3)", seed=8)
        with pytest.raises(ValueError, match="k 5 is given more than once"):
            sweep_k([5, 3, 5], ["cf"], plan, ds)
        with pytest.raises(ValueError, match="predictor 'cf' is given more than once"):
            sweep_k([5], ("cf", "cf"), plan, ds)

    def test_one_predict_batch_call_per_test_item(self, monkeypatch):
        """One predict_batch call per fold, test item and predictor, items
        ascending, each item's predictors in the order asked and each call's
        users ascending; a row computed at its test users' columns alone
        gives the cells of the whole row."""
        ds, index = sparse_world()
        plan = make_split(ds, "kfold(3)", seed=4)
        calls = spy_batches(monkeypatch)
        table = sweep_k([1, 5], ["cf", "hybrid"], plan, ds, index=index)
        want = []
        for _f, _train, test_idx in plan.folds():
            pairs = sorted((ds.records[r][1], ds.records[r][0]) for r in test_idx)
            for item in sorted({i for i, _u in pairs}):
                want += [[(u, i) for i, u in pairs if i == item]] * 2  # cf, then hybrid
        assert [pairs for pairs, _narrowed in calls] == want
        assert {narrowed for _pairs, narrowed in calls} == {False, True}
        calls.clear()
        monkeypatch.setattr(evaluation, "NARROW_RATIO", 0)
        assert sweep_k([1, 5], ["cf", "hybrid"], plan, ds, index=index) == table
        assert {narrowed for _pairs, narrowed in calls} == {False}

    def test_whole_rows_gather_no_item_vectors(self, monkeypatch):
        """A whole content row multiplies index.matrix in place; a narrowed row
        gathers and multiplies the vectors of its read columns alone. cb and
        hybrid share one product per target with a vector."""
        ds, index = sparse_world()
        plan = make_split(ds, "kfold(3)", seed=3)
        found, products = [], []
        targets, einsum = evaluation._targets, np.einsum

        def spied_targets(users, items, arrays):
            result = targets(users, items, arrays)
            found.extend((item, None if reads is None else arrays.items[reads]) for item, _pairs, reads in result)
            return result

        def spied_einsum(subscripts, matrix, vector):
            products.append(matrix)
            return einsum(subscripts, matrix, vector)

        monkeypatch.setattr(evaluation, "_targets", spied_targets)
        monkeypatch.setattr(np, "einsum", spied_einsum)
        sweep_k([5], ["cb", "hybrid"], plan, ds, index=index)
        want = [None if read is None else int(np.isin(read, index.ids).sum()) for item, read in found if item in index]
        assert [None if matrix is index.matrix else len(matrix) for matrix in products] == want
        assert None in want and any(want)

    @pytest.mark.parametrize("kind", ["kfold(3)", "cold-start(0.2)"])
    def test_shared_rows_give_each_predictor_its_own_sweep(self, monkeypatch, kind):
        """Every order and subset of the predictors gives each one the reports
        of its one-predictor sweep: hybrid asked before cf or cb changes
        neither's cells, over narrowed and whole rows."""
        ds, index = sparse_world()
        plan = make_split(ds, kind, seed=3)
        calls, ks = spy_batches(monkeypatch), (1, 5, 35)
        alone = {p: sweep_k(ks, [p], plan, ds, index=index) for p in ("cf", "cb", "hybrid")}
        for n in (2, 3):
            for predictors in itertools.permutations(("cf", "cb", "hybrid"), n):
                table = sweep_k(ks, predictors, plan, ds, index=index)
                assert table == [cell for p in predictors for cell in alone[p]], predictors
        assert {narrowed for _pairs, narrowed in calls} == {False, True}

    @pytest.mark.parametrize("kind", ["kfold(3)", "cold-start(0.2)"])
    def test_every_test_record_is_predicted_once_per_predictor(self, monkeypatch, kind):
        """The benchmark's sample check observes predict.predict_rating, so
        each test record goes through it once per predictor on either path."""
        ds, index = sparse_world()
        plan = make_split(ds, kind, seed=3)
        calls, predicted = spy_batches(monkeypatch), []
        original = predict.predict_rating

        def counted(user, item, *args, **kwargs):
            predicted.append((user, item))
            return original(user, item, *args, **kwargs)

        monkeypatch.setattr(predict, "predict_rating", counted)
        predictors = ("cf", "cb", "hybrid")
        sweep_k([1, 35], predictors, plan, ds, index=index)
        tests = [ds.records[r][:2] for _f, _train, test_idx in plan.folds() for r in test_idx]
        assert sorted(predicted) == sorted(tests * len(predictors))
        assert {narrowed for _pairs, narrowed in calls} == {False, True}


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
