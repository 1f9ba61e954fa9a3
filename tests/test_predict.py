"""Item-based k-NN prediction: formula, fallbacks, batching, ranking."""

import numpy as np
import pytest

from relfrec.ingest import RatingDataset
from relfrec.predict import (
    DETAIL_FULL,
    DETAIL_GLOBAL_MEAN,
    DETAIL_ITEM_MEAN,
    Prediction,
    PredictionConfig,
    predict_batch,
    predict_rating,
    recommend_top_n,
)
from relfrec.simcore import SimilarityValue, make_provider


def dataset(rows, r_min=1.0, r_max=5.0):
    return RatingDataset(records=[(u, i, float(r), 0) for u, i, r in rows], r_min=r_min, r_max=r_max)


class StubProvider:
    """Similarity fixed per unordered pair; everything else undefined."""

    source = "stub"

    def __init__(self, values):
        self.values = values

    def sim(self, i, j):
        key = (i, j) if i <= j else (j, i)
        v = self.values.get(key)
        if v is None:
            return None
        return SimilarityValue(value=v, support=1, source="stub")


def mean_anchored_oracle(user, item, matrix, k, r_min=1.0, r_max=5.0):
    """Dense-matrix reference for the weighted-deviation prediction.

    matrix[u, i] is the rating of user u for item i (users and items are
    row/column indices; every cell is filled).
    """
    n_users, n_items = matrix.shape
    means = matrix.mean(axis=0)
    sims = []
    for j in range(n_items):
        if j == item:
            continue
        a, b = matrix[:, item], matrix[:, j]
        s = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        if s > 0.0:
            sims.append((s, j))
    sims.sort(key=lambda t: (-t[0], t[1]))
    top = sims[:k]
    if not top:
        return min(max(means[item], r_min), r_max)
    num = sum(s * (matrix[user, j] - means[j]) for s, j in top)
    den = sum(s for s, _ in top)
    return min(max(means[item] + num / den, r_min), r_max)


class TestPredictionConfig:
    def test_defaults(self):
        cfg = PredictionConfig()
        assert (cfg.k, cfg.min_neighbors, cfg.clamp) == (35, 1, True)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionConfig(k=0)
        with pytest.raises(ValueError):
            PredictionConfig(min_neighbors=0)


class TestPredictRating:
    def hand_world(self):
        # item 100 mean 3.5, item 101 mean 4.0, item 102 mean 3.0;
        # user 1 rated 101 at 5 (dev +1) and 102 at 2 (dev -1)
        ds = dataset(
            [
                (5, 100, 3), (6, 100, 4),
                (1, 101, 5), (2, 101, 3),
                (1, 102, 2), (2, 102, 4),
            ]
        )
        provider = StubProvider({(100, 101): 0.8, (100, 102): 0.4})
        return ds, provider

    def test_weighted_deviation_hand_value(self):
        ds, provider = self.hand_world()
        pred = predict_rating(1, 100, ds, provider)
        # 3.5 + (0.8 * 1 + 0.4 * -1) / 1.2
        assert pred.value == pytest.approx(3.8333333333333335, abs=1e-12)
        assert pred.detail == DETAIL_FULL
        assert pred.neighbors_used == 2
        assert not pred.is_fallback

    def test_homogeneous_ratings_return_the_constant(self):
        ds = dataset([(u, i, 4) for u in (1, 2, 3) for i in (10, 11, 12)])
        provider = make_provider("cf", ratings=ds)
        pred = predict_rating(1, 10, ds, provider)
        assert pred.value == 4.0
        assert pred.detail == DETAIL_FULL

    def test_user_without_ratings_gets_global_mean(self):
        ds = dataset([(1, 10, 2), (1, 11, 5)])
        pred = predict_rating(99, 10, ds, StubProvider({}))
        assert pred.value == ds.global_mean
        assert pred.detail == DETAIL_GLOBAL_MEAN

    def test_no_candidates_falls_back_to_item_mean(self):
        ds = dataset([(1, 10, 2), (2, 11, 4), (3, 11, 5)])
        pred = predict_rating(1, 11, ds, StubProvider({}))  # sim undefined
        assert pred.value == pytest.approx(4.5)
        assert pred.detail == DETAIL_ITEM_MEAN
        assert pred.neighbors_used == 0

    def test_unrated_item_falls_back_to_global_mean(self):
        ds = dataset([(1, 10, 2), (2, 11, 4)])
        pred = predict_rating(1, 999, ds, StubProvider({}))
        assert pred.value == ds.global_mean
        assert pred.detail == DETAIL_GLOBAL_MEAN

    def test_min_neighbors_gate(self):
        ds, provider = self.hand_world()
        cfg = PredictionConfig(min_neighbors=3)
        pred = predict_rating(1, 100, ds, provider, cfg)
        assert pred.detail == DETAIL_ITEM_MEAN
        assert pred.value == pytest.approx(3.5)
        ok = predict_rating(1, 100, ds, provider, PredictionConfig(min_neighbors=2))
        assert ok.detail == DETAIL_FULL

    def test_non_positive_similarities_excluded(self):
        ds, _ = self.hand_world()
        pred = predict_rating(1, 100, ds, StubProvider({(100, 101): -0.9, (100, 102): 0.0}))
        assert pred.detail == DETAIL_ITEM_MEAN
        partial = predict_rating(1, 100, ds, StubProvider({(100, 101): -0.9, (100, 102): 0.4}))
        # only item 102 joins: 3.5 + 0.4 * -1 / 0.4
        assert partial.value == pytest.approx(2.5, abs=1e-12)
        assert partial.neighbors_used == 1

    def test_target_item_never_its_own_neighbor(self):
        ds = dataset([(1, 100, 5), (1, 101, 4), (2, 100, 3), (2, 101, 3), (5, 100, 1)])
        provider = StubProvider({(100, 100): 1.0, (100, 101): 0.5})
        pred = predict_rating(1, 100, ds, provider)
        assert pred.neighbors_used == 1  # item 101 only

    def test_k_truncates_by_similarity_then_id(self):
        ds = dataset(
            [
                (5, 100, 3), (6, 100, 4),
                (1, 101, 5), (2, 101, 3),    # mean 4, dev +1
                (1, 102, 2), (2, 102, 4),    # mean 3, dev -1
                (1, 103, 5), (2, 103, 1),    # mean 3, dev +2
            ]
        )
        provider = StubProvider({(100, 101): 0.5, (100, 102): 0.9, (100, 103): 0.5})
        pred = predict_rating(1, 100, ds, provider, PredictionConfig(k=2))
        # top-2: 102 (0.9) then 101 (0.5, lower id beats 103)
        expected = 3.5 + (0.9 * -1 + 0.5 * 1) / 1.4
        assert pred.value == pytest.approx(expected, abs=1e-12)
        assert pred.neighbors_used == 2

    def test_k_saturates_at_candidate_count(self):
        ds, provider = self.hand_world()
        small = predict_rating(1, 100, ds, provider, PredictionConfig(k=2))
        large = predict_rating(1, 100, ds, provider, PredictionConfig(k=500))
        assert small == large

    def test_clamping(self):
        ds = dataset(
            [
                (5, 100, 5), (6, 100, 5),     # anchor 5.0
                (1, 101, 5), (2, 101, 1),     # dev +2 pushes above scale
            ]
        )
        provider = StubProvider({(100, 101): 1.0})
        clamped = predict_rating(1, 100, ds, provider)
        assert clamped.value == 5.0
        raw = predict_rating(1, 100, ds, provider, PredictionConfig(clamp=False))
        assert raw.value == pytest.approx(7.0)

    def test_clamping_lower_bound(self):
        ds = dataset(
            [
                (5, 100, 1), (6, 100, 1),
                (1, 101, 1), (2, 101, 5),     # dev -2
            ]
        )
        pred = predict_rating(1, 100, ds, StubProvider({(100, 101): 1.0}))
        assert pred.value == 1.0

    def test_unrated_item_anchored_on_global_mean(self):
        # target has no training ratings but content-like sims exist:
        # stays a full prediction, anchored on the global mean
        ds = dataset([(1, 101, 5), (2, 101, 3)])  # global mean 4.0
        provider = StubProvider({(101, 200): 0.6})
        pred = predict_rating(1, 200, ds, provider)
        assert pred.detail == DETAIL_FULL
        assert pred.value == pytest.approx(ds.global_mean + (5 - 4.0), abs=1e-12)

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            matrix = rng.integers(1, 6, size=(6, 6)).astype(float)
            rows = [
                (u + 1, i + 1, matrix[u, i])
                for u in range(6)
                for i in range(6)
            ]
            ds = dataset(rows)
            provider = make_provider("cf", ratings=ds)
            k = int(rng.integers(1, 7))
            cfg = PredictionConfig(k=k)
            for u in range(6):
                for i in range(6):
                    got = predict_rating(u + 1, i + 1, ds, provider, cfg)
                    want = mean_anchored_oracle(u, i, matrix, k)
                    assert got.value == pytest.approx(want, abs=1e-12)


class TestPredictBatch:
    def world(self):
        rng = np.random.default_rng(37)
        rows = [
            (u + 1, i + 1, float(rng.integers(1, 6)))
            for u in range(12)
            for i in range(8)
            if rng.random() < 0.7
        ]
        ds = dataset(rows)
        return ds, make_provider("cf", ratings=ds)

    def test_empty(self):
        ds, provider = self.world()
        assert predict_batch([], ds, provider) == []

    def test_matches_individual_calls_in_order(self):
        ds, provider = self.world()
        pairs = [(u, i) for u in (1, 2, 3) for i in (1, 5, 99)]
        batch = predict_batch(pairs, ds, provider)
        singles = [predict_rating(u, i, ds, provider) for u, i in pairs]
        assert batch == singles


class TestRecommendTopN:
    def world(self):
        ds = dataset(
            [
                (1, 10, 5), (2, 10, 3),
                (2, 11, 4), (3, 11, 4),
                (2, 12, 2), (3, 12, 3),
                (3, 13, 5), (4, 13, 4),
            ]
        )
        return ds

    def test_excludes_rated_items_and_truncates(self):
        ds = self.world()
        provider = StubProvider({(10, 11): 0.9, (10, 12): 0.8, (10, 13): 0.7})
        ranked = recommend_top_n(1, ds, provider, n=2)
        ids = [item for item, _ in ranked]
        assert 10 not in ids
        assert len(ids) == 2

    def test_full_predictions_rank_above_fallbacks(self):
        ds = self.world()
        # only item 11 gets a defined similarity to user 1's item 10
        provider = StubProvider({(10, 11): 0.9})
        ranked = recommend_top_n(1, ds, provider, n=4)
        first_item, first_pred = ranked[0]
        assert first_item == 11
        assert first_pred.detail == DETAIL_FULL
        assert all(p.is_fallback for _, p in ranked[1:])

    def test_fallback_tier_ordered_by_value_then_id(self):
        ds = self.world()
        ranked = recommend_top_n(1, ds, StubProvider({}), n=3)
        # item means: 11 -> 4.0, 12 -> 2.5, 13 -> 4.5; all fallbacks
        assert [item for item, _ in ranked] == [13, 11, 12]

    def test_value_tie_broken_by_ascending_id(self):
        ds = dataset([(1, 10, 4), (2, 21, 3), (2, 22, 3)])
        ranked = recommend_top_n(1, ds, StubProvider({}), n=2)
        assert [item for item, _ in ranked] == [21, 22]

    def test_user_without_ratings_ranked_by_item_means(self):
        ds = self.world()
        ranked = recommend_top_n(42, ds, StubProvider({}), n=10)
        values = [p.value for _, p in ranked]
        assert values == sorted(values, reverse=True)
        assert all(p.is_fallback for _, p in ranked)
        assert [item for item, _ in ranked][:2] == [13, 10]  # means 4.5, 4.0

    def test_candidates_restriction(self):
        ds = self.world()
        ranked = recommend_top_n(1, ds, StubProvider({}), n=10, candidates=[12, 13])
        assert {item for item, _ in ranked} == {12, 13}

    def test_everything_rated_gives_empty(self):
        ds = dataset([(1, 10, 4), (1, 11, 3), (2, 10, 2)])
        assert recommend_top_n(1, ds, StubProvider({}), n=5) == []

    def test_bad_n_fatal(self):
        ds = self.world()
        with pytest.raises(ValueError):
            recommend_top_n(1, ds, StubProvider({}), n=0)


class TestPredictionValue:
    def test_fallback_flag(self):
        assert not Prediction(3.0, DETAIL_FULL, 4).is_fallback
        assert Prediction(3.0, DETAIL_ITEM_MEAN).is_fallback
        assert Prediction(3.0, DETAIL_GLOBAL_MEAN).is_fallback
