"""Item-based k-NN prediction: formula, fallbacks, batching, prefix reads."""

from dataclasses import fields, replace

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
    values_at,
)
from relfrec.simcore import make_provider, relf_sim

import oracles
import synthdata
from synthdata import dataset, random_world, stub_provider


class TestPredictionConfig:
    def test_defaults(self):
        assert PredictionConfig().k == 35

    def test_neighborhood_size_is_the_only_field(self):
        assert [f.name for f in fields(PredictionConfig)] == ["k"]

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionConfig(k=0)
        for value in (2.5, 1.5, 5.0, "5", True, None):
            with pytest.raises(ValueError, match=f"k must be an integer, got {value!r}"):
                PredictionConfig(k=value)

    def test_numpy_integers_accepted(self):
        assert PredictionConfig(k=np.int64(7)).k == 7
        assert PredictionConfig(k=np.int32(2)).k == 2


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
        provider = stub_provider({(100, 101): 0.8, (100, 102): 0.4})
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
        pred = predict_rating(99, 10, ds, stub_provider({}))
        assert pred.value == ds.global_mean
        assert pred.detail == DETAIL_GLOBAL_MEAN

    def test_no_candidates_falls_back_to_item_mean(self):
        ds = dataset([(1, 10, 2), (2, 11, 4), (3, 11, 5)])
        pred = predict_rating(1, 11, ds, stub_provider({}))  # sim undefined
        assert pred.value == pytest.approx(4.5)
        assert pred.detail == DETAIL_ITEM_MEAN
        assert pred.neighbors_used == 0

    def test_unrated_item_falls_back_to_global_mean(self):
        ds = dataset([(1, 10, 2), (2, 11, 4)])
        pred = predict_rating(1, 999, ds, stub_provider({}))
        assert pred.value == ds.global_mean
        assert pred.detail == DETAIL_GLOBAL_MEAN

    def test_non_positive_similarities_excluded(self):
        ds, _ = self.hand_world()
        pred = predict_rating(1, 100, ds, stub_provider({(100, 101): -0.9, (100, 102): 0.0}))
        assert pred.detail == DETAIL_ITEM_MEAN
        partial = predict_rating(1, 100, ds, stub_provider({(100, 101): -0.9, (100, 102): 0.4}))
        # only item 102 joins: 3.5 + 0.4 * -1 / 0.4
        assert partial.value == pytest.approx(2.5, abs=1e-12)
        assert partial.neighbors_used == 1

    def test_target_item_never_its_own_neighbor(self):
        ds = dataset([(1, 100, 5), (1, 101, 4), (2, 100, 3), (2, 101, 3), (5, 100, 1)])
        provider = stub_provider({(100, 100): 1.0, (100, 101): 0.5})
        pred = predict_rating(1, 100, ds, provider)
        assert pred.neighbors_used == 1  # item 101 only
        for real in (make_provider("cf", ratings=ds), make_provider("cb", index=self.index_of([100, 101]))):
            assert predict_rating(1, 100, ds, real).neighbors_used == 1

    @staticmethod
    def index_of(items):
        rng = np.random.default_rng(5)
        vectors = {i: rng.uniform(0.1, 1.0, 3) for i in items}
        return synthdata.item_index(vectors, dim=3)

    def test_content_provider_from_index_alone(self):
        # README: make_provider("cb", index=...) predicts without ratings of its own.
        ds = dataset([(1, 10, 5), (1, 11, 2), (1, 12, 4), (2, 10, 3), (2, 11, 4), (3, 12, 1)])
        index = self.index_of([10, 11, 12, 13])
        provider = make_provider("cb", index=index)
        rated = {j for u, j, _r, _t in ds.records if u == 1}
        sim = lambda i, j: relf_sim(i, j, index).value  # noqa: E731
        for item in (10, 13):
            pred = predict_rating(1, item, ds, provider)
            want, detail, used = oracles.knn_prediction(1, item, ds.records, sim, PredictionConfig().k)
            assert pred.detail == detail == DETAIL_FULL
            assert pred.neighbors_used == used == len(rated - {item})
            assert pred.value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("integer_scale", [True, False])
    def test_value_is_a_plain_float_on_every_route(self, integer_scale):
        # An integer scale must not leak into the clamped value either.
        r_min, r_max = (1, 5) if integer_scale else (1.0, 5.0)
        ds = RatingDataset(records=[(1, 10, 5.0, 0), (1, 11, 2.0, 0), (2, 10, 1.0, 0), (2, 12, 4.0, 0)],
                           r_min=r_min, r_max=r_max)
        none = stub_provider({})
        routes = {
            # 4.0 + (5 - 3) = 6.0, clamped to the scale's 5
            DETAIL_FULL: predict_rating(1, 12, ds, stub_provider({(10, 12): 1.0})),
            DETAIL_ITEM_MEAN: predict_rating(2, 11, ds, none),
            DETAIL_GLOBAL_MEAN: predict_rating(99, 10, ds, none),
            "unrated item": predict_rating(1, 999, ds, none),
        }
        for route, pred in routes.items():
            assert type(pred.value) is float, route  # np.float64 would pass isinstance
        assert routes[DETAIL_FULL].value == 5.0
        assert routes[DETAIL_FULL].detail == DETAIL_FULL
        assert routes[DETAIL_ITEM_MEAN].detail == DETAIL_ITEM_MEAN
        assert routes[DETAIL_GLOBAL_MEAN].detail == routes["unrated item"].detail == DETAIL_GLOBAL_MEAN

    def test_k_truncates_by_similarity_then_id(self):
        ds = dataset(
            [
                (5, 100, 3), (6, 100, 4),
                (1, 101, 5), (2, 101, 3),    # mean 4, dev +1
                (1, 102, 2), (2, 102, 4),    # mean 3, dev -1
                (1, 103, 5), (2, 103, 1),    # mean 3, dev +2
            ]
        )
        provider = stub_provider({(100, 101): 0.5, (100, 102): 0.9, (100, 103): 0.5})
        pred = predict_rating(1, 100, ds, provider, PredictionConfig(k=2))
        # top-2: 102 (0.9) then 101 (0.5, lower id beats 103)
        expected = 3.5 + (0.9 * -1 + 0.5 * 1) / 1.4
        assert pred.value == pytest.approx(expected, abs=1e-12)
        assert pred.neighbors_used == 2

    def test_ranking_over_every_kind_of_cell_matches_the_oracle(self):
        """Candidates holding NaN, 0.0, -0.0, negative and tied positive
        similarities, at a k below, at and above the positive count: only
        the positives enter, ties by ascending id."""
        sims = {101: np.nan, 102: 0.0, 103: -0.0, 104: -0.3, 105: 0.7, 106: 0.4,
                107: 0.7, 108: np.nan, 109: 0.4, 110: 0.9, 111: -0.0, 112: 0.4}
        rows = [(1, j, 1 + j % 5) for j in sims]
        rows += [(2, j, 1 + j % 3) for j in (100, *sims)] + [(3, j, 1 + j % 4) for j in (100, *sims)]
        ds = dataset(rows)
        provider = stub_provider({(100, j): s for j, s in sims.items()})

        def sim(i, j):
            s = sims.get(max(i, j)) if min(i, j) == 100 else None
            return None if s is None or np.isnan(s) else s

        positives = sum(s > 0.0 for s in sims.values())
        assert positives == 6 and sims[105] == sims[107] and sims[106] == sims[109] == sims[112]
        for k in (1, 2, 4, 5, positives, positives + 1, positives + 4, 35):
            got = predict_rating(1, 100, ds, provider, PredictionConfig(k=k))
            value, detail, used = oracles.knn_prediction(1, 100, rows, sim, k)
            assert (got.detail, got.neighbors_used) == (detail, used) == (DETAIL_FULL, min(k, positives)), k
            assert got.value == pytest.approx(value, abs=1e-12), k

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
        provider = stub_provider({(100, 101): 1.0})
        clamped = predict_rating(1, 100, ds, provider)
        assert clamped.value == 5.0
        assert clamped.detail == DETAIL_FULL
        # The unclamped value: 5.0 + 1.0 * (5 - 3) / 1.0
        assert ds.item_means[100] + (5 - ds.item_means[101]) == 7.0

    def test_clamping_lower_bound(self):
        ds = dataset(
            [
                (5, 100, 1), (6, 100, 1),
                (1, 101, 1), (2, 101, 5),     # dev -2
            ]
        )
        pred = predict_rating(1, 100, ds, stub_provider({(100, 101): 1.0}))
        assert pred.value == 1.0

    def test_unrated_item_anchored_on_global_mean(self):
        # target has no training ratings but content-like sims exist:
        # stays a full prediction, anchored on the global mean
        ds = dataset([(1, 101, 5), (2, 101, 3)])  # global mean 4.0
        provider = stub_provider({(101, 200): 0.6})
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
            sim = lambda i, j: oracles.corater_cosine(matrix, i - 1, j - 1)[0]  # noqa: E731
            for u in range(6):
                for i in range(6):
                    got = predict_rating(u + 1, i + 1, ds, provider, cfg)
                    want, _detail, _used = oracles.knn_prediction(u + 1, i + 1, rows, sim, k)
                    assert got.value == pytest.approx(want, abs=1e-12)


class TestPredictBatch:
    def world(self):
        ds = random_world(37)
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


class TestPredictionValue:
    def test_fallback_flag(self):
        assert not Prediction(3.0, DETAIL_FULL, 4).is_fallback
        assert Prediction(3.0, DETAIL_ITEM_MEAN).is_fallback
        assert Prediction(3.0, DETAIL_GLOBAL_MEAN).is_fallback


def sparse_world(seed, n_users=24, n_items=30):
    """Integer ratings where each user rates a share drawn from 0.05 to 0.9
    of the items, so neighborhoods run from empty to over 20 items, plus
    an item vector per item, mostly but not always at a positive cosine."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n_users):
        density = rng.uniform(0.05, 0.9)
        rows += [(u + 1, i + 1, float(rng.integers(1, 6))) for i in range(n_items) if rng.random() < density]
    vectors = {i + 1: rng.normal(0.3, 1.0, size=5) for i in range(n_items)}
    index = synthdata.item_index(vectors, dim=5, coverage=3)
    return dataset(rows), index


class TestValuesAt:
    @pytest.mark.parametrize("predictor, integer_scale", [
        *(pytest.param(p, False, id=p) for p in ("cf", "cb", "hybrid")),
        *(pytest.param(p, True, id=f"{p}-integer-scale") for p in ("cf", "cb", "hybrid")),
    ])
    def test_prefix_read_equals_prediction_at_each_k(self, predictor, integer_scale):
        ds, index = sparse_world(41)
        test = np.random.default_rng(43).choice(len(ds), size=60, replace=False)
        train = ds.subset(np.setdiff1d(np.arange(len(ds)), test))
        # User 998 rated only item 31, which no one else rated and which has
        # no vector, so no source has a candidate for them: the item mean stands in.
        # On an integer scale a clamped prefix read must still be a plain float.
        r_min, r_max = (1, 5) if integer_scale else (1.0, 5.0)
        train = RatingDataset(records=train.records + [(998, 31, 3.0, 0)], r_min=r_min, r_max=r_max)
        pairs = list(zip(ds.user[test].tolist(), ds.item[test].tolist()))
        users, counts = np.unique(train.user, return_counts=True)
        pairs += [(u, i) for u in users[counts <= 3].tolist() for i in (1, 2, 3)]  # small neighborhoods
        pairs += [(999, 3), (2, 999), (998, 5)]  # a user and an item the training side never saw; no candidate
        provider = make_provider(predictor, train, index)
        big = 30
        ks = list(range(1, big + 1))
        details, longest, clamped = set(), 0, 0
        cfg = PredictionConfig(k=big)
        for user, item in pairs:
            pred = predict_rating(user, item, train, provider, cfg)
            got = values_at(pred, ks, train)
            want = [predict_rating(user, item, train, provider, replace(cfg, k=k)).value for k in ks]
            assert got == want, (user, item)
            assert all(type(v) is float and 1.0 <= v <= 5.0 for v in got)
            assert got[-1] == pred.value
            details.add(pred.detail)
            longest = max(longest, pred.neighbors_used)
            if pred.running_sums is not None:
                anchor, num, den = pred.running_sums
                raw = [anchor + num[k - 1] / den[k - 1] for k in range(1, pred.neighbors_used)]
                clamped += sum(not 1.0 <= v <= 5.0 for v in raw)
        # Every route is covered, neighborhoods reach past numpy's eight-way
        # pairwise unrolling, where a pairwise sum would differ, and some
        # value at a k below neighbors_used clamps to a bound of the scale.
        assert details == {DETAIL_FULL, DETAIL_ITEM_MEAN, DETAIL_GLOBAL_MEAN}
        assert longest >= 12
        assert clamped

    def test_running_sums_left_out_of_equality_and_repr(self):
        pred = Prediction(3.0, DETAIL_FULL, 2, (3.0, np.array([0.5, 1.0]), np.array([0.5, 0.9])))
        assert pred == Prediction(3.0, DETAIL_FULL, 2)
        assert repr(pred) == repr(Prediction(3.0, DETAIL_FULL, 2))

    def test_prediction_is_slotted(self):
        # One is built per test record, and a slotted dataclass builds fastest;
        # being mutable, it is unhashable.
        pred = Prediction(3.0, DETAIL_FULL, 2)
        assert not hasattr(pred, "__dict__")
        with pytest.raises(TypeError):
            hash(pred)


class TestCumsumOrder:
    """numpy's cumsum is a sequential left fold: the prefix reads of
    values_at and RatingDataset's means are bit-exact only while it is.
    predict_rating takes its running sums from np.add.accumulate, the
    ufunc cumsum calls, so the two must give the same bytes."""

    def test_prefix_of_cumsum_is_cumsum_of_prefix_and_a_left_fold(self):
        rng = np.random.default_rng(47)
        for n in range(1, 301):
            a = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
            full = a.cumsum()
            assert np.add.accumulate(a).tobytes() == full.tobytes()
            m = int(rng.integers(1, n + 1))
            assert full[:m].tobytes() == a[:m].cumsum().tobytes()
            fold = 0.0
            for x in a.tolist():
                fold += x
            assert full[-1] == fold
