"""Similarity layer: rating cosine, content vectors, hybrid."""

import math

import numpy as np
import pytest

from relfrec.embed import EmbeddingTable, Vocabulary
from relfrec.errors import UnknownIdError
from relfrec.ingest import FeatureSentence, RatingDataset
from relfrec.simcore import (
    SOURCE_CONTENT,
    SOURCE_RATING,
    HybridPolicy,
    ItemVectorIndex,
    SimilarityProvider,
    SimilarityValue,
    build_item_vectors,
    hybrid_sim,
    make_provider,
    rating_cosine,
    relf_sim,
    top_similar_items,
)

import synthdata


def make_table(vectors_by_token):
    """EmbeddingTable with hand-picked input vectors (outputs unused)."""
    tokens = list(vectors_by_token)
    mat = np.array([vectors_by_token[t] for t in tokens], dtype=np.float64)
    vocab = Vocabulary(tokens=tokens, counts=np.ones(len(tokens), dtype=np.int64))
    return EmbeddingTable(vocab=vocab, input_vectors=mat, output_vectors=np.zeros_like(mat))


def sentences_of(pairs):
    return [FeatureSentence(item_id=i, tokens=tuple(toks)) for i, toks in pairs]


def dataset(rows):
    """RatingDataset from (user, item, rating) triples."""
    return RatingDataset(records=[(u, i, float(r), 0) for u, i, r in rows])


def naive_pair_cosine(matrix, i, j):
    """Reference: cosine over co-rated rows of two rating columns.

    matrix holds np.nan for missing ratings.
    """
    mask = ~np.isnan(matrix[:, i]) & ~np.isnan(matrix[:, j])
    if not mask.any():
        return None
    a = matrix[mask, i]
    b = matrix[mask, j]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return None
    return float(a @ b) / (na * nb), int(mask.sum())


class TestRatingCosine:
    def test_hand_computed_value(self):
        # co-raters 1 and 2: dot=3*3+5*4=29, norms sqrt(34) and 5
        ds = dataset([(1, 10, 3), (2, 10, 5), (3, 10, 4), (1, 11, 3), (2, 11, 4)])
        sv = rating_cosine(10, 11, ds)
        assert sv.value == pytest.approx(29 / (math.sqrt(34) * 5), abs=1e-12)
        assert sv.value == pytest.approx(0.9946917938265513, abs=1e-12)
        assert sv.support == 2
        assert sv.source == SOURCE_RATING

    def test_identical_columns_give_one(self):
        ds = dataset([(u, i, r) for i in (1, 2) for u, r in [(1, 4), (2, 2), (3, 5)]])
        sv = rating_cosine(1, 2, ds)
        assert sv.value == pytest.approx(1.0, abs=1e-12)
        assert sv.support == 3

    def test_no_co_raters_undefined(self):
        ds = dataset([(1, 10, 4), (2, 11, 3)])
        assert rating_cosine(10, 11, ds) is None

    def test_unknown_item_is_contract_error(self):
        ds = dataset([(1, 10, 4)])
        with pytest.raises(UnknownIdError):
            rating_cosine(10, 99, ds)
        with pytest.raises(UnknownIdError):
            rating_cosine(99, 10, ds)

    def test_matches_naive_oracle_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n_users, n_items = 6, 5
            matrix = np.full((n_users, n_items), np.nan)
            rows = []
            for u in range(n_users):
                for i in range(n_items):
                    if rng.random() < 0.5:
                        r = float(rng.integers(1, 6))
                        matrix[u, i] = r
                        rows.append((u + 1, i + 100, r))
            if not rows:
                continue
            ds = dataset(rows)
            for i in range(n_items):
                for j in range(i + 1, n_items):
                    if i + 100 not in ds.per_item or j + 100 not in ds.per_item:
                        continue
                    got = rating_cosine(i + 100, j + 100, ds)
                    want = naive_pair_cosine(matrix, i, j)
                    if want is None:
                        assert got is None
                    else:
                        assert got.value == pytest.approx(want[0], abs=1e-12)
                        assert got.support == want[1]

    def test_symmetric(self):
        rng = np.random.default_rng(23)
        rows = [
            (u + 1, i + 1, float(rng.integers(1, 6)))
            for u in range(8)
            for i in range(4)
            if rng.random() < 0.7
        ]
        ds = dataset(rows)
        for i in ds.per_item:
            for j in ds.per_item:
                if i >= j:
                    continue
                a, b = rating_cosine(i, j, ds), rating_cosine(j, i, ds)
                if a is None:
                    assert b is None
                else:
                    assert a.value == pytest.approx(b.value, abs=1e-12)
                    assert a.support == b.support


class TestBuildItemVectors:
    def test_single_token_copies_vector(self):
        table = make_table({"a": [1.0, 2.0], "b": [0.0, 1.0]})
        index = build_item_vectors(sentences_of([(5, ["a"])]), table)
        assert np.array_equal(index.vectors[5], [1.0, 2.0])
        assert index.coverage[5] == 1
        assert index.dim == 2

    def test_mean_pooling(self):
        table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        index = build_item_vectors(sentences_of([(1, ["a", "b"])]), table)
        assert np.allclose(index.vectors[1], [0.5, 0.5], atol=1e-15)

    def test_duplicate_tokens_weighted_by_occurrence(self):
        table = make_table({"a": [3.0, 0.0], "b": [0.0, 3.0]})
        index = build_item_vectors(sentences_of([(1, ["a", "a", "b"])]), table)
        assert np.allclose(index.vectors[1], [2.0, 1.0], atol=1e-15)
        assert index.coverage[1] == 3

    def test_out_of_vocabulary_tokens_skipped(self):
        table = make_table({"a": [2.0, 4.0]})
        index = build_item_vectors(sentences_of([(1, ["a", "zz"])]), table)
        assert np.array_equal(index.vectors[1], [2.0, 4.0])
        assert index.coverage[1] == 1

    def test_zero_coverage_item_excluded(self):
        table = make_table({"a": [1.0, 0.0]})
        index = build_item_vectors(sentences_of([(1, ["a"]), (2, ["zz", "qq"])]), table)
        assert 2 not in index
        assert 1 in index
        assert index.n_excluded == 1
        assert len(index) == 1


class TestRelfSim:
    def make_index(self):
        table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})
        sents = sentences_of([(1, ["a", "b"]), (2, ["a", "b"]), (3, ["a"]), (4, ["c", "zz"])])
        return build_item_vectors(sents, table)

    def test_identical_sentences_give_one(self):
        index = self.make_index()
        sv = relf_sim(1, 2, index)
        assert sv.value == pytest.approx(1.0, abs=1e-12)
        assert sv.source == SOURCE_CONTENT

    def test_hand_computed_value(self):
        index = self.make_index()
        # item 1 vector (0.5, 0.5), item 3 vector (1, 0) -> 1/sqrt(2)
        sv = relf_sim(1, 3, index)
        assert sv.value == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_support_is_smaller_coverage(self):
        index = self.make_index()
        assert relf_sim(1, 3, index).support == 1
        assert relf_sim(1, 2, index).support == 2
        assert relf_sim(1, 4, index).support == 1  # zz dropped from item 4

    def test_absent_item_undefined(self):
        index = self.make_index()
        assert relf_sim(1, 99, index) is None
        assert relf_sim(99, 1, index) is None

    def test_value_is_plain_float(self):
        index = self.make_index()
        assert type(relf_sim(1, 3, index).value) is float

    def test_zero_vector_undefined(self):
        index = ItemVectorIndex(
            vectors={1: np.array([0.0, 0.0]), 2: np.array([1.0, 0.0])},
            coverage={1: 1, 2: 1},
            dim=2,
        )
        assert relf_sim(1, 2, index) is None

    def test_clique_items_cluster(self, clique_model):
        table = clique_model["table"]
        index = build_item_vectors(clique_model["sentences"], table)
        sents = clique_model["sentences"]
        a_items = [s.item_id for s in sents if s.tokens[0] in clique_model["clique_a"]][:6]
        b_items = [s.item_id for s in sents if s.tokens[0] in clique_model["clique_b"]][:6]
        intra = [relf_sim(i, j, index).value for i in a_items for j in a_items if i < j]
        inter = [relf_sim(i, j, index).value for i in a_items for j in b_items]
        assert np.mean(intra) > np.mean(inter) + 0.2


class TestHybridSim:
    def setup_method(self):
        rows = []
        for u in range(1, 7):  # items 10 and 11 each rated by six users
            rows.append((u, 10, 3 + (u % 3)))
            rows.append((u, 11, 3 + ((u + 1) % 3)))
        rows.append((1, 12, 5))  # item 12 is nearly cold: one rating
        self.ratings = dataset(rows)
        table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        self.index = build_item_vectors(
            sentences_of([(10, ["a"]), (11, ["a", "b"]), (12, ["b"])]), table
        )
        self.policy = HybridPolicy(tau_pair=2, tau_item=5)

    def test_warm_pair_uses_rating_source(self):
        sv = hybrid_sim(10, 11, self.ratings, self.index, self.policy)
        assert sv.source == SOURCE_RATING
        expected = rating_cosine(10, 11, self.ratings)
        assert sv.value == expected.value and sv.support == expected.support

    def test_item_below_tau_item_uses_content(self):
        sv = hybrid_sim(10, 12, self.ratings, self.index, self.policy)
        assert sv.source == SOURCE_CONTENT
        assert sv.value == relf_sim(10, 12, self.index).value

    def test_pair_below_tau_pair_uses_content(self):
        # items 20/21 are warm by count but share only one co-rater
        rows = [(u, 20, 4) for u in range(1, 7)] + [(u, 21, 4) for u in range(6, 12)]
        ratings = dataset(rows)
        sv = hybrid_sim(20, 21, ratings, self.index_for(20, 21), self.policy)
        assert sv.source == SOURCE_CONTENT

    def index_for(self, i, j):
        table = make_table({"a": [1.0, 0.5]})
        return build_item_vectors(sentences_of([(i, ["a"]), (j, ["a"])]), table)

    def test_cold_route_falls_back_to_rating_when_content_missing(self):
        # pair fails the warm test and item 12 misses from this index,
        # yet a rating value exists -> return it rather than None
        index = ItemVectorIndex(vectors={}, coverage={}, dim=2)
        sv = hybrid_sim(10, 12, self.ratings, index, self.policy)
        assert sv is not None
        assert sv.source == SOURCE_RATING
        assert sv.value == rating_cosine(10, 12, self.ratings).value

    def test_undefined_only_when_both_routes_undefined(self):
        index = ItemVectorIndex(vectors={}, coverage={}, dim=2)
        rows = [(1, 30, 4), (2, 31, 5)]  # no co-raters, no content
        assert hybrid_sim(30, 31, dataset(rows), index, self.policy) is None

    def test_unknown_item_uses_content_not_error(self):
        sv = hybrid_sim(10, 999, self.ratings, self.index_for(10, 999), self.policy)
        assert sv.source == SOURCE_CONTENT

    def test_degenerates_to_rating_cosine_when_thresholds_trivial(self):
        rng = np.random.default_rng(31)
        rows = [
            (u + 1, i + 1, float(rng.integers(1, 6))) for u in range(4) for i in range(3)
        ]
        ratings = dataset(rows)
        policy = HybridPolicy(tau_pair=1, tau_item=0)
        empty_index = ItemVectorIndex(vectors={}, coverage={}, dim=2)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i == j:
                    continue
                got = hybrid_sim(i, j, ratings, empty_index, policy)
                want = rating_cosine(i, j, ratings)
                assert got.value == want.value
                assert got.source == SOURCE_RATING

    def test_degenerates_to_content_when_tau_item_unreachable(self):
        policy = HybridPolicy(tau_pair=1, tau_item=10**9)
        for i in (10, 11, 12):
            for j in (10, 11, 12):
                if i == j:
                    continue
                got = hybrid_sim(i, j, self.ratings, self.index, policy)
                want = relf_sim(i, j, self.index)
                assert got.value == want.value
                assert got.source == SOURCE_CONTENT

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HybridPolicy(tau_pair=0)
        with pytest.raises(ValueError):
            HybridPolicy(tau_item=-1)


class TestProviders:
    def setup_method(self):
        rng = np.random.default_rng(41)
        rows = [
            (u + 1, i + 1, float(rng.integers(1, 6)))
            for u in range(10)
            for i in range(6)
            if rng.random() < 0.6
        ]
        self.ratings = dataset(rows)
        table = make_table({"a": [1.0, 0.2], "b": [0.1, 1.0], "c": [0.5, 0.5]})
        sents = sentences_of([(i, toks) for i, toks in [(1, ["a"]), (2, ["a", "b"]), (3, ["b"]), (4, ["c"])]])
        self.index = build_item_vectors(sents, table)

    def test_rating_provider_matches_raw_function(self):
        provider = make_provider("cf", ratings=self.ratings)
        for i in self.ratings.per_item:
            for j in self.ratings.per_item:
                if i == j:
                    continue
                got = provider.sim(i, j)
                want = rating_cosine(i, j, self.ratings)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.value == pytest.approx(want.value, abs=1e-12)

    def test_rating_provider_unknown_item_is_undefined(self):
        provider = make_provider("cf", ratings=self.ratings)
        assert provider.sim(1, 9999) is None
        assert provider.sim(9999, 1) is None

    def test_symmetry_is_exact(self):
        for provider in (
            make_provider("cf", ratings=self.ratings),
            make_provider("cb", index=self.index),
            make_provider("hybrid", ratings=self.ratings, index=self.index),
        ):
            for i in (1, 2, 3, 4):
                for j in (1, 2, 3, 4):
                    if i == j:
                        continue
                    a, b = provider.sim(i, j), provider.sim(j, i)
                    assert a == b  # dataclass equality; both may be None

    def test_memoization_hits(self):
        provider = make_provider("cb", index=self.index)
        provider.sim(1, 2)
        provider.sim(2, 1)
        provider.sim(1, 2)
        info = provider.cache_info()
        assert info.misses == 1
        assert info.hits == 2

    def test_content_provider_matches_raw_function(self):
        provider = make_provider("cb", index=self.index)
        sv = provider.sim(2, 3)
        assert sv == relf_sim(2, 3, self.index)
        assert provider.sim(1, 999) is None

    def test_hybrid_provider_matches_raw_function(self):
        policy = HybridPolicy(tau_pair=2, tau_item=3)
        provider = make_provider("hybrid", ratings=self.ratings, index=self.index, policy=policy)
        for i in (1, 2, 3, 4):
            for j in (1, 2, 3, 4):
                if i == j:
                    continue
                assert provider.sim(i, j) == hybrid_sim(i, j, self.ratings, self.index, policy)

    def test_make_provider_kinds(self):
        rated = set(self.ratings.per_item)
        table = make_table({"a": [1.0, 0.2], "c": [0.5, 0.5]})
        index = build_item_vectors(sentences_of([(1, ["a"]), (99, ["c"])]), table)
        hybrid = make_provider("hybrid", ratings=self.ratings, index=index, policy=HybridPolicy(tau_pair=1, tau_item=0))
        cases = (
            (make_provider("cf", ratings=self.ratings), rated, (1, 2), SOURCE_RATING),
            (make_provider("cb", index=index), {1, 99}, (1, 99), SOURCE_CONTENT),
            (hybrid, rated | {99}, (1, 2), SOURCE_RATING),
            (hybrid, rated | {99}, (1, 99), SOURCE_CONTENT),
        )
        for provider, items, (i, j), source in cases:
            assert isinstance(provider, SimilarityProvider)
            assert provider.items == items
            assert provider.sim(i, j).source == source

    def test_make_provider_missing_inputs(self):
        with pytest.raises(ValueError):
            make_provider("cf")
        with pytest.raises(ValueError):
            make_provider("cb")
        with pytest.raises(ValueError):
            make_provider("hybrid", ratings=self.ratings)
        with pytest.raises(ValueError):
            make_provider("bogus", ratings=self.ratings, index=self.index)


class StubProvider:
    def __init__(self, values):
        self.values = values

    def sim(self, i, j):
        key = (i, j) if i <= j else (j, i)
        v = self.values.get(key)
        if v is None:
            return None
        return SimilarityValue(value=v, support=1, source="stub")


class TestTopSimilar:
    def test_ranking_and_truncation(self):
        provider = StubProvider({(1, 2): 0.9, (1, 3): 0.9, (1, 4): 0.5, (1, 5): None})
        top = top_similar_items(provider, 1, [1, 2, 3, 4, 5], n=2)
        assert [j for j, _ in top] == [2, 3]  # tie broken by ascending id
        top3 = top_similar_items(provider, 1, [5, 4, 3, 2, 1], n=10)
        assert [j for j, _ in top3] == [2, 3, 4]  # 5 undefined, self excluded

    def test_n_below_one_rejected(self):
        provider = StubProvider({(1, 2): 0.9, (1, 3): 0.5})
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                top_similar_items(provider, 1, [1, 2, 3], n=n)
