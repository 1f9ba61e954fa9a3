"""Similarity layer: rating cosine, content vectors, hybrid."""

import math
import re

import numpy as np
import pytest

from relfrec.embed import EmbeddingTable, TrainConfig, Vocabulary, train_skipgram
from relfrec.errors import DataError, UnknownIdError
from relfrec.ingest import CatalogEntry, FeatureCatalog, FeatureSentence, RatingDataset, clean_and_join
from relfrec.predict import PredictionConfig, predict_rating
from relfrec.simcore import (
    PREDICTORS,
    SOURCE_CONTENT,
    SOURCE_RATING,
    HybridPolicy,
    SimilarityProvider,
    build_item_vectors,
    hybrid_sim,
    make_provider,
    rating_cosine,
    relf_sim,
    top_similar_items,
)

import oracles
import synthdata
from relfrec import simcore
from synthdata import dataset, random_world, stub_provider


def make_table(vectors_by_token):
    """EmbeddingTable with hand-picked input vectors (outputs unused)."""
    tokens = list(vectors_by_token)
    mat = np.array([vectors_by_token[t] for t in tokens], dtype=np.float64)
    vocab = Vocabulary(tokens=tokens, counts=np.ones(len(tokens), dtype=np.int64))
    return EmbeddingTable(vocab=vocab, input_vectors=mat, output_vectors=np.zeros_like(mat))


def sentences_of(pairs):
    return [FeatureSentence(item_id=i, tokens=tuple(toks)) for i, toks in pairs]


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
                    if i + 100 not in ds.arrays.position or j + 100 not in ds.arrays.position:
                        continue
                    got = rating_cosine(i + 100, j + 100, ds)
                    want = oracles.corater_cosine(matrix, i, j)
                    if want is None:
                        assert got is None
                    else:
                        assert got.value == pytest.approx(want[0], abs=1e-12)
                        assert got.support == want[1]

    def test_symmetric(self):
        ds = random_world(23, n_users=8, n_items=4)
        for i in ds.arrays.position:
            for j in ds.arrays.position:
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
        assert index.coverage.tolist() == [1]
        assert index.matrix.shape == (1, 2)

    def test_mean_pooling(self):
        table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        index = build_item_vectors(sentences_of([(1, ["a", "b"])]), table)
        assert np.allclose(index.vectors[1], [0.5, 0.5], atol=1e-15)

    def test_duplicate_tokens_weighted_by_occurrence(self):
        table = make_table({"a": [3.0, 0.0], "b": [0.0, 3.0]})
        index = build_item_vectors(sentences_of([(1, ["a", "a", "b"])]), table)
        assert np.allclose(index.vectors[1], [2.0, 1.0], atol=1e-15)
        assert index.coverage.tolist() == [3]

    def test_out_of_vocabulary_tokens_skipped(self):
        table = make_table({"a": [2.0, 4.0]})
        index = build_item_vectors(sentences_of([(1, ["a", "zz"])]), table)
        assert np.array_equal(index.vectors[1], [2.0, 4.0])
        assert index.coverage.tolist() == [1]

    def test_zero_coverage_item_excluded(self):
        table = make_table({"a": [1.0, 0.0]})
        index = build_item_vectors(sentences_of([(1, ["a"]), (2, ["zz", "qq"])]), table)
        assert 2 not in index
        assert 1 in index
        assert index.n_excluded == 1
        assert len(index) == 1

    @staticmethod
    def random_corpus(seed, dim, n_sentences=200):
        """A table of 80 tokens plus sentences of 1-60 tokens, some repeated, some out of vocabulary."""
        rng = np.random.default_rng(seed)
        table = make_table({f"t{n}": rng.normal(size=dim) for n in range(80)})
        sentences = [
            FeatureSentence(item_id=s, tokens=tuple(f"t{t}" for t in rng.integers(0, 90, size=rng.integers(1, 61))))
            for s in range(n_sentences)
        ]
        return table, sentences

    @staticmethod
    def mixed_corpus(seed, dim):
        """A table of 20 tokens plus 40 sentences of 1-16 tokens in shuffled
        order, some tokens repeated, some out of vocabulary; item 20 has
        16 tokens, all known, and item 7 has two covered sentences."""
        rng = np.random.default_rng(seed)
        table = make_table({f"t{n}": rng.normal(size=dim) for n in range(20)})
        lengths = rng.permutation(np.arange(40) % 16 + 1)
        sentences = [
            FeatureSentence(item_id=s, tokens=tuple(f"t{t}" for t in rng.integers(0, 26, size=length)))
            for s, length in enumerate(lengths.tolist())
        ]
        sentences[13] = FeatureSentence(item_id=7, tokens=("t3", "zz", "t3", "t11"))
        sentences[20] = FeatureSentence(item_id=20, tokens=tuple(f"t{t}" for t in [*range(15), 4]))
        return table, sentences

    @staticmethod
    def known(sentence, table):
        return [table.vocab.index[t] for t in sentence.tokens if t in table.vocab.index]

    def expected_ids(self, sentences, table):
        """{item id: its last covered sentence's in-vocabulary token rows}."""
        return {s.item_id: ids for s in sentences if (ids := self.known(s, table))}

    def test_mixed_corpus_needs_reordering(self):
        table, sentences = self.mixed_corpus(2, 2)
        lengths = [len(ids) for ids in self.expected_ids(sentences, table).values()]
        assert min(lengths) == 1 and max(lengths) == 16
        assert lengths != sorted(lengths, reverse=True)
        assert sum(s.item_id == 7 and bool(self.known(s, table)) for s in sentences) == 2
        assert any(len(self.known(s, table)) < len(s.tokens) for s in sentences)
        assert any(len(set(s.tokens)) < len(s.tokens) for s in sentences)

    @pytest.mark.parametrize("dim", [2, 3, 150])
    def test_mean_is_numpy_mean_bit_for_bit(self, dim):
        for table, sentences in (self.random_corpus(dim, dim), self.mixed_corpus(dim, dim)):
            index = build_item_vectors(sentences, table)
            assert index.ids.dtype == np.int64 and index.matrix.shape == (len(index), dim)
            expected = self.expected_ids(sentences, table)
            assert index.ids.tolist() == sorted(expected)
            for item, ids in expected.items():
                row = index.find(item)
                assert index.coverage[row] == len(ids)
                assert index.matrix[row].tobytes() == table.input_vectors[ids].mean(axis=0).tobytes(), item

    def test_dim_one_mean_is_a_left_fold(self):
        for table, sentences in (self.random_corpus(1, 1), self.mixed_corpus(1, 1)):
            index = build_item_vectors(sentences, table)
            for item, ids in self.expected_ids(sentences, table).items():
                total = 0.0
                for i in ids:
                    total += float(table.input_vectors[i, 0])
                assert index.vectors[item][0] == total / len(ids), item

    @pytest.mark.parametrize("dim", [1, 2, 150])
    def test_mixed_lengths_are_left_folds(self, dim):
        table, sentences = self.mixed_corpus(dim + 10, dim)
        index = build_item_vectors(sentences, table)
        vectors = table.input_vectors.tolist()
        for item, ids in self.expected_ids(sentences, table).items():
            total = [0.0] * dim
            for i in ids:
                total = [t + v for t, v in zip(total, vectors[i])]
            assert index.vectors[item].tolist() == [t / len(ids) for t in total], item

    def test_last_covered_sentence_of_an_item_wins(self):
        table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})
        sents = sentences_of([(7, ["a"]), (3, ["b"]), (7, ["c", "b"]), (7, ["zz"]), (5, ["qq"]), (3, ["a", "a"])])
        index = build_item_vectors(sents, table)
        assert index.ids.tolist() == [3, 7]
        assert index.matrix.tolist() == [[1.0, 0.0], [0.5, 1.0]]
        assert index.coverage.tolist() == [2, 2]
        assert index.n_excluded == 2
        assert dict(index.vectors).keys() == {3, 7}

    @pytest.mark.parametrize("sents", [[], [(1, ["zz"]), (2, ["qq", "zz"])]], ids=["no-sentences", "no-coverage"])
    def test_empty_index(self, sents):
        index = build_item_vectors(sentences_of(sents), make_table({"a": [1.0, 0.0]}))
        assert len(index) == 0 and index.n_excluded == len(sents)
        assert index.ids.dtype == np.int64 and index.matrix.shape == (0, 2) and len(index.coverage) == 0
        assert 1 not in index and relf_sim(1, 2, index) is None
        provider = make_provider("cb", index=index)
        assert provider.items.dtype == np.int64 and len(provider.items) == 0
        ids = np.array([1, 2, 3])
        for item in (1, 4):
            assert np.isnan(provider.row(item, ids)).all()

    def test_ids_beyond_int64_are_absent(self):
        index = build_item_vectors(sentences_of([(1, ["a"]), (2, ["a"])]), make_table({"a": [1.0, 0.5]}))
        for item in (2**70, -2**70, 2**63, -2**63 - 1):
            assert item not in index
            assert relf_sim(item, 1, index) is None and relf_sim(1, item, index) is None
        # Beyond int64, a binary search compares as float64, where 2**63 - 1 and 2**63 are one value.
        edges = synthdata.item_index({-2**63: [1.0, 0.0], 2**63 - 1: [0.0, 1.0]}, dim=2)
        assert -2**63 in edges and 2**63 - 1 in edges
        assert 2**63 not in edges and -2**63 - 1 not in edges
        assert relf_sim(2**63, -2**63, edges) is None and relf_sim(2**63 - 1, -2**63, edges).value == 0.0

    @pytest.mark.parametrize("item", [2**64, 2**63, -2**63 - 1])
    def test_sentence_id_beyond_int64_is_a_data_error_naming_it(self, item):
        table = make_table({"a": [1.0, 0.5]})
        # Named even when the sentence has no in-vocabulary token, and
        # the first such id in sentence order.
        for tokens in (["a"], ["zz"]):
            sentences = sentences_of([(1, ["a"]), (item, tokens), (2**70, ["a"])])
            with pytest.raises(DataError, match=f"^item id {item} does not fit in 64 bits$"):
                build_item_vectors(sentences, table)

    def test_hand_built_catalog_id_beyond_int64_fails_at_item_vectors(self):
        # clean_and_join keeps the sentence and training reads only its
        # tokens; the item vectors are where the id is refused.
        catalog = FeatureCatalog(entries={i: CatalogEntry([f"dir{i}"], ["wri"], ["act"]) for i in (1, 2**64)})
        bundle = clean_and_join(RatingDataset(records=[(1, 1, 4.0, 0)]), catalog)
        table = train_skipgram(bundle.sentences, TrainConfig(window=2, dim=4, negatives=2, epochs=1))
        with pytest.raises(DataError, match=f"item id {2**64} does not fit in 64 bits"):
            build_item_vectors(bundle.sentences, table)


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
        index = synthdata.item_index({1: np.array([0.0, 0.0]), 2: np.array([1.0, 0.0])}, dim=2)
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
        index = synthdata.item_index({}, dim=2)
        sv = hybrid_sim(10, 12, self.ratings, index, self.policy)
        assert sv is not None
        assert sv.source == SOURCE_RATING
        assert sv.value == rating_cosine(10, 12, self.ratings).value

    def test_undefined_only_when_both_routes_undefined(self):
        index = synthdata.item_index({}, dim=2)
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
        empty_index = synthdata.item_index({}, dim=2)
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
        for name in ("tau_pair", "tau_item"):
            for value in (1.5, 2.5, 5.0, "5", True, None):
                with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
                    HybridPolicy(**{name: value})


class TestProviders:
    def setup_method(self):
        self.ratings = random_world(41, n_users=10, n_items=6, density=0.6)
        table = make_table({"a": [1.0, 0.2], "b": [0.1, 1.0], "c": [0.5, 0.5]})
        sents = sentences_of([(i, toks) for i, toks in [(1, ["a"]), (2, ["a", "b"]), (3, ["b"]), (4, ["c"])]])
        self.index = build_item_vectors(sents, table)
        self.targets = sorted(set(self.ratings.arrays.position) | set(self.index.vectors)) + [9999]

    def test_rating_provider_matches_raw_function(self):
        provider = make_provider("cf", ratings=self.ratings)
        rated = self.ratings.arrays.position

        def expected(i, j):
            return rating_cosine(i, j, self.ratings) if i in rated and j in rated else None

        TestRows.check_rows(provider, self.ratings, self.index, self.targets, expected, 0.0)

    def test_rating_provider_unknown_item_is_undefined(self):
        provider = make_provider("cf", ratings=self.ratings)
        ids = np.array([1, 2, 9999])
        assert np.isnan(provider.row(1, ids)[2])
        assert np.isnan(provider.row(9999, ids)).all()

    def test_symmetry_is_exact(self):
        ids = np.array(self.targets)
        for provider in (
            make_provider("cf", ratings=self.ratings),
            make_provider("cb", index=self.index),
            make_provider("hybrid", ratings=self.ratings, index=self.index),
        ):
            matrix = np.array([provider.row(i, ids) for i in ids.tolist()])
            assert np.array_equal(matrix, matrix.T, equal_nan=True)

    def test_content_provider_matches_raw_function(self):
        provider = make_provider("cb", index=self.index)
        expected = lambda i, j: relf_sim(i, j, self.index)  # noqa: E731
        TestRows.check_rows(provider, self.ratings, self.index, self.targets, expected, 1e-14)

    def test_hybrid_provider_matches_raw_function(self):
        policy = HybridPolicy(tau_pair=2, tau_item=3)
        provider = make_provider("hybrid", ratings=self.ratings, index=self.index, policy=policy)
        expected = lambda i, j: hybrid_sim(i, j, self.ratings, self.index, policy)  # noqa: E731
        TestRows.check_rows(provider, self.ratings, self.index, self.targets, expected, 1e-14)

    def test_make_provider_kinds(self):
        rated = set(self.ratings.arrays.position)
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
            assert provider.items.dtype == np.int64
            assert np.array_equal(provider.items, sorted(items))
            sources = {k: s for k, _value, s in top_similar_items(provider, i, len(items))}
            assert sources[j] == source

    def test_make_provider_missing_inputs(self):
        with pytest.raises(ValueError):
            make_provider("cf")
        with pytest.raises(ValueError):
            make_provider("cb")
        with pytest.raises(ValueError):
            make_provider("hybrid", ratings=self.ratings)
        with pytest.raises(ValueError):
            make_provider("bogus", ratings=self.ratings, index=self.index)


class TestDuplicatePairs:
    """A duplicated (user, item) pair counts once, with its last record's rating."""

    def test_last_record_wins_in_reference_functions(self):
        rng = np.random.default_rng(17)
        rows = [(u, i, float(rng.integers(1, 6))) for u in range(1, 13) for i in range(1, 9) if rng.random() < 0.6]
        # Earlier records of some pairs, each with another rating.
        stale = [(u, i, r % 5 + 1) for u, i, r in rows if rng.random() < 0.3]
        duplicated, last, first = dataset(stale + rows), dataset(rows), dataset(rows + stale)
        assert len(duplicated) == len(rows) + len(stale) and len(stale) > 10
        vectors = {i: rng.normal(size=4) for i in range(1, 11)}
        index = synthdata.item_index(vectors, dim=4)
        items = list(range(1, 11))
        counts = sorted(last.arrays.counts.tolist())
        policies = [HybridPolicy(), HybridPolicy(tau_pair=1, tau_item=counts[len(counts) // 2])]

        def reference(data):
            cosines = [rating_cosine(i, j, data) for i in items[:8] for j in items[:8] if i != j]
            hybrids = [hybrid_sim(i, j, data, index, p) for p in policies for i in items for j in items if i != j]
            providers = [make_provider("cf", data), make_provider("hybrid", data, index)]
            predictions = [predict_rating(u, i, data, p) for p in providers for u in range(1, 14) for i in items]
            return cosines, hybrids, predictions

        want = reference(last)
        assert reference(duplicated) == want
        # The test tells the two rules apart: keeping the first record changes every leg.
        assert all(got != leg for got, leg in zip(reference(first), want))

def row_world(seed, step):
    """Random ratings on a grid of ``step`` over [0, 5] plus an item index.

    Every grid draws the same (user, item) pairs. A step of 0.001 gives
    three-decimal ratings, off every dyadic grid. Zero ratings make some
    co-rated sub-vectors all zero. The index
    leaves rated item 1 without a vector, gives rated item 2 and
    unrated item 103 zero vectors, and covers unrated items 101-103.
    """
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 5.0, round(5.0 / step) + 1).round(3)
    rows = [
        (u, i, float(rng.choice(grid)))
        for u in range(1, 31)
        for i in range(1, 17)
        if rng.random() < 0.35
    ]
    ratings = RatingDataset(records=[(u, i, r, 0) for u, i, r in rows], r_min=0.0, r_max=5.0)
    first_rated = list(dict.fromkeys(i for _u, i, _r in rows))
    ids = [i for i in first_rated + [101, 102, 103] if i != 1 and rng.random() < 0.85]
    vectors = {i: rng.normal(size=5) for i in ids}
    vectors[2] = vectors[103] = np.zeros(5)
    index = synthdata.item_index(vectors, dim=5)
    return ratings, index


class TestRows:
    """Row kernels against the per-pair reference functions."""

    @pytest.fixture(params=[None, 3, 1, "pairs"], ids=["default-cap", "3-row-blocks", "1-row-blocks", "pair-bound"])
    def block_rows(self, request, monkeypatch):
        """Caps rating blocks at 3 or 1 rows of a world's items, or keeps the defaults.

        "pairs" caps the co-rating pairs summed at once one below the
        largest item's, so that item alone exceeds the cap and two
        smaller neighbours are still summed together.
        """

        def use(ratings):
            n_items = len(ratings.arrays.items)
            if request.param == "pairs":
                run = {}
                for user, _item, _r, _t in ratings.records:
                    run[user] = run.get(user, 0) + 1
                pairs = {}
                for user, item, _r, _t in ratings.records:
                    pairs[item] = pairs.get(item, 0) + run[user]
                monkeypatch.setattr(simcore, "_BLOCK_PAIRS", max(pairs.values()) - 1)
                assert np.diff(simcore._pieces(ratings.arrays, 0, n_items)).max() > 1
            elif request.param is not None:
                monkeypatch.setattr(simcore, "_BLOCK_CELLS", request.param * n_items)

        return use

    def targets(self, ratings, index, seed):
        """Every rated or indexed item and an unknown id, in shuffled order."""
        ids = sorted(set(ratings.arrays.position) | set(index.vectors)) + [9999]
        return [ids[p] for p in np.random.default_rng(seed).permutation(len(ids))]

    @staticmethod
    def check_rows(provider, ratings, index, targets, expected, tol):
        """Each target's rows over two id arrays against expected(t, j).

        The arrays are the dataset's rated items and a wider one: the
        rated and indexed items plus an unknown id. Rating cells must be
        exact, content cells within tol.
        """
        wider = np.array(sorted(set(ratings.arrays.position) | set(index.vectors)) + [9999])
        for t in targets:
            for ids in (ratings.arrays.items, wider):
                row = provider.row(t, ids)
                assert row.shape == (len(ids),)
                for p, j in enumerate(ids.tolist()):
                    want = None if j == t else expected(t, j)
                    if want is None:
                        assert np.isnan(row[p]), (t, j)
                    elif want.source == SOURCE_RATING:
                        assert row[p] == want.value, (t, j)
                    else:
                        assert abs(row[p] - want.value) <= tol, (t, j)

    # Sums of three-decimal ratings round, so exact cells need both sides
    # to add each cell's co-raters in the same order.
    @pytest.mark.parametrize("step", [1.0, 0.5, 0.001])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_cf_rows_equal_rating_cosine_exactly(self, block_rows, step, seed):
        ratings, index = row_world(seed, step)
        block_rows(ratings)
        provider = make_provider("cf", ratings=ratings)
        rated = ratings.arrays.position

        def expected(t, j):
            return rating_cosine(t, j, ratings) if t in rated and j in rated else None

        self.check_rows(provider, ratings, index, self.targets(ratings, index, seed), expected, 0.0)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_cb_rows_match_relf_sim(self, seed):
        ratings, index = row_world(seed, 0.5)
        provider = make_provider("cb", index=index)
        expected = lambda t, j: relf_sim(t, j, index)  # noqa: E731
        self.check_rows(provider, ratings, index, self.targets(ratings, index, seed), expected, 1e-14)

    @pytest.mark.parametrize("step", [1.0, 0.5, 0.001])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_hybrid_rows_match_hybrid_sim(self, block_rows, step, seed):
        ratings, index = row_world(seed, step)
        block_rows(ratings)
        counts = sorted(ratings.arrays.counts.tolist())
        supports = [
            rating_cosine(i, j, ratings).support
            for i in ratings.arrays.position for j in ratings.arrays.position
            if i < j and rating_cosine(i, j, ratings) is not None
        ]
        # The defaults, everything warm, and both taus exactly at observed values.
        policies = [
            HybridPolicy(),
            HybridPolicy(tau_pair=1, tau_item=0),
            HybridPolicy(tau_pair=int(np.median(supports)), tau_item=counts[len(counts) // 2]),
            HybridPolicy(tau_pair=max(supports), tau_item=counts[0]),
        ]
        for policy in policies:
            provider = make_provider("hybrid", ratings=ratings, index=index, policy=policy)
            expected = lambda t, j: hybrid_sim(t, j, ratings, index, policy)  # noqa: E731
            self.check_rows(provider, ratings, index, self.targets(ratings, index, seed), expected, 1e-14)

    def test_every_route_is_exercised(self):
        ratings, index = row_world(3, 0.5)
        items = ratings.arrays.items.tolist()
        raters: dict = {}
        for user, item, _r, _t in ratings.records:
            raters.setdefault(item, set()).add(user)
        sources = {
            getattr(hybrid_sim(i, j, ratings, index, HybridPolicy()), "source", None)
            for i in items for j in items + [101, 102, 103] if i != j
        }
        assert sources == {SOURCE_RATING, SOURCE_CONTENT, None}
        # Co-raters whose ratings are all zero: undefined despite support.
        assert any(
            rating_cosine(i, j, ratings) is None and raters[i] & raters[j]
            for i in items for j in items if i != j
        )

    def test_latest_row_is_reused(self):
        ratings, index = row_world(3, 1.0)
        provider = make_provider("cb", index=index)
        a = provider.row(5, ratings.arrays.items)
        assert provider.row(5, ratings.arrays.items) is a
        assert provider.row(6, ratings.arrays.items) is not a

    def test_cb_rows_over_any_dataset(self):
        ratings, index = row_world(3, 1.0)
        other = ratings.subset(range(0, len(ratings), 2))
        provider = make_provider("cb", index=index)
        for data in (ratings, other, ratings):
            row = provider.row(5, data.arrays.items)
            for p, j in enumerate(data.arrays.items.tolist()):
                want = None if j == 5 else relf_sim(5, j, index)
                assert np.isnan(row[p]) if want is None else abs(row[p] - want.value) <= 1e-14

    @pytest.mark.parametrize("dim", [5, 16, 150])
    def test_identical_vectors_tie_exactly(self, dim):
        # Items 3, 41, 82 and 83 share one vector; 82 and 83 are the last
        # rows of the item matrix. Every item is rated, user 1 rates only
        # the tied items, and each tied item has its own mean.
        rng = np.random.default_rng(dim)
        tied = [3, 41, 82, 83]
        rows = [(1, j, r) for j, r in zip(tied, (5.0, 4.0, 2.0, 1.0))]
        rows += [(u, i, float(rng.integers(1, 6))) for u in range(2, 40) for i in range(1, 84) if rng.random() < 0.2]
        rows += [(40, i, 3.0) for i in range(1, 84)]
        ratings = dataset(rows)
        vectors = {i: rng.normal(size=dim) for i in range(1, 84)}
        for j in tied[1:]:
            vectors[j] = vectors[3].copy()
        index = synthdata.item_index(vectors, dim=dim)
        deviation = {j: r - ratings.item_means[j] for j, r in zip(tied, (5.0, 4.0, 2.0, 1.0))}
        assert len(set(deviation.values())) == len(tied)
        ids = ratings.arrays.items
        cold = HybridPolicy(tau_pair=1, tau_item=1000)
        positions = [int(ids.searchsorted(j)) for j in tied]
        assert positions[-2:] == [len(ids) - 2, len(ids) - 1]
        place = {j: p for p, j in enumerate(ids.tolist())}
        for provider in (make_provider("cb", index=index), make_provider("hybrid", ratings, index, cold)):
            matrix = np.array([provider.row(t, ids) for t in ids.tolist()])
            sim = lambda i, j: float(matrix[place[i], place[j]])  # noqa: E731
            assert np.array_equal(matrix, matrix.T, equal_nan=True)
            ties = matrix[:, positions]
            for t, cells in zip(ids.tolist(), ties):
                defined = cells[~np.isnan(cells)]
                assert len(defined) == len(tied) - (t in tied), t
                assert (defined == defined[0]).all(), t
                if t in tied or defined[0] <= 0.0:
                    continue
                pred = predict_rating(1, t, ratings, provider, PredictionConfig(k=1))
                want, _detail, used = oracles.knn_prediction(1, t, ratings.records, sim, 1)
                assert pred.neighbors_used == used == 1
                assert pred.value == want, t


class TestTopSimilar:
    def test_ranking_and_truncation(self):
        values = {(1, 2): 0.9, (1, 3): 0.9, (1, 4): 0.5, (1, 5): np.nan}
        provider = stub_provider(values, rating_pairs={(1, 3), (1, 4), (1, 5)})
        top = top_similar_items(provider, 1, n=2)
        assert top == [(2, 0.9, SOURCE_CONTENT), (3, 0.9, SOURCE_RATING)]  # tie broken by ascending id
        top3 = top_similar_items(provider, 1, n=10)
        assert [j for j, _, _ in top3] == [2, 3, 4]  # 5 undefined, self excluded

    def test_n_below_one_rejected(self):
        provider = stub_provider({(1, 2): 0.9, (1, 3): 0.5})
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                top_similar_items(provider, 1, n=n)

    @pytest.mark.parametrize("kind", PREDICTORS)
    def test_ranks_like_the_reference_functions(self, kind):
        ratings, index = row_world(3, 0.5)
        provider = make_provider(kind, ratings, index)
        reference = {
            "cf": lambda i, j: rating_cosine(i, j, ratings) if j in ratings.arrays.position else None,
            "cb": lambda i, j: relf_sim(i, j, index),
            "hybrid": lambda i, j: hybrid_sim(i, j, ratings, index, HybridPolicy()),
        }[kind]
        for i in provider.items.tolist():
            scored = [(j, reference(i, j)) for j in provider.items.tolist() if j != i]
            want = sorted(((j, sv) for j, sv in scored if sv is not None), key=lambda t: (-t[1].value, t[0]))
            got = top_similar_items(provider, i, n=len(provider.items))
            assert [(j, sv.source) for j, sv in want] == [(j, source) for j, _, source in got]
            assert np.allclose([sv.value for _, sv in want], [value for _, value, _ in got], rtol=0.0, atol=1e-14)
