"""Skip-gram training: vocabulary, sampler, gradient, persistence."""

import io
import math
import re

import numpy as np
import pytest

from relfrec import embed
from relfrec.embed import (
    NegativeSampler,
    TrainConfig,
    Vocabulary,
    build_vocabulary,
    load_embeddings,
    save_embeddings,
    sgns_pair_update,
    train_skipgram,
)
from relfrec.errors import DataError, NumericDivergenceError
from relfrec.ingest import FeatureSentence

import synthdata


def sentences_of(*token_lists):
    return [
        FeatureSentence(item_id=i + 1, tokens=tuple(tokens))
        for i, tokens in enumerate(token_lists)
    ]


def pair_loss(center, context, negatives):
    """Reference value of the negative pair objective."""
    loss = np.logaddexp(0.0, -(context @ center))
    for nv in negatives:
        loss += np.logaddexp(0.0, nv @ center)
    return float(loss)


class TestVocabulary:
    def test_counts_and_index_order(self):
        vocab = build_vocabulary(sentences_of(["a", "b"], ["a", "c"]), min_count=1)
        assert vocab.tokens[0] == "a"
        assert dict(zip(vocab.tokens, vocab.counts)) == {"a": 2, "b": 1, "c": 1}
        assert vocab.index["a"] == 0

    def test_min_count_threshold(self):
        vocab = build_vocabulary(sentences_of(["a", "b"], ["a", "c"]), min_count=2)
        assert vocab.tokens == ["a"]

    def test_ties_broken_lexicographically(self):
        vocab = build_vocabulary(sentences_of(["z", "b"], ["m"]), min_count=1)
        assert vocab.tokens == ["b", "m", "z"]

    def test_empty_vocabulary_fatal(self):
        with pytest.raises(DataError):
            build_vocabulary(sentences_of(["a"]), min_count=5)

    def test_indices_contiguous(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n_sent = int(rng.integers(1, 8))
            sents = sentences_of(
                *[
                    [f"t{int(rng.integers(0, 12))}" for _ in range(int(rng.integers(1, 6)))]
                    for _ in range(n_sent)
                ]
            )
            vocab = build_vocabulary(sents, min_count=1)
            assert sorted(vocab.index.values()) == list(range(len(vocab)))


class TestNegativeSampler:
    def test_probabilities_sum_to_one(self):
        sampler = NegativeSampler(np.array([5, 1, 3, 9]), 0.75)
        assert sampler.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert (sampler.probabilities > 0).all()

    def test_empirical_distribution_matches_power_law(self):
        rng = np.random.default_rng(123)
        counts = np.arange(1, 11, dtype=np.int64) * 3
        sampler = NegativeSampler(counts, 0.75)
        draws = sampler.draw(rng, 1_000_000)
        empirical = np.bincount(draws, minlength=10) / 1e6
        expected = counts**0.75 / (counts**0.75).sum()
        assert np.abs(empirical - expected).max() < 0.01

    def test_exclude_is_resampled(self):
        rng = np.random.default_rng(5)
        sampler = NegativeSampler(np.array([100, 1]), 0.75)
        draws = sampler.draw(rng, 5000, exclude=0)
        assert (draws != 0).all()

    def test_degenerate_vocabulary_fatal(self):
        rng = np.random.default_rng(5)
        sampler = NegativeSampler(np.array([3]), 0.75)
        with pytest.raises(DataError, match="entire sampling mass"):
            sampler.draw(rng, 4, exclude=0)

    def test_one_token_vocabulary_fatal_in_training(self):
        cfg = TrainConfig(window=1, dim=4, negatives=2, epochs=1, seed=1)
        with pytest.raises(DataError, match="entire sampling mass"):
            train_skipgram(sentences_of(["a", "a"]), cfg)

    def test_exhausted_resampling_fatal(self):
        # Token 1 keeps 1e-12 of the mass: every redraw hits token 0 again.
        rng = np.random.default_rng(5)
        sampler = NegativeSampler(np.array([10**12, 1]), 1.0)
        with pytest.raises(DataError, match="1000 resampling rounds"):
            sampler.draw(rng, 4, exclude=0)

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            NegativeSampler(np.array([1, 0, 2]), 0.75)


class TestPairUpdate:
    def test_zero_vectors_closed_form_loss(self):
        dim, n_neg = 6, 5
        center = np.zeros(dim)
        context = np.zeros(dim)
        negatives = [np.zeros(dim) for _ in range(n_neg)]
        loss = sgns_pair_update(center, context, negatives, lr=0.1)
        assert loss == pytest.approx((n_neg + 1) * math.log(2), abs=1e-12)

    def test_zero_learning_rate_keeps_vectors(self):
        rng = np.random.default_rng(3)
        center = rng.uniform(-1, 1, 4)
        context = rng.uniform(-1, 1, 4)
        negatives = [rng.uniform(-1, 1, 4) for _ in range(3)]
        snapshot = (center.copy(), context.copy(), [v.copy() for v in negatives])
        loss = sgns_pair_update(center, context, negatives, lr=0.0)
        assert loss == pytest.approx(pair_loss(*snapshot), abs=1e-12)
        assert np.array_equal(center, snapshot[0])
        assert np.array_equal(context, snapshot[1])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h, lr = 1e-6, 0.37
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 8))
            n_neg = int(rng.integers(1, 5))
            vecs = [rng.uniform(-1, 1, dim) for _ in range(n_neg + 2)]
            before = [v.copy() for v in vecs]
            sgns_pair_update(vecs[0], vecs[1], vecs[2:], lr)
            analytic = [(b - v) / lr for b, v in zip(before, vecs)]
            for idx in range(len(before)):
                for coord in range(dim):
                    probe = [b.copy() for b in before]
                    probe[idx][coord] += h
                    up = pair_loss(probe[0], probe[1], probe[2:])
                    probe[idx][coord] -= 2 * h
                    down = pair_loss(probe[0], probe[1], probe[2:])
                    estimate = (up - down) / (2 * h)
                    denom = max(abs(estimate), abs(analytic[idx][coord]), 1e-8)
                    worst = max(worst, abs(estimate - analytic[idx][coord]) / denom)
        assert worst <= 1e-5

    def test_updates_use_pre_update_values(self):
        # The center step must use the original output rows and the
        # output steps the original center, as if applied at once.
        rng = np.random.default_rng(8)
        center = rng.uniform(-1, 1, 5)
        context = rng.uniform(-1, 1, 5)
        negatives = [rng.uniform(-1, 1, 5) for _ in range(2)]
        c0, x0, n0 = center.copy(), context.copy(), [v.copy() for v in negatives]
        lr = 0.21
        sgns_pair_update(center, context, negatives, lr)
        from scipy.special import expit

        g_pos = 1.0 - expit(x0 @ c0)
        expected_context = x0 + lr * g_pos * c0
        assert np.allclose(context, expected_context, atol=1e-12)
        expected_center = c0 + lr * g_pos * x0
        for nv in n0:
            expected_center -= lr * expit(nv @ c0) * nv
        assert np.allclose(center, expected_center, atol=1e-12)

    def test_dimension_mismatch_fatal(self):
        with pytest.raises(ValueError):
            sgns_pair_update(np.zeros(3), np.zeros(4), [], lr=0.1)
        with pytest.raises(ValueError):
            sgns_pair_update(np.zeros(3), np.zeros(3), [np.zeros(2)], lr=0.1)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.window, cfg.dim, cfg.negatives, cfg.min_count, cfg.epochs) == (8, 150, 25, 1, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(window=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(epochs=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(initial_lr=0.01, final_lr=0.02).validate()
        with pytest.raises(ValueError):
            TrainConfig(negatives=-1).validate()


class TestTrainSkipgram:
    def test_deterministic_for_fixed_seed(self):
        sents = sentences_of(["a", "b", "c"], ["b", "c", "d"], ["a", "d"])
        cfg = TrainConfig(window=2, dim=8, negatives=4, epochs=3, seed=13)
        t1 = train_skipgram(sents, cfg)
        t2 = train_skipgram(sents, cfg)
        assert np.array_equal(t1.input_vectors, t2.input_vectors)
        assert np.array_equal(t1.output_vectors, t2.output_vectors)
        assert t1.epoch_losses == t2.epoch_losses

    def test_seed_changes_result(self):
        sents = sentences_of(["a", "b", "c"], ["b", "c", "d"])
        cfg = TrainConfig(window=2, dim=8, negatives=4, epochs=2, seed=13)
        other = TrainConfig(window=2, dim=8, negatives=4, epochs=2, seed=14)
        assert not np.array_equal(
            train_skipgram(sents, cfg).input_vectors,
            train_skipgram(sents, other).input_vectors,
        )

    def test_shared_context_tokens_become_similar(self):
        # a and b only ever appear next to "hub", c and d next to "oth":
        # tokens with the same context distribution must end up close.
        lists = ([["a", "hub"], ["b", "hub"]] * 10) + ([["c", "oth"], ["d", "oth"]] * 10)
        cfg = TrainConfig(window=1, dim=8, negatives=3, epochs=30, seed=7)
        table = train_skipgram(sentences_of(*lists), cfg)

        def cos(x, y):
            vx, vy = table.vector(x), table.vector(y)
            return float(vx @ vy / (np.linalg.norm(vx) * np.linalg.norm(vy)))

        assert cos("a", "b") > cos("a", "c")
        assert cos("a", "b") > cos("b", "d")
        assert cos("c", "d") > cos("a", "c")

    def test_learning_rate_decay_endpoints(self):
        # One two-token sentence, negatives=0: with zero-initialized
        # output vectors the first update leaves the center row intact
        # and writes 0.5 * lr * center into the context row, so both
        # scheduled rates can be read back from the trained table.
        sents = sentences_of(["a", "b"])
        cfg = TrainConfig(
            window=1, dim=6, negatives=0, epochs=1,
            initial_lr=0.4, final_lr=0.1, seed=9,
        )
        table = train_skipgram(sents, cfg)
        ia, ib = table.vocab.index["a"], table.vocab.index["b"]
        first_lr = 2.0 * table.output_vectors[ib] / table.input_vectors[ia]
        assert np.allclose(first_lr, cfg.initial_lr, atol=1e-12)
        # second (= last planned) visit: initial - span * 1/2, above the floor
        last_lr = 2.0 * table.output_vectors[ia] / table.input_vectors[ib]
        expected = cfg.initial_lr - (cfg.initial_lr - cfg.final_lr) * 0.5
        assert np.allclose(last_lr, expected, atol=1e-12)
        assert (last_lr >= cfg.final_lr).all()

    def test_oov_only_sentences_skipped(self):
        sents = sentences_of(["a", "a", "b", "b"], ["z"])
        # min_count=2 drops z; the second sentence becomes empty and is skipped
        cfg = TrainConfig(window=2, dim=4, negatives=2, epochs=2, min_count=2, seed=1)
        table = train_skipgram(sents, cfg)
        assert set(table.vocab.tokens) == {"a", "b"}
        assert len(table.epoch_losses) == 2

    def test_divergence_raises_with_epoch_and_token(self):
        sents = sentences_of(*[["a", "b", "c", "a", "b"]] * 6)
        cfg = TrainConfig(
            window=2, dim=4, negatives=5, epochs=3,
            initial_lr=1e155, final_lr=1e155, seed=2,
        )
        with pytest.raises(NumericDivergenceError, match="epoch"):
            train_skipgram(sents, cfg)

    def test_loss_decreases_on_structured_corpus(self, clique_model):
        losses = clique_model["table"].epoch_losses
        assert losses[-1] < losses[0]

    def test_intra_clique_beats_inter_clique(self, clique_model):
        table = clique_model["table"]
        intra_a = synthdata.mean_pairwise_cosine(table, clique_model["clique_a"])
        intra_b = synthdata.mean_pairwise_cosine(table, clique_model["clique_b"])
        inter = synthdata.mean_pairwise_cosine(
            table, clique_model["clique_a"], clique_model["clique_b"]
        )
        assert (intra_a + intra_b) / 2 > inter


def replay_training(sentences, config):
    """Training re-enacted pair by pair with sgns_pair_update.

    Makes the trainer's RNG calls in its order (one window draw per
    center, one NegativeSampler.draw per pair) on the same schedule and
    applies each pair to views of the syn0/syn1 rows. Returns (input
    vectors, output vectors, epoch losses, pairs whose rows were all
    distinct, pairs).
    """
    vocab = build_vocabulary(sentences, config.min_count)
    encoded = [[vocab.index[t] for t in s.tokens if t in vocab.index] for s in sentences]
    encoded = [ids for ids in encoded if ids]
    init_rng = np.random.default_rng(config.seed)
    syn0 = (init_rng.random((len(vocab), config.dim)) - 0.5) / config.dim
    syn1 = np.zeros((len(vocab), config.dim))
    sampler = NegativeSampler(vocab.counts, config.ns_exponent)
    rng = np.random.default_rng([config.seed, 0])
    total = config.epochs * sum(len(ids) for ids in encoded)
    lr_span = config.initial_lr - config.final_lr
    visit = distinct = pairs = 0
    losses = []
    for _ in range(config.epochs):
        loss_sum, n_pairs = 0.0, 0
        for sent in encoded:
            for pos, center in enumerate(sent):
                lr = max(config.initial_lr - lr_span * (visit / total), config.final_lr)
                visit += 1
                b = int(rng.integers(1, config.window + 1))
                for pos2 in range(max(pos - b, 0), min(pos + b + 1, len(sent))):
                    if pos2 == pos:
                        continue
                    context = sent[pos2]
                    negs = sampler.draw(rng, config.negatives, exclude=context).tolist() if config.negatives else []
                    distinct += len({context, *negs}) == len(negs) + 1
                    loss_sum += sgns_pair_update(syn0[center], syn1[context], [syn1[n] for n in negs], lr)
                    n_pairs += 1
        losses.append(loss_sum / n_pairs)
        pairs += n_pairs
    return syn0, syn1, losses, distinct, pairs


class TestTrainingReplay:
    """train_skipgram equals pair-by-pair sgns_pair_update bit for bit."""

    def assert_replayed(self, sentences, config):
        table = train_skipgram(sentences, config)
        syn0, syn1, losses, distinct, pairs = replay_training(sentences, config)
        assert np.array_equal(table.input_vectors, syn0)
        assert np.array_equal(table.output_vectors, syn1)
        assert np.array_equal(table.epoch_losses, losses)
        return distinct, pairs

    def test_every_pair_repeats_rows(self, monkeypatch):
        # 26 output rows over a 20-token vocabulary always repeat some,
        # and a small loss chunk makes the loss sum cross many chunks.
        monkeypatch.setattr(embed, "_LOSS_CHUNK", 7)
        sentences, _a, _b = synthdata.two_clique_corpus(seed=3, n_sentences=30)
        cfg = TrainConfig(window=8, dim=16, negatives=25, epochs=2, seed=4)
        distinct, pairs = self.assert_replayed(sentences, cfg)
        assert distinct == 0 and pairs > 0

    def test_mostly_distinct_rows_at_dim_150(self):
        _ratings, _catalog, sentences = synthdata.genre_world(
            seed=5, n_users=4, n_items=40, ratings_per_user=3
        )
        cfg = TrainConfig(window=8, dim=150, negatives=5, epochs=2, seed=6)
        distinct, pairs = self.assert_replayed(sentences, cfg)
        assert pairs > distinct > pairs // 2

    def test_without_negatives(self):
        _ratings, _catalog, sentences = synthdata.genre_world(
            seed=5, n_users=4, n_items=20, ratings_per_user=3
        )
        cfg = TrainConfig(window=5, dim=12, negatives=0, epochs=2, seed=7)
        self.assert_replayed(sentences, cfg)


class TestEmbeddingTable:
    def test_vector_lookup_and_contains(self):
        sents = sentences_of(["a", "b"])
        table = train_skipgram(sents, TrainConfig(window=1, dim=4, negatives=1, epochs=1, seed=3))
        assert "a" in table
        assert "zz" not in table
        assert table.vector("a").shape == (4,)
        with pytest.raises(KeyError):
            table.vector("zz")

    def test_most_similar_excludes_query_and_ranks(self, clique_model):
        table = clique_model["table"]
        top = table.most_similar("a0", n=3)
        assert len(top) == 3
        assert all(tok != "a0" for tok, _ in top)
        sims = [s for _, s in top]
        assert sims == sorted(sims, reverse=True)

    def test_most_similar_n_below_one_rejected(self):
        table = train_skipgram(sentences_of(["a", "b", "c"]), TrainConfig(window=1, dim=4, negatives=1, epochs=1, seed=3))
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                table.most_similar("a", n=n)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        sents = sentences_of(["a", "b", "c"], ["b", "c"])
        table = train_skipgram(sents, TrainConfig(window=2, dim=5, negatives=3, epochs=2, seed=11))
        path = tmp_path / "vecs.txt"
        save_embeddings(table, path)
        loaded = load_embeddings(path)
        assert loaded.vocab.tokens == table.vocab.tokens
        assert np.array_equal(loaded.input_vectors, table.input_vectors)
        assert loaded.output_vectors is None

    def test_header_shape(self, tmp_path):
        sents = sentences_of(["a", "b"])
        table = train_skipgram(sents, TrainConfig(window=1, dim=7, negatives=1, epochs=1, seed=3))
        path = tmp_path / "vecs.txt"
        save_embeddings(table, path)
        first = path.read_text().splitlines()[0]
        assert first == "2 7"

    def test_missing_path_fatal_naming_it(self, tmp_path):
        path = tmp_path / "absent.txt"
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_embeddings(path)

    def test_stale_ctx_file_beside_is_ignored(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 2\na 0.1 0.2\nb 0.3 0.4\n")
        alone = load_embeddings(path)
        (tmp_path / "vecs.txt.ctx").write_bytes(b"2 2\na 3 0.5 nan\n\xff\xfe garbage\n")
        beside = load_embeddings(path)
        assert beside.vocab.tokens == alone.vocab.tokens == ["a", "b"]
        assert beside.vocab.counts.tolist() == alone.vocab.counts.tolist() == [1, 1]
        assert np.array_equal(beside.input_vectors, alone.input_vectors)
        assert beside.output_vectors is None

    def test_row_arity_mismatch_fatal_with_line(self):
        bad = "2 3\na 0.1 0.2 0.3\nb 0.1 0.2\n"
        with pytest.raises(DataError, match="line 3"):
            load_embeddings(io.StringIO(bad))

    def test_row_count_mismatch_fatal(self):
        bad = "2 3\na 0.1 0.2 0.3\nb 0.1 0.2 0.3\nc 0.1 0.2 0.3\n"
        with pytest.raises(DataError):
            load_embeddings(io.StringIO(bad))
        short = "2 3\na 0.1 0.2 0.3\n"
        with pytest.raises(DataError):
            load_embeddings(io.StringIO(short))

    def test_malformed_header_fatal(self):
        with pytest.raises(DataError, match="line 1"):
            load_embeddings(io.StringIO("not a header\n"))

    def test_non_finite_component_fatal_with_file_and_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        for value in ("nan", "inf", "-inf"):
            path.write_text(f"2 2\na 0.1 0.2\nb {value} 1.0\n")
            with pytest.raises(DataError, match=f"{re.escape(str(path))} line 3: non-finite"):
                load_embeddings(path)

    def test_huge_header_counts_fatal_with_file_and_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        for header, line in (("99999999999 2", 3), ("1 99999999999", 2)):
            path.write_text(f"{header}\na 0.1 0.2\n")
            with pytest.raises(DataError, match=f"{re.escape(str(path))} line {line}: expected"):
                load_embeddings(path)

    def test_duplicate_token_fatal(self):
        bad = "2 2\na 0.1 0.2\na 0.3 0.4\n"
        with pytest.raises(DataError):
            load_embeddings(io.StringIO(bad))

    def test_whitespace_token_rejected_at_save(self):
        from relfrec.embed import EmbeddingTable

        table = EmbeddingTable(
            vocab=Vocabulary(tokens=["bad token"], counts=np.array([1])),
            input_vectors=np.zeros((1, 2)),
            output_vectors=np.zeros((1, 2)),
        )
        with pytest.raises(DataError):
            save_embeddings(table, io.StringIO())
