"""Skip-gram training: vocabulary, sampler, gradient, persistence."""

import bisect
import dataclasses
import io
import logging
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from relfrec import embed
from relfrec.embed import (
    EmbeddingTable,
    NegativeSampler,
    TrainConfig,
    Vocabulary,
    _plan_steps,
    _train_step,
    build_vocabulary,
    load_embeddings,
    save_embeddings,
    sgns_pair_update,
    train_skipgram,
)
from relfrec.errors import DataError, NumericDivergenceError
from relfrec.ingest import FeatureSentence

import oracles
import synthdata


def sentences_of(*token_lists):
    return [
        FeatureSentence(item_id=i + 1, tokens=tuple(tokens))
        for i, tokens in enumerate(token_lists)
    ]


class TestVocabulary:
    def test_counts_and_index_order(self):
        vocab = build_vocabulary(sentences_of(["a", "b"], ["a", "c"]))
        assert vocab.tokens[0] == "a"
        assert dict(zip(vocab.tokens, vocab.counts)) == {"a": 2, "b": 1, "c": 1}
        assert vocab.index["a"] == 0

    def test_ties_broken_lexicographically(self):
        vocab = build_vocabulary(sentences_of(["z", "b"], ["m"]))
        assert vocab.tokens == ["b", "m", "z"]

    def test_empty_vocabulary_fatal(self):
        for sentences in ([], sentences_of([], [])):
            with pytest.raises(DataError, match="vocabulary is empty"):
                build_vocabulary(sentences)

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
            vocab = build_vocabulary(sents)
            assert sorted(vocab.index.values()) == list(range(len(vocab)))

    def test_encode_matches_a_per_sentence_loop(self):
        sents = sentences_of(["a", "x", "a", "b"], ["x"], [], ["c", "b", "y"], ["a"])
        vocab = build_vocabulary(sentences_of(["a", "b", "c"]))
        indices, counts = vocab.encode(sents)
        per_sentence = [[vocab.index[t] for t in s.tokens if t in vocab] for s in sents]
        assert indices.dtype == np.int64 and counts.tolist() == [3, 0, 0, 2, 1]
        assert indices.tolist() == [i for ids in per_sentence for i in ids]
        empty_indices, empty_counts = vocab.encode([])
        assert empty_indices.dtype == np.int64 and len(empty_indices) == 0 and len(empty_counts) == 0


# Sampler vocabularies: tiny ones, the size of the benchmark's
# train-embed vocabulary, and one token with ~97% of the mass.
SAMPLER_COUNTS = {
    "2": [3, 1],
    "3": [5, 2, 1],
    "276": np.sort(np.random.default_rng(3).integers(1, 400, size=276))[::-1],
    "skewed": [1000, 1, 1, 1, 1, 1],
}


class TestNegativeSampler:
    def test_probabilities_sum_to_one(self):
        sampler = NegativeSampler(np.array([5, 1, 3, 9]))
        assert sampler.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert (sampler.probabilities > 0).all()

    def test_empirical_distribution_matches_power_law(self):
        rng = np.random.default_rng(123)
        counts = np.arange(1, 11, dtype=np.int64) * 3
        sampler = NegativeSampler(counts)
        expected = counts**0.75 / (counts**0.75).sum()
        assert np.allclose(sampler.probabilities, expected, atol=1e-15)
        draws = sampler.draw(rng, (200_000, 5))
        assert draws.shape == (200_000, 5) and draws.dtype == np.int64
        empirical = np.bincount(draws.ravel(), minlength=10) / draws.size
        assert np.abs(empirical - expected).max() < 0.002
        assert sampler.draw(rng, (0, 7)).shape == (0, 7)

    def test_degenerate_vocabulary_fatal(self):
        # In the second, token 1's weight vanishes next to token 0's.
        for counts in ([3], [1e30, 1]):
            with pytest.raises(DataError, match="token index 0 carries the entire sampling mass"):
                NegativeSampler(np.array(counts))

    def test_one_token_vocabulary_fatal_in_training(self):
        cfg = TrainConfig(window=1, dim=4, negatives=2, epochs=1, seed=1)
        with pytest.raises(DataError, match="entire sampling mass"):
            train_skipgram(sentences_of(["a", "a"]), cfg)

    @pytest.mark.parametrize("name", list(SAMPLER_COUNTS))
    @pytest.mark.parametrize("seed", range(4))
    def test_draw_equals_the_whole_block_redraw_rule(self, name, seed):
        # With nothing excluded the whole-block rule has no redraw round:
        # one rng.random block of the whole shape, read in row-major order.
        sampler = NegativeSampler(np.asarray(SAMPLER_COUNTS[name]))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = sampler.draw(rng, (300, 25))
        expected = sampler.cumulative.searchsorted(ref_rng.random((300, 25)), side="right")
        assert draws.dtype == expected.dtype and np.array_equal(draws, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            NegativeSampler(np.array([1, 0, 2]))


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
        assert loss == pytest.approx(oracles.sgns_pair_loss(*snapshot), abs=1e-12)
        assert np.array_equal(center, snapshot[0])
        assert np.array_equal(context, snapshot[1])

    def test_gradient_matches_finite_differences(self):
        assert oracles.pair_gradient_error(sgns_pair_update, np.random.default_rng(42)) <= 1e-5

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestElementwise:
    """The step's sigmoid and pair loss against scipy's expit and numpy's
    logaddexp; neither lets a RuntimeWarning escape."""

    EDGES = np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0,
                      800.0, -800.0, np.inf, -np.inf, np.nan])

    def test_sigmoid_within_one_ulp_of_expit_at_the_edges(self):
        np.testing.assert_array_max_ulp(embed._sigmoid(self.EDGES), expit(self.EDGES), maxulp=1)

    def test_softplus_within_1e_15_of_logaddexp_at_the_edges(self):
        got = embed._softplus(self.EDGES)
        with np.errstate(invalid="ignore"):
            want = np.logaddexp(0.0, self.EDGES)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_sigmoid_and_softplus_over_a_sweep(self):
        # 1 + exp(-x) rounds, so near x = -37, where the sigmoid is about
        # 1e-16, it differs from expit by a few ulps.
        x = np.linspace(-60.0, 60.0, 200_000).reshape(400, -1)
        np.testing.assert_array_max_ulp(embed._sigmoid(x), expit(x), maxulp=4)
        np.testing.assert_allclose(embed._softplus(x), np.logaddexp(0.0, x), rtol=0, atol=1e-14)

    def test_importing_the_cli_leaves_scipy_special_out(self):
        import relfrec

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(relfrec.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", "import sys, relfrec.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout == "[]\n"


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.window, cfg.dim, cfg.negatives, cfg.epochs, cfg.seed) == (8, 150, 25, 20, 1)
        assert [f.name for f in dataclasses.fields(TrainConfig)] == ["window", "dim", "negatives", "epochs", "seed"]

    def test_schedule_and_exponent_are_word2vec_constants(self):
        assert (embed._INITIAL_LR, embed._FINAL_LR, embed._NS_EXPONENT) == (0.025, 1e-4, 0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(window=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(negatives=-1)
        with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
            TrainConfig(dim=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        for name in ("window", "dim", "negatives", "epochs", "seed"):
            for value in (2.5, 1.5, 4.0, "5", True, None):
                with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
                    TrainConfig(**{name: value})
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.window = 2
        assert cfg.window == 8


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
        cfg = TrainConfig(window=1, dim=6, negatives=0, epochs=1, seed=9)
        table = train_skipgram(sents, cfg)
        ia, ib = table.vocab.index["a"], table.vocab.index["b"]
        first_lr = 2.0 * table.output_vectors[ib] / table.input_vectors[ia]
        assert np.allclose(first_lr, 0.025, atol=1e-12)
        # second (= last planned) visit: 0.025 - span * 1/2, above the floor
        last_lr = 2.0 * table.output_vectors[ia] / table.input_vectors[ib]
        assert np.allclose(last_lr, 0.025 - (0.025 - 1e-4) * 0.5, atol=1e-12)

    def test_sentence_without_tokens_skipped(self):
        sents = sentences_of(["a", "a", "b", "b"], [], ["b", "a"])
        cfg = TrainConfig(window=2, dim=4, negatives=2, epochs=2, seed=1)
        table = train_skipgram(sents, cfg)
        assert table.vocab.tokens == ["a", "b"]
        expected = train_skipgram([s for s in sents if s.tokens], cfg)
        assert np.array_equal(table.input_vectors, expected.input_vectors)
        assert table.epoch_losses == expected.epoch_losses

    def test_corpus_without_a_pair_is_a_data_error(self):
        sents = sentences_of(["a"], ["b"], [], ["a"])
        cfg = TrainConfig(window=2, dim=4, negatives=2, epochs=1, seed=1)
        with pytest.raises(DataError, match=r"no \(center, context\) pair to train: every sentence has fewer than two"):
            train_skipgram(sents, cfg)

    def test_divergence_raises_with_epoch_and_token(self, monkeypatch):
        monkeypatch.setattr(embed, "_INITIAL_LR", 1e155)
        monkeypatch.setattr(embed, "_FINAL_LR", 1e155)
        sents = sentences_of(*[["a", "b", "c", "a", "b"]] * 6)
        cfg = TrainConfig(window=2, dim=4, negatives=5, epochs=3, seed=2)
        with pytest.raises(NumericDivergenceError, match=r"non-finite \w+ vector for token '[abc]' at epoch \d"):
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


# Lanes trained side by side, as the embed module documents it.
LOCKSTEP = 64


def replay_training(sentences, config):
    """Training re-enacted from its documented schedule, one pair at a time.

    Makes the trainer's draws in its documented order with its own
    code: for each epoch, one window draw for all its centers, then one
    row of negatives per step, in step order. Sentences enter LOCKSTEP
    lanes in corpus order, each as soon as a lane is free; a sentence
    without pairs takes none. Step t then trains the next pair of every
    sentence in a lane, in sentence order, reading the rows the previous
    step left, and every pair of the step takes the step's row of
    negatives. The step's arithmetic is the kernel's: each pair's
    context score is its row-wise dot with the center, and the negative
    scores are the stacked incoming centers V times the step's block.
    Each pair takes the loss and gradient of sgns_pair_update, with a
    negative that equals its context skipped: its gradient is zeroed and
    its term left out of the loss. The centers move by ``grad_neg @ block
    + grad_ctx * context``, one pair at a time. Each output row gains its
    row of ``M @ V``: M sums, as Python floats, the row's gradients in
    each sentence. The epoch's losses are added in corpus order.
    Returns (input vectors, output vectors, epoch losses, counts, pairs per epoch,
    skipped negatives per epoch); counts has the pairs whose rows were
    all distinct, the output rows and centers that a step shared between
    sentences, and the sentences that entered a lane after the first step.
    """
    vocab = build_vocabulary(sentences)
    encoded = [[vocab.index[t] for t in s.tokens] for s in sentences]
    encoded = [ids for ids in encoded if ids]
    init_rng = np.random.default_rng(config.seed)
    syn0 = (init_rng.random((len(vocab), config.dim)) - 0.5) / config.dim
    syn1 = np.zeros((len(vocab), config.dim))
    cumulative = np.cumsum(vocab.counts.astype(np.float64) ** 0.75)
    cumulative /= cumulative[-1]
    cumulative[-1] = 1.0
    cumulative = cumulative.tolist()
    n_neg = config.negatives
    rng = np.random.default_rng([config.seed, 0])
    n_tokens = sum(len(ids) for ids in encoded)
    total = config.epochs * n_tokens
    lr_span = embed._INITIAL_LR - embed._FINAL_LR
    visit = 0
    counts = {"distinct pairs": 0, "shared rows": 0, "shared centers": 0, "late entries": 0}
    losses, pairs, skipped = [], [], []
    for _ in range(config.epochs):
        n_skipped = 0
        spans = iter(rng.integers(1, config.window + 1, size=n_tokens).tolist())
        queues = []  # per sentence: (index in corpus order, center, lr, context)
        n_pairs = 0
        for sent in encoded:
            queue = []
            for pos, center in enumerate(sent):
                b = next(spans)
                lr = max(embed._INITIAL_LR - lr_span * (visit / total), embed._FINAL_LR)
                visit += 1
                for pos2 in range(max(pos - b, 0), min(pos + b + 1, len(sent))):
                    if pos2 != pos:
                        queue.append((n_pairs, center, lr, sent[pos2]))
                        n_pairs += 1
            queues.append(queue)
        waiting = [queue for queue in queues if queue]
        lanes = []  # [queue, place of its next pair], in sentence order
        pair_losses = [None] * n_pairs
        t = 0
        while lanes or waiting:
            while waiting and len(lanes) < LOCKSTEP:
                lanes.append([waiting.pop(0), 0])
                counts["late entries"] += t > 0
            step = [queue[i] for queue, i in lanes]
            lanes = [[queue, i + 1] for queue, i in lanes if i + 1 < len(queue)]
            t += 1
            negatives = [bisect.bisect_right(cumulative, u) for u in rng.random(n_neg).tolist()]
            incoming = np.array([syn0[center] for _i, center, _lr, _context in step])
            context_rows = syn1[[context for _i, _center, _lr, context in step]]
            block_rows = syn1[negatives]
            context_scores = np.matmul(context_rows[:, None, :], incoming[:, :, None])[:, 0, 0]
            negative_scores = incoming @ block_rows.T
            grads = np.empty((len(step), n_neg + 1))
            sums = {}  # output row -> {sentence column: gradient sum}
            for col, (i, center, lr, context) in enumerate(step):
                outs = [context] + negatives
                skip = np.array([n == context for n in negatives], dtype=bool)
                n_skipped += int(skip.sum())
                scores = np.concatenate(([context_scores[col]], negative_scores[col]))
                # The loss terms are log(1 + exp(s)) as max(s, 0) + log1p(exp(-|s|)),
                # the context's at -s; the sigmoid is 1 / (1 + exp(-s)).
                signed = np.concatenate(([-scores[0]], scores[1:]))
                terms = np.maximum(signed, 0.0) + np.log1p(np.exp(-np.abs(signed)))
                terms[1:][skip] = 0.0
                pair_losses[i] = float(terms[0] + terms[1:].sum())
                grad = -(1.0 / (1.0 + np.exp(-scores)))
                grad[0] += 1.0
                grad *= lr
                grad[1:][skip] = 0.0
                grads[col] = grad
                counts["distinct pairs"] += len(set(outs)) == len(outs)
                for row, g in zip(outs, grad.tolist()):
                    cell = sums.setdefault(row, {})
                    cell[col] = cell.get(col, 0.0) + g
            moves = grads[:, 1:] @ block_rows + grads[:, :1] * context_rows
            for (_i, center, _lr, _context), move in zip(step, moves):
                syn0[center] += move
            counts["shared centers"] += len(step) - len({center for _i, center, _lr, _context in step})
            touched = sorted(sums)
            m = np.zeros((len(touched), len(step)))
            for u, row in enumerate(touched):
                for col, g in sums[row].items():
                    m[u, col] = g
                counts["shared rows"] += len(sums[row]) > 1
            syn1[touched] += m @ incoming
        loss_sum = 0.0
        for loss in pair_losses:
            loss_sum += loss
        losses.append(loss_sum / n_pairs)
        pairs.append(n_pairs)
        skipped.append(n_skipped)
    return syn0, syn1, losses, counts, pairs, skipped


class TestTrainingReplay:
    """train_skipgram equals an independent replay of its lockstep schedule bit for bit."""

    def assert_replayed(self, sentences, config):
        table = train_skipgram(sentences, config)
        syn0, syn1, losses, counts, pairs, skipped = replay_training(sentences, config)
        assert np.array_equal(table.input_vectors, syn0)
        assert np.array_equal(table.output_vectors, syn1)
        assert np.array_equal(table.epoch_losses, losses)
        return counts, pairs, skipped

    def test_every_pair_repeats_rows(self):
        # 26 output rows over a 20-token vocabulary always repeat some,
        # and the 30 sentences, in lanes side by side, share rows and
        # centers. Many contexts are among their step's 25 negatives.
        sentences, _a, _b = synthdata.two_clique_corpus(seed=3, n_sentences=30)
        cfg = TrainConfig(window=8, dim=16, negatives=25, epochs=2, seed=4)
        counts, pairs, skipped = self.assert_replayed(sentences, cfg)
        assert counts["distinct pairs"] == 0 and min(pairs) > 0 and min(skipped) > 0
        assert counts["shared rows"] > 0 and counts["shared centers"] > 0

    def test_mostly_distinct_rows_at_dim_150(self):
        # 40 sentences, all in a lane from the first step.
        _ratings, _catalog, sentences = synthdata.genre_world(
            seed=5, n_users=4, n_items=40, ratings_per_user=3
        )
        cfg = TrainConfig(window=8, dim=150, negatives=5, epochs=2, seed=6)
        counts, pairs, _skipped = self.assert_replayed(sentences, cfg)
        assert sum(pairs) > counts["distinct pairs"] > sum(pairs) // 2

    def test_without_negatives(self):
        _ratings, _catalog, sentences = synthdata.genre_world(
            seed=5, n_users=4, n_items=20, ratings_per_user=3
        )
        cfg = TrainConfig(window=5, dim=12, negatives=0, epochs=2, seed=7)
        counts, _pairs, skipped = self.assert_replayed(sentences, cfg)
        assert counts["shared rows"] > 0 and skipped == [0, 0]

    def test_one_token_sentences_have_no_pairs(self):
        # A one-token sentence draws its window, takes no lane, and its
        # center still counts as a visit of the learning-rate schedule.
        sentences = sentences_of(*[["a"]] * 32, ["a"], ["a", "b", "c"], ["d"], ["b", "c", "d", "a"], ["c"])
        cfg = TrainConfig(window=2, dim=6, negatives=3, epochs=3, seed=8)
        _counts, pairs, _skipped = self.assert_replayed(sentences, cfg)
        assert min(pairs) > 0

    def test_lanes_refill_as_sentences_finish(self):
        # 150 sentences of 7 to 16 tokens: every sentence past the first
        # LOCKSTEP enters a lane that a finished sentence left.
        _ratings, _catalog, sentences = synthdata.genre_world(
            seed=5, n_users=4, n_items=150, ratings_per_user=3
        )
        cfg = TrainConfig(window=4, dim=12, negatives=5, epochs=2, seed=10)
        counts, _pairs, _skipped = self.assert_replayed(sentences, cfg)
        assert counts["late entries"] == cfg.epochs * (len(sentences) - LOCKSTEP)

    @pytest.mark.parametrize("chunk_pairs", [1, None, 10**9], ids=["one-step", "default", "whole-epoch"])
    def test_chunk_size_changes_no_bit(self, monkeypatch, chunk_pairs):
        # A chunk holds whole steps: one, the default's, or the epoch's.
        default = embed._CHUNK_PAIRS
        monkeypatch.setattr(embed, "_CHUNK_PAIRS", chunk_pairs or default)
        _ratings, _catalog, sentences = synthdata.genre_world(
            seed=6, n_users=4, n_items=150, ratings_per_user=3
        )
        cfg = TrainConfig(window=6, dim=8, negatives=4, epochs=2, seed=11)
        _counts, pairs, _skipped = self.assert_replayed(sentences, cfg)
        # The default splits each epoch into several chunks.
        assert min(pairs) > 2 * default

    def test_epoch_log_line_counts_the_replayed_pairs(self, caplog):
        # perfbench/tracer.py reads embed.pairs_per_s from "(N pairs)" here.
        # One token is a third of the mass, so some negatives are skipped.
        caplog.set_level(logging.INFO, logger="relfrec.embed")
        _ratings, _catalog, sentences = synthdata.genre_world(
            seed=5, n_users=4, n_items=20, ratings_per_user=3
        )
        sentences += sentences_of(["g0_dir0"])
        cfg = TrainConfig(window=4, dim=8, negatives=3, epochs=3, seed=9)
        train_skipgram(sentences, cfg)
        _syn0, _syn1, losses, _counts, pairs, skipped = replay_training(sentences, cfg)
        lines = [r.getMessage() for r in caplog.records if r.name == "relfrec.embed"]
        logged = [re.fullmatch(r"epoch (\d+)/3: mean pair loss (\S+) \((\d+) pairs\), (\d+) negatives skipped",
                               line).groups()
                  for line in lines]
        assert logged == [(str(e), f"{loss:.6f}", str(n), str(k))
                          for e, (loss, n, k) in enumerate(zip(losses, pairs, skipped), 1)]
        assert min(skipped) > 0


class TestLaneSchedule:
    """embed._lane_steps: which step trains each pair, pairs in corpus order."""

    def test_two_lanes_by_hand(self, monkeypatch):
        # Sentences 0 and 1 enter at step 0; 1 finishes first, so 3 takes
        # its lane at step 1 (2 has no pair); 4 takes 0's lane at step 3.
        monkeypatch.setattr(embed, "_LOCKSTEP", 2)
        steps = embed._lane_steps(np.array([3, 1, 0, 2, 1]))
        assert steps.tolist() == [0, 1, 2, 0, 1, 2, 3]

    @pytest.mark.parametrize("seed", range(4))
    def test_full_steps_of_distinct_sentences_in_order(self, seed):
        rng = np.random.default_rng(seed)
        pairs_per = rng.integers(0, 13, size=rng.integers(1, 300))
        steps = embed._lane_steps(pairs_per)
        sentence = np.arange(len(pairs_per)).repeat(pairs_per)
        first = (pairs_per.cumsum() - pairs_per)[sentence]
        start = steps[first]
        # A sentence's pairs fill consecutive steps, one each, in corpus order.
        assert np.array_equal(steps, start + np.arange(len(steps)) - first)
        # Sentences enter in corpus order.
        assert np.all(np.diff(start[first == np.arange(len(steps))]) >= 0)
        # A step's pairs come from distinct sentences, in sentence order.
        order = steps.argsort(kind="stable")
        for t in range(len(np.bincount(steps))):
            in_step = sentence[order][steps[order] == t]
            assert np.all(np.diff(in_step) > 0) and len(in_step) <= LOCKSTEP
        # No lane sits idle while a sentence waits: every sentence has
        # entered by the first step that is not full.
        sizes = np.bincount(steps, minlength=1)
        not_full = np.flatnonzero(sizes < LOCKSTEP)
        if len(steps):
            assert start.max() <= (not_full[0] if len(not_full) else len(sizes))


def train_steps(syn0, syn1, centers, contexts, blocks, lr, sizes):
    """Train pairs listed step by step (``sizes[t]`` in step t, all
    against negatives ``blocks[t]``) as the trainer does, through
    _plan_steps; return their scores and kept-negative masks."""
    blocks = np.asarray(blocks, dtype=np.int64)
    scores = np.empty((len(contexts), blocks.shape[1] + 1))
    keep = blocks.repeat(sizes, axis=0) != contexts[:, None]
    work = np.empty((2 * (max(sizes) + blocks.shape[1]), syn1.shape[1]))
    for block, step in zip(blocks, _plan_steps(centers, contexts, blocks, np.asarray(sizes), len(syn1))):
        _train_step(syn0, syn1, centers, contexts, block, lr, step, work, scores, keep)
    return scores, keep


def reference_step(syn0, syn1, centers, contexts, block, lr):
    """One step by sgns_pair_update: each pair updates copies of the
    step's incoming rows, with the negatives that equal its context left
    out, and every row gains the changes of all its pairs. Returns the
    new tables and the pairs' losses."""
    new0, new1, losses = syn0.copy(), syn1.copy(), []
    for c, ctx, rate in zip(centers, contexts, lr):
        kept = [n for n in block if n != ctx]
        center, context, negatives = syn0[c].copy(), syn1[ctx].copy(), [syn1[n].copy() for n in kept]
        losses.append(sgns_pair_update(center, context, negatives, rate))
        new0[c] += center - syn0[c]
        for row, vec in zip([ctx, *kept], [context, *negatives]):
            new1[row] += vec - syn1[row]
    return new0, new1, losses


class TestTrainStep:
    """One lockstep step on its own, against sgns_pair_update to 1e-12.

    The step's GEMMs add in another order than sgns_pair_update's
    per-pair products, so the two agree to rounding, not bit for bit.
    """

    @staticmethod
    def matrices(seed, n_rows=16, dim=7):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n_rows, dim)), rng.normal(size=(n_rows, dim)) * 0.3

    def assert_matches_reference(self, seed, centers, contexts, blocks, lr, sizes=None):
        """Train steps of ``sizes`` pairs (default one step of all) from
        ``matrices(seed)``, step t against ``blocks[t]``; check them
        against reference_step and return (before, after, reference) tables."""
        syn0, syn1 = self.matrices(seed)
        centers, contexts, lr = np.array(centers), np.array(contexts), np.array(lr)
        sizes = sizes or [len(centers)]
        ref0, ref1, ref_losses, ref_keep, a = syn0, syn1, [], [], 0
        for n, block in zip(sizes, blocks):
            pairs = slice(a, a + n)
            ref0, ref1, losses = reference_step(ref0, ref1, centers[pairs], contexts[pairs], block, lr[pairs])
            ref_losses += losses
            ref_keep += [[b != ctx for b in block] for ctx in contexts[pairs].tolist()]
            a += n
        s0, s1 = syn0.copy(), syn1.copy()
        scores, keep = train_steps(s0, s1, centers, contexts, blocks, lr, sizes)
        np.testing.assert_allclose(s0, ref0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(s1, ref1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(embed._pair_losses(scores, keep), ref_losses, rtol=0, atol=1e-12)
        assert keep.tolist() == ref_keep
        # Rows that no pair reads stay as they were, bit for bit.
        moved0 = np.unique(centers)
        moved1 = np.unique(np.concatenate((contexts, np.ravel(blocks))).astype(np.int64))
        assert np.array_equal(np.delete(s0, moved0, axis=0), np.delete(syn0, moved0, axis=0))
        assert np.array_equal(np.delete(s1, moved1, axis=0), np.delete(syn1, moved1, axis=0))
        return (syn0, syn1), (s0, s1), (ref0, ref1)

    @pytest.mark.parametrize("negatives", [0, 3])
    def test_distinct_rows_equal_sequential_pair_updates(self, negatives):
        # Distinct centers and contexts; the step's block shares no row
        # with them, so each pair's update is sgns_pair_update's.
        self.assert_matches_reference(1, [4, 0, 9], [8, 5, 2], [list(range(10, 10 + negatives))], [0.025, 0.5, 0.1])

    def test_negative_equal_to_the_context_is_skipped(self):
        # The context, row 5, is two of the pair's four negatives.
        (_syn0, syn1), (_s0, s1), _ref = self.assert_matches_reference(4, [3], [5], [[7, 5, 9, 5]], [0.3])
        assert not np.array_equal(s1[5], syn1[5])

    def test_shared_center_and_output_row_sum_their_updates(self):
        # Center 3 and context 5 serve both pairs, as does every row of
        # the block; each such row gains both pairs' updates.
        (syn0, syn1), (s0, s1), _ref = self.assert_matches_reference(2, [3, 3], [5, 5], [[6, 8]], [0.2, 0.3])
        v = syn0[3]
        grads = []
        for rate in (0.2, 0.3):
            grad = -expit(syn1[[5, 6, 8]] @ v)
            grad[0] += 1.0
            grads.append(grad * rate)
        for u, row in enumerate([5, 6, 8]):
            np.testing.assert_allclose(s1[row], syn1[row] + (grads[0][u] + grads[1][u]) * v, rtol=0, atol=1e-12)
        moves = [g[1:] @ syn1[[6, 8]] + g[0] * syn1[5] for g in grads]
        np.testing.assert_allclose(s0[3], (v + moves[0]) + moves[1], rtol=0, atol=1e-12)
        again0, again1 = syn0.copy(), syn1.copy()
        train_steps(again0, again1, np.array([3, 3]), np.array([5, 5]), [[6, 8]], np.array([0.2, 0.3]), [2])
        assert np.array_equal(s0, again0) and np.array_equal(s1, again1)

    def test_center_shared_by_three_sentences_moves_in_turn(self):
        # Center 2 serves sentences 0, 2 and 3. Row 5 is the context of
        # pairs 0 and 2 and a negative of the block, so those pairs skip
        # it; row 6 is a negative of every pair.
        centers, contexts, block = np.array([2, 9, 2, 2]), np.array([5, 7, 5, 13]), [5, 6, 11]
        syn0, syn1 = self.matrices(3)
        ((_pairs, rows, _firsts, _slots, lead, repeats),) = _plan_steps(
            centers, contexts, np.array([block]), np.array([4]), len(syn1))
        assert rows.tolist() == [5, 6, 7, 11, 13]
        assert lead.tolist() == [0, 1] and repeats == [2, 3]
        # A step of distinct centers leads with every column.
        ((*_, lead, repeats),) = _plan_steps(centers[:2], contexts[:2], np.array([block]), np.array([2]), len(syn1))
        assert lead.tolist() == [0, 1] and repeats == []
        _before, (s0, _s1), _ref = self.assert_matches_reference(3, centers, contexts, [block], [0.2, 0.3, 0.4, 0.1])
        moves = []
        for c, ctx, rate in zip(centers, contexts, [0.2, 0.3, 0.4, 0.1]):
            grad = -expit(syn1[[ctx, *block]] @ syn0[c])
            grad[0] += 1.0
            grad *= rate
            grad[1:] *= np.array(block) != ctx
            moves.append(grad[1:] @ syn1[block] + grad[0] * syn1[ctx])
        np.testing.assert_allclose(s0[2], ((syn0[2] + moves[0]) + moves[2]) + moves[3], rtol=0, atol=1e-12)
        np.testing.assert_allclose(s0[9], syn0[9] + moves[1], rtol=0, atol=1e-12)

    def test_block_holding_a_row_twice(self):
        # Row 6 is two of the first step's three negatives: each pair's
        # gradient on it counts twice. The second step's block differs,
        # and its pairs train on it alone.
        (_syn0, syn1), (_s0, s1), _ref = self.assert_matches_reference(
            5, [1, 4, 4, 1], [2, 3, 3, 6], [[6, 9, 6], [10, 11, 12]], [0.3, 0.2, 0.3, 0.2], sizes=[2, 2])
        assert not np.array_equal(s1[6], syn1[6])

    def test_context_of_one_pair_is_a_negative_of_another(self):
        # Row 7 is pair 1's context and a negative of the block: pair 0
        # pushes it away, pair 1 pulls it in and skips it as a negative.
        (syn0, syn1), (_s0, s1), (_ref0, ref1) = self.assert_matches_reference(
            6, [1, 4], [2, 7], [[7, 8]], [0.3, 0.2])
        for c, ctx, rate in ((1, 2, 0.3), (4, 7, 0.2)):
            alone0, alone1 = syn0.copy(), syn1.copy()
            train_steps(alone0, alone1, np.array([c]), np.array([ctx]), [[7, 8]], np.array([rate]), [1])
            syn1_gain = alone1[7] - syn1[7]
            assert np.abs(syn1_gain).min() > 1e-6
            ref1[7] -= syn1_gain
        np.testing.assert_allclose(ref1[7], syn1[7], rtol=0, atol=1e-12)

    def test_empty_block_without_negatives(self):
        # negatives=0: each pair trains on its context alone.
        self.assert_matches_reference(7, [1, 1, 4], [2, 5, 2], np.empty((1, 0), dtype=np.int64), [0.1, 0.2, 0.3])

    @staticmethod
    def reference_plan(centers, contexts, blocks, sizes):
        """Each step's (rows, firsts, slots, lead, repeats), one step at a time."""
        plan, a = [], 0
        for n, block in zip(sizes, blocks):
            c = centers[a:a + n].tolist()
            # Each pair's output rows: its context, then the step's block.
            o = np.concatenate((contexts[a:a + n, None], np.tile(block, (n, 1))), axis=1)
            rows = np.unique(o)
            slots = rows.searchsorted(o) * n + np.arange(n)[:, None]
            # The step gathers its contexts, then its block.
            gathered = contexts[a:a + n].tolist() + list(block)
            firsts = [gathered.index(row) for row in rows]
            lead = [s for s in range(n) if c.index(c[s]) == s]
            repeats = [s for s in range(n) if s not in lead]
            plan.append((rows.tolist(), firsts, slots.tolist(), lead, repeats))
            a += n
        return plan

    # Up to 8 steps, 0-4 negatives and 16 output rows; then one row, more
    # rows than 2**16 (step, row) keys, no negatives and one step.
    @pytest.mark.parametrize("n_rows, max_negatives, max_steps", [
        (16, 4, 8), (1, 4, 8), (70_000, 4, 8), (16, 0, 8), (16, 4, 1),
    ], ids=["16-rows", "1-row", "70000-rows", "no-negatives", "one-step"])
    def test_round_plan_matches_a_per_step_reference(self, n_rows, max_negatives, max_steps):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pairs_per_sentence = rng.integers(0, max_steps + 1, size=rng.integers(1, 33))
            sizes = np.array([np.count_nonzero(pairs_per_sentence > t) for t in range(pairs_per_sentence.max())],
                             dtype=np.int64)
            centers = rng.integers(0, min(6, n_rows), size=sizes.sum())
            contexts = rng.integers(0, n_rows, size=sizes.sum())
            blocks = rng.integers(0, n_rows, size=(len(sizes), rng.integers(0, max_negatives + 1)))
            plan = _plan_steps(centers, contexts, blocks, sizes, n_rows)
            assert [p[0] for p in plan] == [slice(a - n, a) for a, n in zip(sizes.cumsum().tolist(), sizes.tolist())]
            got = [(rows.tolist(), firsts.tolist(), slots.tolist(), lead.tolist(), repeats)
                   for _pairs, rows, firsts, slots, lead, repeats in plan]
            assert got == self.reference_plan(centers, contexts, blocks, sizes)


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

    def test_row_after_blank_lines_is_one_too_many(self):
        bad = "2 3\na 1 2 3\nb 4 5 6\n\n  \nc 7 8 9\n"
        with pytest.raises(DataError, match=re.escape("line 6: more rows than the header declares (2)")):
            load_embeddings(io.StringIO(bad))

    def test_trailing_blank_lines_load(self):
        table = load_embeddings(io.StringIO("2 3\na 1 2 3\nb 4 5 6\n\n \n\n"))
        assert table.vocab.tokens == ["a", "b"]
        assert table.input_vectors.tolist() == [[1, 2, 3], [4, 5, 6]]

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

    def test_duplicate_token_fatal(self, tmp_path):
        # The error names the token and the line it repeats on.
        bad = "3 2\na 0.1 0.2\nb 0.5 0.6\na 0.3 0.4\n"
        path = tmp_path / "vecs.txt"
        path.write_text(bad)
        for source, where in ((path, str(path)), (io.StringIO(bad), "<stream>")):
            with pytest.raises(DataError, match=f"^{re.escape(where)} line 4: duplicate token 'a'$"):
                load_embeddings(source)

    def test_whitespace_token_rejected_at_save(self):
        from relfrec.embed import EmbeddingTable

        table = EmbeddingTable(
            vocab=Vocabulary(tokens=["bad token"], counts=np.array([1])),
            input_vectors=np.zeros((1, 2)),
            output_vectors=np.zeros((1, 2)),
        )
        with pytest.raises(DataError):
            save_embeddings(table, io.StringIO())


# Texts the vector-file fuzz puts in place of one component: some parse, some do not.
FUZZ_COMPONENTS = ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "x", "0x10", "1,5", "--1", "", "1_0", "+.5",
                   "1E3", "-0.0", "１"]


def vector_fuzz_inputs(seed, n_inputs):
    """Seeded vector files: a valid save_embeddings file with up to two
    header or row mutations, then at times CRLF line ends, a BOM or
    bytes that are not UTF-8."""
    rng = np.random.default_rng(seed)
    pick = lambda options: options[int(rng.integers(len(options)))]  # noqa: E731
    table = EmbeddingTable(
        vocab=Vocabulary(tokens=["a", "josé", "g0_dir1", "b_c"], counts=np.ones(4, dtype=np.int64)),
        input_vectors=rng.normal(size=(4, 3)),
    )
    stream = io.StringIO()
    save_embeddings(table, stream)
    valid = stream.getvalue().splitlines()
    for _ in range(n_inputs):
        header, rows, trailer = valid[0].split(), [line.split() for line in valid[1:]], ""
        for _ in range(int(rng.integers(0, 3))):
            row = pick(rows)
            kind = pick(["header-cut", "header-value", "arity", "component", "duplicate", "extra-row", "blank-trailer",
                         "late-row", "short"])
            if kind == "header-cut":
                header = header[:int(rng.integers(0, 2))]
            elif kind == "header-value" and len(header) == 2:
                header[int(rng.integers(2))] = pick(["0", "-1", "-3", "2", "5"])
            elif kind == "arity":
                row[1:] = row[1:-1] if rng.random() < 0.5 else [*row[1:], "0.5"]
            elif kind == "component" and len(row) > 1:
                row[int(rng.integers(1, len(row)))] = pick(FUZZ_COMPONENTS)
            elif kind == "duplicate":
                row[0] = pick(rows)[0]
            elif kind == "extra-row":
                rows.append(["extra", *(["0.25"] * (len(row) - 1))])
            elif kind == "blank-trailer":
                trailer += pick(["\n", "   \n", "\n\n"])
            elif kind == "short":
                del rows[int(rng.integers(1, 4)):]
            elif kind == "late-row":
                trailer += pick(["\n", " \t\n"]) + " ".join(["late", *(["0.25"] * (len(row) - 1))]) + "\n"
        text = "".join(" ".join(line) + "\n" for line in [header, *rows]) + trailer
        if rng.random() < 0.1:
            text = text.rstrip("\n")
        if rng.random() < 0.15:
            text = text.replace("\n", "\r\n")
        data = text.encode("utf-8")
        if rng.random() < 0.1:
            data = b"\xef\xbb\xbf" + data
        if rng.random() < 0.12:
            data = text.encode("latin-1", errors="replace") if rng.random() < 0.5 else data.replace(b"\n", b"\xff\n", 1)
        yield data


def read_vector_rows_per_row(stream, where):
    """The reading that called float on each component, kept as the reader's oracle."""
    header = stream.readline()
    if not header:
        raise DataError(f"{where} line 1: empty file")
    v, dim = embed._parse_header(header, where)
    tokens, rows = {}, []
    for lineno in range(2, v + 2):
        line = stream.readline()
        if not line:
            raise DataError(f"{where} line {lineno}: expected {v} rows, file ends after {lineno - 2}")
        parts = line.split()
        if len(parts) != dim + 1:
            raise DataError(f"{where} line {lineno}: expected {dim + 1} fields, got {len(parts)}")
        if parts[0] in tokens:
            raise DataError(f"{where} line {lineno}: duplicate token {parts[0]!r}")
        tokens[parts[0]] = None
        try:
            rows.append(np.array([float(x) for x in parts[1:]]))
        except ValueError:
            raise DataError(f"{where} line {lineno}: non-numeric vector component") from None
        if not np.isfinite(rows[-1]).all():
            raise DataError(f"{where} line {lineno}: non-finite vector component")
    for lineno, line in enumerate(stream, v + 2):
        if line.strip():
            raise DataError(f"{where} line {lineno}: more rows than the header declares ({v})")
    return list(tokens), np.array(rows)


class TestVectorFileFuzz:
    """Every vector file either loads or raises DataError, the same way from a path as from a stream."""

    @staticmethod
    def outcome(source, path):
        try:
            table = load_embeddings(source)
        except DataError as exc:
            return "DataError", str(exc).replace(str(path), "<stream>")
        return table.vocab.tokens, table.input_vectors.tolist()

    def test_each_file_loads_or_raises_data_error(self, tmp_path):
        path = tmp_path / "vecs.txt"
        outcomes = {"loaded": 0, "DataError": 0, "not UTF-8": 0}
        for data in vector_fuzz_inputs(seed=41, n_inputs=400):
            path.write_bytes(data)
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
                    load_embeddings(path)
                outcomes["not UTF-8"] += 1
                continue
            try:
                got = self.outcome(path, path)
            except Exception as exc:
                pytest.fail(f"{type(exc).__name__}: {exc} on input {data!r}")
            assert self.outcome(io.StringIO(text), path) == got, data
            outcomes["DataError" if got[0] == "DataError" else "loaded"] += 1
        # Each outcome occurs often.
        assert min(outcomes.values()) > 30, outcomes

    def test_numpy_component_parse_matches_the_float_per_component_read(self):
        """Parsing each row's components in one numpy call gives the same
        tokens and vectors, or the same DataError naming the same line,
        as calling float on each component."""
        def outcome(read, text):
            try:
                tokens, vectors = read(io.StringIO(text, newline=None), "<stream>")
            except DataError as exc:
                return str(exc)
            return tokens, vectors.shape, vectors.tolist()

        messages = Counter()
        for data in vector_fuzz_inputs(seed=43, n_inputs=600):
            text = data.decode("utf-8", errors="replace").removeprefix("\ufeff")
            got = outcome(embed._read_vector_rows, text)
            assert got == outcome(read_vector_rows_per_row, text), data
            if isinstance(got, str):  # the message, less its numbers and from its first comma or quote
                messages[re.sub(r"\d+ ?", "", got.split(": ", 1)[1]).split(",")[0].split(" '")[0]] += 1
            else:
                messages["loaded"] += 1
        # Files load, and every kind of error occurs.
        assert set(messages) >= {"loaded", "malformed header", "header values must be positive", "expected rows",
                                 "expected fields", "duplicate token", "non-numeric vector component",
                                 "non-finite vector component", "more rows than the header declares ()"}, messages
