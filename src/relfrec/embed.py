"""Skip-gram with negative sampling over feature sentences.

Each sentence (directors, screenwriters, cast of one item) is treated as
a word sequence: a center token's input vector is pushed toward the
output vectors of tokens that appear near it, and away from the output
vectors of sampled negatives. People who keep appearing in the same
productions therefore end up with similar input vectors, which is the
signal the content similarity downstream is built on.

For each center position a reduced window size b is drawn uniformly
from {1..window}; every in-bounds token within +-b of the center
(excluding the center itself) forms one positive pair, trained together
with `negatives` samples drawn from the unigram^0.75 distribution. Every
token of the corpus enters the vocabulary. The learning rate decays
linearly from 0.025 to 1e-4 over the total planned number of
center-word visits; these are word2vec's reference constants, as is the
0.75 exponent, and none of them is settable. Input vectors start uniform
in [-0.5/dim, +0.5/dim]; output vectors start at zero. Training runs
on one thread, so on one machine a fixed seed gives bit-reproducible
vectors. Another machine may give other bits: numpy picks its exp and
log1p kernels by CPU, as OpenBLAS picks its GEMM kernel, and the
kernels differ in the last bit of some results.

Sentences are trained in 64 lanes. For each epoch, in this order:

1. one draw gives the reduced windows of all the epoch's centers;
2. its (center, context) pairs are listed in corpus order: by
   sentence, then by center, then by context position. Sentences enter
   the lanes in corpus order, each into the first lane to free up; a
   sentence without pairs takes none. Step t holds the next pair of
   every sentence in a lane, in sentence order;
3. the steps are trained in chunks of whole steps, at most 2048 pairs
   each. For each chunk one draw gives a block of negatives, one row
   per step, in step order; the draws come from one stream, so the
   chunk size changes no bit. Each draw becomes a token index by one
   binary search of the cumulative distribution (NegativeSampler).
   Every pair of a step trains on its step's row. A negative that
   equals the pair's context is skipped for that pair, as word2vec's C
   code skips it: its gradient is zero and its term is left out of the
   pair's loss.

What each step needs to know about its pairs (its distinct output rows,
where each occurrence's gradient is summed, which centers repeat) is
worked out for the whole chunk by one sort, before its first step. A
step reads each row it needs once, as the previous step left it: its
centers, its contexts and its block. A pair's context score is the dot
of its context and center; the negative scores of all its pairs are
one GEMM of the stacked centers against the block. Its loss and
gradient are sgns_pair_update's over its kept negatives: the sigmoid
is 1 / (1 + exp(-x)) and each loss term log(1 + exp(x)) is
max(x, 0) + log1p(exp(-|x|)), on numpy's vectorized exp and log1p.
Its center moves by ``grad_neg @ block + grad_ctx * context``; a center
that two sentences share in a step gains both moves, in sentence
order. Each
output row touched in a step gains, in one GEMM, the step's incoming
centers weighted by the row's summed gradient in each sentence, so a
block row gains the updates of every pair. The GEMMs add in another
order than sgns_pair_update's per-pair products, so a step agrees with
it to within 1e-12, not bit for bit. Each center's learning rate comes
from its visit index in corpus order, and the epoch's losses are added
in corpus order. A corpus without a pair is a DataError.
The epoch log line counts the pairs and the skipped negatives.

A table is saved as one word2vec-format text file of input vectors
only, which is all that content similarity downstream reads.
"""

from __future__ import annotations

import heapq
import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .errors import DataError, NumericDivergenceError, check_integers
from .ingest import stream_name, text_stream

log = logging.getLogger(__name__)

# Lanes trained side by side, one pair of a sentence in each per step.
_LOCKSTEP = 64
# The most pairs whose steps are planned and trained as one chunk.
_CHUNK_PAIRS = 2048
# word2vec's learning-rate endpoints and negative-sampling exponent.
_INITIAL_LR, _FINAL_LR = 0.025, 1e-4
_NS_EXPONENT = 0.75


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for embedding training.

    The defaults are the pipeline's reference settings: window 8,
    dimension 150, 25 negatives, 20 epochs. The learning-rate schedule
    and the sampling exponent are module constants.
    """

    window: int = 8
    dim: int = 150
    negatives: int = 25
    epochs: int = 20
    seed: int = 1

    def __post_init__(self):
        check_integers(self, window=1, dim=1, negatives=0, epochs=1, seed=0)


@dataclass
class Vocabulary:
    """Token -> contiguous index plus corpus counts.

    Indices are assigned by descending count, ties broken by token, so
    the mapping is deterministic for a given corpus.
    """

    tokens: list
    counts: np.ndarray
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token):
        return token in self.index

    def encode(self, sentences):
        """(indices, counts): every sentence's in-vocabulary token indices
        as one int64 array in corpus order, and how many each sentence has."""
        tokens = chain.from_iterable(s.tokens for s in sentences)
        indices = np.fromiter(map(self.index.get, tokens, repeat(-1)), dtype=np.int64)
        sentence = np.arange(len(sentences)).repeat([len(s.tokens) for s in sentences])
        known = indices >= 0
        return indices[known], np.bincount(sentence[known], minlength=len(sentences))


def build_vocabulary(sentences):
    """Count every token across sentences; a corpus without one is a DataError."""
    counter = Counter()
    for sent in sentences:
        counter.update(sent.tokens)
    if not counter:
        raise DataError("vocabulary is empty: the sentences hold no tokens")
    kept = sorted(counter.items(), key=lambda tc: (-tc[1], tc[0]))
    tokens = [tok for tok, _ in kept]
    counts = np.array([c for _, c in kept], dtype=np.int64)
    return Vocabulary(tokens=tokens, counts=counts)


class NegativeSampler:
    """Draws vocabulary indices with probability proportional to count^0.75.

    A draw u in [0, 1) becomes ``cumulative.searchsorted(u, side="right")``.
    Counts where one token carries the entire mass are a DataError:
    every negative would be it.
    """

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.size == 0 or (counts <= 0).any():
            raise ValueError("sampler needs positive counts for every token")
        cumulative = np.cumsum(counts**_NS_EXPONENT)
        cumulative /= cumulative[-1]
        cumulative[-1] = 1.0
        self.cumulative = cumulative
        sole = np.flatnonzero(self.probabilities >= 1.0)
        if sole.size:
            raise DataError(
                f"cannot sample negatives: token index {sole[0]} carries the entire sampling mass, "
                "so every negative would equal it"
            )

    @property
    def probabilities(self):
        return np.diff(self.cumulative, prepend=0.0)

    def draw(self, rng, shape):
        """Token indices of one ``rng.random(shape)`` block, in row-major order."""
        return self.cumulative.searchsorted(rng.random(shape), side="right")


@dataclass
class EmbeddingTable:
    """Trained vectors plus the vocabulary they belong to.

    Similarity queries use ``input_vectors`` only. ``output_vectors``
    (the context side) and ``epoch_losses`` (the mean pair loss per
    epoch) are set by training; a table loaded from a vector file has
    neither, and counts of 1 in its vocabulary.
    """

    vocab: Vocabulary
    input_vectors: np.ndarray
    output_vectors: np.ndarray = None
    epoch_losses: list = field(default_factory=list)

    @property
    def dim(self):
        return self.input_vectors.shape[1]

    def __contains__(self, token):
        return token in self.vocab

    def __len__(self):
        return len(self.vocab)

    def vector(self, token):
        try:
            return self.input_vectors[self.vocab.index[token]]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary") from None

    def most_similar(self, token, n=10):
        """Top-n (token, cosine) pairs by input-vector similarity."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        i = self.vocab.index.get(token)
        if i is None:
            raise KeyError(f"token {token!r} not in vocabulary")
        mat = self.input_vectors
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0.0] = 1.0
        sims = (mat @ mat[i]) / (norms * norms[i])
        ranked = sorted(
            (j for j in range(len(self.vocab)) if j != i),
            key=lambda j: (-sims[j], self.vocab.tokens[j]),
        )
        return [(self.vocab.tokens[j], float(sims[j])) for j in ranked[:n]]


def _sigmoid(x):
    """1 / (1 + exp(-x)) elementwise, in one new array.

    np.exp runs numpy's vectorized loop. exp(-x) overflows to inf below
    x = -709.78, which gives the right limit, 0, so the overflow is not
    reported.
    """
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def _softplus(x):
    """log(1 + exp(x)) elementwise, as max(x, 0) + log1p(exp(-|x|)), in one new array.

    exp(-|x|) lies in [0, 1], so nothing overflows.
    """
    s = np.abs(x)
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.log1p(s, out=s)
    s += np.maximum(x, 0.0)
    return s


def sgns_pair_update(center_vec, context_vec, negative_vecs, lr):
    """One negative-sampling update for a (center, context) pair.

    Mutates the given vectors in place using the analytic gradient of

        loss = -log sigmoid(context . center)
               - sum_n log sigmoid(-negative_n . center)

    evaluated at the incoming values (simultaneous update: the output
    rows move using the old center, the center moves using the old
    output rows). Returns the loss value at the incoming point.
    """
    center_vec = np.asarray(center_vec)
    if center_vec.ndim != 1:
        raise ValueError(f"center vector must be 1-D, got shape {center_vec.shape}")
    outs = [np.asarray(context_vec)] + [np.asarray(v) for v in negative_vecs]
    for v in outs:
        if v.shape != center_vec.shape:
            raise ValueError(f"vector shape mismatch: {v.shape} vs {center_vec.shape}")
    rows = np.stack(outs)
    scores = rows @ center_vec
    loss = float(_softplus(-scores[:1])[0] + _softplus(scores[1:]).sum())
    grad = -_sigmoid(scores)
    grad[0] += 1.0
    grad *= lr
    context_vec += grad[0] * center_vec
    for g, vec in zip(grad[1:], negative_vecs):
        vec += g * center_vec
    center_vec += grad @ rows
    return loss


def _pair_losses(scores, keep):
    """Each row's loss as sgns_pair_update computes it, over its kept negatives.

    Row r holds one pair's scores, context first; ``keep[r]`` marks the
    negatives whose terms count. A skipped term adds 0.0.
    """
    negatives = np.where(keep, _softplus(scores[:, 1:]), 0.0)
    return _softplus(-scores[:, 0]) + negatives.sum(axis=1)


def _plan_steps(centers, contexts, blocks, sizes, n_rows):
    """Each step's bookkeeping, fixed once a chunk's pairs are drawn.

    The chunk's pairs are listed step by step: ``sizes[t]`` pairs of
    step t, each with center row ``centers[p]`` and context row
    ``contexts[p]`` of an output table of ``n_rows`` rows; the pairs of
    step t share the negative rows ``blocks[t]``. Returns one tuple
    (pairs, rows, firsts, slots, lead, repeats) per step:

    - pairs: the step's slice of the chunk's pairs;
    - rows: its distinct output rows, contexts and block alike, ascending;
    - firsts: each row's first place among the rows the step gathers,
      its contexts in pair order, then its block;
    - slots: per pair, its context's then its block's slots in the
      step's bincount: the row's place among ``rows`` times the step's
      size plus the column (the pair's place in the step);
    - lead: the columns of each center's first occurrence, ascending;
    - repeats: the columns of the other occurrences, ascending, as a list.

    One sort of the chunk's (step, row) keys, ``step * n_rows + row``,
    gives every step's rows, each occurrence's place among them and
    each row's first occurrence.
    """
    n_pairs, n_steps = len(contexts), len(sizes)
    step = np.arange(n_steps).repeat(sizes)
    column = np.arange(n_pairs) - (sizes.cumsum() - sizes)[step]
    # A key for each context, in pair order, then for each block cell, step by step.
    keys = np.concatenate((step * n_rows + contexts, (blocks + (np.arange(n_steps) * n_rows)[:, None]).ravel()))
    cells, first_key, place = np.unique(keys, return_index=True, return_inverse=True)
    row_counts = np.bincount(cells // n_rows, minlength=n_steps)
    slots = np.concatenate((place[:n_pairs, None], place[n_pairs:].reshape(blocks.shape)[step]), axis=1)
    slots -= (row_counts.cumsum() - row_counts)[step, None]
    slots *= sizes[step, None]
    slots += column[:, None]
    rows = cells % n_rows
    # Each key's place among its step's gathered rows.
    firsts = np.concatenate((column, (sizes[:, None] + np.arange(blocks.shape[1])).ravel()))[first_key]
    first = np.zeros(n_pairs, dtype=bool)
    first[np.unique(step * n_rows + centers, return_index=True)[1]] = True
    n_first = np.bincount(step[first], minlength=n_steps)
    leads, repeated = column[first], column[~first]

    def spans(counts):
        edges = counts.cumsum().tolist()
        return zip([0] + edges[:-1], edges)

    return [
        (slice(a, b), rows[r:r_end], firsts[r:r_end], slots[a:b], leads[f:f_end], repeated[q:q_end].tolist())
        for (a, b), (r, r_end), (f, f_end), (q, q_end)
        in zip(spans(sizes), spans(row_counts), spans(n_first), spans(sizes - n_first))
    ]


def _train_step(syn0, syn1, centers, contexts, block, lr, step, work, scores, keep):
    """Train one step: one pair of each of n sentences at once.

    ``step`` is the step's plan from _plan_steps; its slice of the
    chunk's pairs picks pair s's center row ``centers[s]`` of syn0, its
    context row ``contexts[s]`` of syn1 and its learning rate ``lr[s]``;
    every pair's negatives are the step's ``block`` of syn1 rows, and
    ``keep[s]`` marks those that differ from pair s's context. Pair s
    receives its scores in ``scores[s]`` (context first). The step gathers
    its context and block rows once: the context scores are row-wise
    dots, the negative scores one GEMM of the stacked centers against the
    block. The gradient is sgns_pair_update's, zero for a negative equal
    to its pair's context. Each center gains ``grad_neg @ block +
    grad_ctx * context``: the plan's ``lead`` columns move as one batch,
    then each of its ``repeats`` on its own, so a center shared by
    several pairs gains their moves in turn, in pair order. Each
    distinct output row (ascending) gains row u of ``M @ V``, where
    ``M[u, s]`` sums, left to right along pair s, the gradients of row
    u's occurrences there and V stacks the incoming centers; it adds
    them to the copy of the row that the step gathered.

    ``work`` is scratch space of at least ``2 * (n + len(block))`` rows
    as wide as syn1, reused for the rows the step reads from syn1.
    """
    pairs, uniq, firsts, slots, lead, repeats = step
    centers, contexts, lr, scores = centers[pairs], contexts[pairs], lr[pairs], scores[pairs]
    n, n_read = len(centers), len(centers) + len(block)
    v = syn0[centers]
    # Every index is in range; "clip" lets take fill the buffer directly.
    context_rows = syn1.take(contexts, axis=0, out=work[:n], mode="clip")
    block_rows = syn1.take(block, axis=0, out=work[n:n_read], mode="clip")
    np.matmul(context_rows[:, None, :], v[:, :, None], out=scores[:, :1, None])
    np.matmul(v, block_rows.T, out=scores[:, 1:])
    e = _sigmoid(scores)
    grad = e * -lr[:, None]
    grad[:, 0] = (1.0 - e[:, 0]) * lr
    grad[:, 1:] *= keep[pairs]
    moves = grad[:, 1:] @ block_rows
    moves += grad[:, :1] * context_rows
    # In pair order, as np.add.at adds them.
    syn0[centers[lead]] += moves[lead]
    for s in repeats:
        syn0[centers[s]] += moves[s]
    # bincount adds its weights in input order, which is pair by pair,
    # then along each pair.
    sums = np.bincount(slots.ravel(), weights=grad.ravel(), minlength=len(uniq) * n)
    # Every distinct row is among the rows gathered into work.
    update = work[:n_read].take(firsts, axis=0, out=work[n_read:n_read + len(uniq)], mode="clip")
    update += sums.reshape(len(uniq), n) @ v
    syn1[uniq] = update


def _lane_steps(pairs_per):
    """Each pair's step, pairs listed in corpus order.

    Sentence i has ``pairs_per[i]`` pairs. Sentences enter _LOCKSTEP
    lanes in corpus order, each into the first lane to free up, and
    train one pair a step from there; a sentence without pairs takes no
    lane.
    """
    free = [0] * _LOCKSTEP  # a heap of the steps at which the lanes free up
    starts = np.array([heapq.heapreplace(free, free[0] + n) if n else 0 for n in pairs_per.tolist()], dtype=np.int64)
    return np.arange(pairs_per.sum()) + (starts - (pairs_per.cumsum() - pairs_per)).repeat(pairs_per)


class _Trainer:
    """A training run. Step t trains the next pair of every sentence in
    its lanes against its own row of negatives."""

    def __init__(self, tokens, lengths, config, vocab):
        self.tokens, self.lengths = tokens, lengths
        self.config = config
        self.vocab = vocab
        init_rng = np.random.default_rng(config.seed)
        self.syn0 = (init_rng.random((len(vocab), config.dim)) - 0.5) / config.dim
        self.syn1 = np.zeros((len(vocab), config.dim))
        self.sampler = NegativeSampler(vocab.counts) if config.negatives else None
        self.total_visits = config.epochs * len(tokens)
        self.work = np.empty((2 * (_LOCKSTEP + config.negatives), config.dim))
        self.sentence = np.arange(len(lengths)).repeat(lengths)
        self.pos = np.arange(len(tokens)) - (lengths.cumsum() - lengths)[self.sentence]

    def run(self):
        """Train every epoch; return the mean pair loss of each."""
        cfg = self.config
        # Sampling draws from its own stream, apart from the init rng.
        rng = np.random.default_rng([cfg.seed, 0])
        epoch_losses = []
        for epoch in range(1, cfg.epochs + 1):
            # Overflow in a diverging run is caught by _check_finite at the
            # epoch boundary; the interim numpy warnings are just noise.
            with np.errstate(over="ignore", invalid="ignore"):
                losses, n_skipped = self._train_epoch(rng, (epoch - 1) * len(self.tokens))
            # cumsum is a left fold, so the losses add in corpus order.
            mean_loss = float(losses.cumsum()[-1]) / len(losses)
            self._check_finite(epoch)
            epoch_losses.append(mean_loss)
            log.info("epoch %d/%d: mean pair loss %.6f (%d pairs), %d negatives skipped",
                     epoch, cfg.epochs, mean_loss, len(losses), n_skipped)
        return epoch_losses

    def _train_epoch(self, rng, visit):
        """Draw and train one epoch.

        Returns its pairs' losses in corpus order and how many negatives
        were skipped for equalling their pair's context.

        ``visit`` is the visit index of the epoch's first center.
        """
        cfg, tokens, sentence, pos = self.config, self.tokens, self.sentence, self.pos
        spans = rng.integers(1, cfg.window + 1, size=len(tokens))
        left = np.minimum(spans, pos)
        n_ctx = left + np.minimum(spans, self.lengths[sentence] - 1 - pos)
        # Each pair's center, listed in corpus order: by center, then by context position.
        center = np.arange(len(tokens)).repeat(n_ctx)
        # The k-th context of a center lies k places into its window, past the center itself.
        k = np.arange(len(center)) - (n_ctx.cumsum() - n_ctx)[center]
        k += k >= left[center]
        progress = (visit + np.arange(len(tokens))) / self.total_visits
        lr = np.maximum(_INITIAL_LR - (_INITIAL_LR - _FINAL_LR) * progress, _FINAL_LR)[center]
        # The pairs step by step, each step's in sentence order.
        step = _lane_steps(np.bincount(sentence[center], minlength=len(self.lengths)))
        order = step.argsort(kind="stable")
        sizes = np.bincount(step)
        centers, lr = tokens[center][order], lr[order]
        contexts = tokens[center - left[center] + k][order]
        losses = np.empty(len(center))
        n_skipped = 0
        # Whole steps at a time, at most _CHUNK_PAIRS pairs; the negatives
        # come from one stream, so the chunk size changes no bit.
        per_chunk = max(1, _CHUNK_PAIRS // _LOCKSTEP)
        bounds = np.append(0, sizes.cumsum())  # each step's first pair
        for t in range(0, len(sizes), per_chunk):
            chunk = sizes[t:t + per_chunk]
            pairs = slice(bounds[t], bounds[t + len(chunk)])
            # One row of negatives per step, shared by the step's pairs.
            blocks = (self.sampler.draw(rng, (len(chunk), cfg.negatives)) if cfg.negatives
                      else np.empty((len(chunk), 0), dtype=np.int64))
            c, x, r = centers[pairs], contexts[pairs], lr[pairs]
            plan = _plan_steps(c, x, blocks, chunk, len(self.syn1))
            scores = np.empty((len(c), cfg.negatives + 1))
            # Which negatives of each pair differ from its context.
            keep = blocks.repeat(chunk, axis=0) != x[:, None]
            for block, planned in zip(blocks, plan):
                _train_step(self.syn0, self.syn1, c, x, block, r, planned, self.work, scores, keep)
            losses[order[pairs]] = _pair_losses(scores, keep)
            n_skipped += np.count_nonzero(~keep)
        return losses, n_skipped

    def _check_finite(self, epoch):
        for name, mat in (("input", self.syn0), ("output", self.syn1)):
            bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
            if bad.size:
                token = self.vocab.tokens[int(bad[0])]
                raise NumericDivergenceError(
                    f"non-finite {name} vector for token {token!r} at epoch {epoch}"
                )


def train_skipgram(sentences, config=None):
    """Train an EmbeddingTable over the given feature sentences.

    Sentences without tokens are skipped. A corpus without a sentence
    of two tokens has no (center, context) pair and is a DataError.
    Raises NumericDivergenceError if any vector turns non-finite, naming
    the epoch and token.
    """
    config = config or TrainConfig()
    vocab = build_vocabulary(sentences)
    tokens, counts = vocab.encode(sentences)
    if counts.max() < 2:
        raise DataError("no (center, context) pair to train: every sentence has fewer than two tokens")
    trainer = _Trainer(tokens, counts[counts > 0], config, vocab)
    epoch_losses = trainer.run()
    return EmbeddingTable(
        vocab=vocab,
        input_vectors=trainer.syn0,
        output_vectors=trainer.syn1,
        epoch_losses=epoch_losses,
    )


def save_embeddings(table, sink):
    """Write the table's input vectors to a path or text stream.

    The text is a "V dim" header, then one "token v1 .. vdim" row per
    token, each component written as its shortest exact repr. Tokens
    must not contain whitespace; canonicalization upstream guarantees
    that.
    """
    for token in table.vocab.tokens:
        if any(ch.isspace() for ch in token):
            raise DataError(f"token {token!r} contains whitespace and cannot be saved")
    with text_stream(sink, "w") as stream:
        stream.write(f"{len(table.vocab)} {table.dim}\n")
        for token, row in zip(table.vocab.tokens, table.input_vectors.tolist()):
            stream.write(token + " " + " ".join(map(repr, row)) + "\n")


def _parse_header(line, where):
    parts = line.split()
    if len(parts) != 2:
        raise DataError(f"{where} line 1: malformed header {line.rstrip()!r}")
    try:
        v, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataError(f"{where} line 1: malformed header {line.rstrip()!r}") from None
    if v < 1 or dim < 1:
        raise DataError(f"{where} line 1: header values must be positive, got {v} {dim}")
    return v, dim


def load_embeddings(source):
    """Load a vector file written by save_embeddings (a path or a stream).

    The table has counts of 1 and no output vectors; the file is read
    alone, whatever lies beside it. An input path that cannot be
    opened, malformed headers, row arity/count mismatches, non-finite
    components (nan, inf) and a repeated token are DataErrors, reported
    with the file and line number; so is text that is not UTF-8. Blank
    lines may follow the declared rows; a row after them is one too many.
    """
    with text_stream(source) as stream:
        tokens, vectors = _read_vector_rows(stream, stream_name(stream))
    vocab = Vocabulary(tokens=tokens, counts=np.ones(len(tokens), dtype=np.int64))
    return EmbeddingTable(vocab=vocab, input_vectors=vectors)


def _read_vector_rows(stream, where):
    header = stream.readline()
    if not header:
        raise DataError(f"{where} line 1: empty file")
    v, dim = _parse_header(header, where)
    tokens, rows = {}, []  # tokens as an insertion-ordered set
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
            rows.append(np.array(parts[1:], dtype=np.float64))
        except ValueError:
            raise DataError(f"{where} line {lineno}: non-numeric vector component") from None
        if not np.isfinite(rows[-1]).all():
            raise DataError(f"{where} line {lineno}: non-finite vector component")
    # Blank lines may follow the rows; any other line is one row too many.
    for lineno, line in enumerate(stream, v + 2):
        if line.strip():
            raise DataError(f"{where} line {lineno}: more rows than the header declares ({v})")
    return list(tokens), np.array(rows)
