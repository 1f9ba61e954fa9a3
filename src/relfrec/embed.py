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
with `negatives` samples drawn from the unigram^0.75 distribution. The
learning rate decays linearly from initial_lr to final_lr over the
total planned number of center-word visits. Input vectors start uniform
in [-0.5/dim, +0.5/dim]; output vectors start at zero. Training runs
on one thread, so a fixed seed gives bit-reproducible vectors.

The sentence is the unit of randomness. For each epoch and sentence, in
this order:

1. one draw gives the reduced windows of all its centers;
2. its (center, context) pairs are listed in corpus order: by center,
   then by context position;
3. one draw gives a block of negatives, one row per pair, in row-major
   order; then, in rounds over the whole block, every negative equal to
   its pair's context is redrawn, in row-major order, with one draw per
   round (at most 1000 rounds).

There is no batch size: the pairs are then trained one after another,
each exactly as sgns_pair_update would apply it to the rows of the
input and output matrices, so the trained vectors equal that
pair-by-pair reference bit for bit. A pair's output rows (context
first, then negatives) gain their updates at once; where a row repeats
(a negative drawn twice), each later occurrence instead adds its update
to the row as its previous occurrence left it, found for the whole
sentence by one stable sort along each pair, and only the last
occurrence is written back. The losses are computed per sentence from
the kept scores and added pair by pair.

A table is saved as one word2vec-format text file of input vectors
only, which is all that content similarity downstream reads.
"""

from __future__ import annotations

import logging
from collections import Counter
from itertools import islice
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import DataError, NumericDivergenceError, check_finite, check_integers
from .ingest import stream_name, text_stream

log = logging.getLogger(__name__)

_MAX_RESAMPLE_ROUNDS = 1000


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for embedding training.

    The defaults are the pipeline's reference settings: window 8,
    dimension 150, 25 negatives, min count 1, 20 epochs. Learning rate
    schedule and the 0.75 sampling exponent follow common skip-gram
    practice.
    """

    window: int = 8
    dim: int = 150
    negatives: int = 25
    min_count: int = 1
    epochs: int = 20
    initial_lr: float = 0.025
    final_lr: float = 1e-4
    ns_exponent: float = 0.75
    seed: int = 1

    def __post_init__(self):
        check_integers(self, window=1, dim=1, negatives=0, min_count=1, epochs=1, seed=0)
        check_finite(self, "initial_lr", "final_lr", "ns_exponent")
        if not 0 < self.final_lr <= self.initial_lr:
            raise ValueError(
                f"need 0 < final_lr <= initial_lr, got {self.final_lr} / {self.initial_lr}"
            )


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


def build_vocabulary(sentences, min_count=1):
    """Count tokens across sentences and keep those with count >= min_count."""
    counter = Counter()
    for sent in sentences:
        counter.update(sent.tokens)
    kept = [(tok, c) for tok, c in counter.items() if c >= min_count]
    if not kept:
        raise DataError(f"vocabulary is empty at min_count={min_count}")
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    tokens = [tok for tok, _ in kept]
    counts = np.array([c for _, c in kept], dtype=np.int64)
    return Vocabulary(tokens=tokens, counts=counts)


class NegativeSampler:
    """Draws vocabulary indices with probability proportional to count^exponent."""

    def __init__(self, counts, ns_exponent=0.75):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.size == 0 or (counts <= 0).any():
            raise ValueError("sampler needs positive counts for every token")
        with np.errstate(over="ignore"):
            weights = counts**ns_exponent
            cumulative = np.cumsum(weights)
        if not ((weights > 0).all() and np.isfinite(cumulative[-1])):
            raise ValueError(
                f"ns_exponent {ns_exponent!r} gives sampling weights counts ** ns_exponent "
                "that are not finite and positive"
            )
        cumulative /= cumulative[-1]
        cumulative[-1] = 1.0
        self.cumulative = cumulative
        # Tokens that leave no mass to draw anything else from.
        self._sole = self.probabilities >= 1.0

    @property
    def probabilities(self):
        return np.diff(self.cumulative, prepend=0.0)

    def draw(self, rng, exclude, n):
        """One row of n indices per index of ``exclude``, none equal to it.

        The block is drawn in row-major order from one ``rng.random``
        call. Then, in rounds over the whole block, every draw equal to
        its row's excluded index is redrawn, in row-major order, from one
        ``rng.random`` call per round.
        """
        exclude = np.asarray(exclude, dtype=np.int64)
        sole = exclude[self._sole[exclude]]
        if sole.size:
            raise DataError(
                f"cannot draw negatives distinct from token index {sole[0]}; "
                "it carries the entire sampling mass"
            )
        cumulative = self.cumulative
        idx = cumulative.searchsorted(rng.random((exclude.size, n)), side="right")
        column = exclude[:, None]
        for _ in range(_MAX_RESAMPLE_ROUNDS):
            mask = idx == column
            hits = np.count_nonzero(mask)
            if not hits:
                return idx
            idx[mask] = cumulative.searchsorted(rng.random(hits), side="right")
        stuck = exclude[mask.any(axis=1)][0]
        raise DataError(
            f"cannot draw negatives distinct from token index {stuck} "
            f"after {_MAX_RESAMPLE_ROUNDS} resampling rounds"
        )


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
    loss = float(np.logaddexp(0.0, -scores[0]) + np.logaddexp(0.0, scores[1:]).sum())
    grad = -expit(scores)
    grad[0] += 1.0
    grad *= lr
    context_vec += grad[0] * center_vec
    for g, vec in zip(grad[1:], negative_vecs):
        vec += g * center_vec
    center_vec += grad @ rows
    return loss


def _add_pair_losses(total, scores):
    """total plus each row's sgns_pair_update loss, added in row order.

    Row r holds one pair's scores, context first. Each row's loss is
    computed as sgns_pair_update computes it, and the losses are added
    one at a time, left to right, in the order the pairs were trained.
    """
    losses = np.logaddexp(0.0, -scores[:, 0]) + np.logaddexp(0.0, scores[:, 1:]).sum(axis=1)
    for loss in losses.tolist():
        total += loss
    return total


def _repeat_plan(out, spare):
    """Where the output rows of each pair (row of ``out``) repeat.

    Returns (repeats, dest). ``repeats[p]`` lists, as (position,
    previous position of the same row), every occurrence of a row after
    its first in pair p, in order along the pair. ``dest`` is ``out``
    with every position that is not the last occurrence of its row sent
    to the row ``spare``. A stable sort along each pair ranks equal rows
    by position.
    """
    order = np.argsort(out, axis=1, kind="stable")
    ranked = np.take_along_axis(out, order, axis=1)
    pair, j = np.nonzero(ranked[:, 1:] == ranked[:, :-1])
    earlier = order[pair, j]
    repeats = [[] for _ in range(len(out))]
    for p, r, prev in zip(pair.tolist(), order[pair, j + 1].tolist(), earlier.tolist()):
        repeats[p].append((r, prev))
    dest = out.copy()
    dest[pair, earlier] = spare
    return repeats, dest


class _Trainer:
    def __init__(self, encoded, config, vocab):
        self.encoded = encoded
        self.config = config
        self.vocab = vocab
        v = len(vocab)
        init_rng = np.random.default_rng(config.seed)
        self.syn0 = (init_rng.random((v, config.dim)) - 0.5) / config.dim
        # numpy leaves open which write wins when a fancy assignment
        # repeats an index, so the writes of a repeated output row that a
        # later occurrence supersedes go to one spare row past the vocabulary.
        self._syn1_spare = np.zeros((v + 1, config.dim))
        self.syn1 = self._syn1_spare[:v]
        self.sampler = NegativeSampler(vocab.counts, config.ns_exponent) if config.negatives else None
        self.total_visits = config.epochs * sum(len(s) for s in encoded)

    def run(self):
        """Train every epoch; return the mean pair loss of each.

        Each sentence draws its reduced windows, then the negatives of
        all its pairs as one block, then plans its repeated rows. Each
        pair is then sgns_pair_update on rows of syn0 and syn1: the
        output rows gain grad[n] * center in turn, the center gains
        grad @ rows, both at the incoming values.
        """
        cfg = self.config
        # Sampling draws from its own stream, apart from the init rng.
        rng = np.random.default_rng([cfg.seed, 0])
        syn0, syn1, sampler = self.syn0, self._syn1_spare, self.sampler
        spare = len(self.vocab)
        window, n_neg = cfg.window, cfg.negatives
        n_out = n_neg + 1
        rows = np.empty((n_out, cfg.dim))
        upd = np.empty((n_out, cfg.dim))
        row_of, upd_of = list(rows), list(upd)
        lr_span = cfg.initial_lr - cfg.final_lr
        total = self.total_visits
        visit = 0
        epoch_losses = []
        for epoch in range(1, cfg.epochs + 1):
            loss_sum = 0.0
            n_pairs = 0
            # Overflow in a diverging run is caught by _check_finite at the
            # epoch boundary; the interim numpy warnings are just noise.
            with np.errstate(over="ignore", invalid="ignore"):
                for sent in self.encoded:
                    spans = rng.integers(1, window + 1, size=len(sent)).tolist()
                    contexts, n_contexts = [], []
                    for pos, b in enumerate(spans):
                        ctx = sent[max(pos - b, 0):pos] + sent[pos + 1:pos + b + 1]
                        contexts += ctx
                        n_contexts.append(len(ctx))
                    out = np.empty((len(contexts), n_out), dtype=np.int64)
                    out[:, 0] = contexts
                    if n_neg:
                        out[:, 1:] = sampler.draw(rng, out[:, 0], n_neg)
                    repeats, dest = _repeat_plan(out, spare)
                    scores = np.empty(out.shape)
                    pairs = zip(out, dest, scores, repeats)
                    for center, n_ctx in zip(sent, n_contexts):
                        lr = cfg.initial_lr - lr_span * (visit / total)
                        visit += 1
                        if lr < cfg.final_lr:
                            lr = cfg.final_lr
                        v = syn0[center]
                        for out_idx, dest_idx, score, pair_repeats in islice(pairs, n_ctx):
                            # Every index is in range; "clip" lets take fill
                            # rows without first copying to a buffer.
                            syn1.take(out_idx, axis=0, out=rows, mode="clip")
                            np.matmul(rows, v, out=score)
                            e = expit(score)
                            grad = e * -lr
                            grad[0] = (1.0 - e[0]) * lr
                            dv = grad @ rows
                            np.multiply(grad[:, None], v, out=upd)
                            rows += upd
                            # A repeated row adds its update to the row as its
                            # previous occurrence left it.
                            for r, prev in pair_repeats:
                                np.add(row_of[prev], upd_of[r], out=row_of[r])
                            syn1[dest_idx] = rows
                            v += dv
                    loss_sum = _add_pair_losses(loss_sum, scores)
                    n_pairs += len(out)
            mean_loss = loss_sum / n_pairs if n_pairs else 0.0
            self._check_finite(epoch)
            epoch_losses.append(mean_loss)
            log.info("epoch %d/%d: mean pair loss %.6f (%d pairs)", epoch, cfg.epochs, mean_loss, n_pairs)
        return epoch_losses

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

    Sentences whose tokens are all out of vocabulary are skipped
    silently. Raises NumericDivergenceError if any vector turns
    non-finite, naming the epoch and token.
    """
    config = config or TrainConfig()
    vocab = build_vocabulary(sentences, config.min_count)
    encoded = []
    for sent in sentences:
        ids = [vocab.index[t] for t in sent.tokens if t in vocab.index]
        if ids:
            encoded.append(ids)
    if not encoded:
        raise DataError("no trainable sentences after vocabulary filtering")
    trainer = _Trainer(encoded, config, vocab)
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
        for token, vec in zip(table.vocab.tokens, table.input_vectors):
            stream.write(token + " " + " ".join(repr(float(x)) for x in vec) + "\n")


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
    opened, malformed headers, row arity/count mismatches and
    non-finite components (nan, inf) are DataErrors, reported with the
    file and line number; so is text that is not UTF-8, with the file.
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
    tokens = []
    rows = []
    lineno = 1
    for row in range(v):
        line = stream.readline()
        lineno += 1
        if not line:
            raise DataError(f"{where} line {lineno}: expected {v} rows, file ends after {row}")
        parts = line.split()
        if len(parts) != dim + 1:
            raise DataError(
                f"{where} line {lineno}: expected {dim + 1} fields, got {len(parts)}"
            )
        tokens.append(parts[0])
        try:
            rows.append(np.array([float(x) for x in parts[1:]]))
        except ValueError:
            raise DataError(f"{where} line {lineno}: non-numeric vector component") from None
        if not np.isfinite(rows[-1]).all():
            raise DataError(f"{where} line {lineno}: non-finite vector component")
    trailer = stream.readline()
    lineno += 1
    if trailer and trailer.strip():
        raise DataError(f"{where} line {lineno}: more rows than the header declares ({v})")
    if len(set(tokens)) != len(tokens):
        raise DataError(f"{where}: duplicate token in vector file")
    return tokens, np.array(rows)
