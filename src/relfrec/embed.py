"""Skip-gram with negative sampling over feature sentences.

Each sentence (directors, screenwriters, cast of one item) is treated as
a word sequence: a center token's input vector is pushed toward the
output vectors of tokens that appear near it, and away from the output
vectors of sampled negatives. People who keep appearing in the same
productions therefore end up with similar input vectors, which is the
signal the content similarity downstream is built on.

For each epoch, sentence, and center position a reduced window size b
is drawn uniformly from {1..window}; every in-bounds token within +-b
of the center (excluding the center itself) forms one positive pair,
trained together with `negatives` samples drawn from the unigram^0.75
distribution (redrawn on collision with the true context token). The
learning rate decays linearly from initial_lr to final_lr over the
total planned number of center-word visits. Input vectors start uniform
in [-0.5/dim, +0.5/dim]; output vectors start at zero. Training runs
on one thread, so a fixed seed gives bit-reproducible vectors.

Pairs are trained one after another, each exactly as sgns_pair_update
would apply it to the rows of the input and output matrices: the
trained vectors equal that pair-by-pair reference bit for bit. The
training loop only avoids work around the update: a pair whose output
rows are all distinct writes them back as one block, a pair with a
repeated row (a negative drawn twice) adds its updates one per
occurrence through a flat index, and the loss is computed for chunks
of pairs from their kept scores.

A table is saved as one word2vec-format text file of input vectors
only, which is all that content similarity downstream reads.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import DataError, NumericDivergenceError
from .ingest import text_stream

log = logging.getLogger(__name__)

_MAX_RESAMPLE_ROUNDS = 1000
# Pairs whose scores are held before their losses are added up.
_LOSS_CHUNK = 4096


@dataclass
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

    def validate(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.negatives < 0:
            raise ValueError(f"negatives must be >= 0, got {self.negatives}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.final_lr <= self.initial_lr:
            raise ValueError(
                f"need 0 < final_lr <= initial_lr, got {self.final_lr} / {self.initial_lr}"
            )
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")


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
        weights = counts**ns_exponent
        cumulative = np.cumsum(weights)
        cumulative /= cumulative[-1]
        cumulative[-1] = 1.0
        self.cumulative = cumulative
        # Tokens that leave no mass to draw anything else from.
        self._sole = (self.probabilities >= 1.0).tolist()

    @property
    def probabilities(self):
        return np.diff(self.cumulative, prepend=0.0)

    def draw(self, rng, n, exclude=None):
        """n indices; any draw equal to ``exclude`` is redrawn."""
        cumulative = self.cumulative
        idx = cumulative.searchsorted(rng.random(n), side="right")
        if exclude is None:
            return idx
        if self._sole[exclude]:
            raise DataError(
                f"cannot draw negatives distinct from token index {exclude}; "
                "it carries the entire sampling mass"
            )
        for _ in range(_MAX_RESAMPLE_ROUNDS):
            mask = idx == exclude
            hits = np.count_nonzero(mask)
            if not hits:
                return idx
            idx[mask] = cumulative.searchsorted(rng.random(hits), side="right")
        raise DataError(
            f"cannot draw negatives distinct from token index {exclude} "
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


class _Trainer:
    def __init__(self, encoded, config, vocab):
        self.encoded = encoded
        self.config = config
        self.vocab = vocab
        v = len(vocab)
        init_rng = np.random.default_rng(config.seed)
        self.syn0 = (init_rng.random((v, config.dim)) - 0.5) / config.dim
        self.syn1 = np.zeros((v, config.dim))
        self.sampler = NegativeSampler(vocab.counts, config.ns_exponent) if config.negatives else None
        self.total_visits = config.epochs * sum(len(s) for s in encoded)

    def run(self):
        """Train every epoch; return the mean pair loss of each.

        Each pair is sgns_pair_update on rows of syn0 and syn1: the
        output rows gain grad[n] * center in turn, the center gains
        grad @ rows, both at the incoming values.
        """
        cfg = self.config
        # Sampling draws from its own stream, apart from the init rng.
        rng = np.random.default_rng([cfg.seed, 0])
        syn0, syn1, sampler = self.syn0, self.syn1, self.sampler
        window, n_neg, dim = cfg.window, cfg.negatives, cfg.dim
        n_out = n_neg + 1
        out_idx = np.empty(n_out, dtype=np.int64)
        syn1_flat = syn1.reshape(-1)
        columns = np.arange(dim)
        scores = np.empty((_LOSS_CHUNK, n_out))
        lr_span = cfg.initial_lr - cfg.final_lr
        total = self.total_visits
        visit = 0
        epoch_losses = []
        for epoch in range(1, cfg.epochs + 1):
            loss_sum = 0.0
            n_pairs = 0
            filled = 0
            # Overflow in a diverging run is caught by _check_finite at the
            # epoch boundary; the interim numpy warnings are just noise.
            with np.errstate(over="ignore", invalid="ignore"):
                for sent in self.encoded:
                    length = len(sent)
                    for pos, center in enumerate(sent):
                        lr = cfg.initial_lr - lr_span * (visit / total)
                        visit += 1
                        if lr < cfg.final_lr:
                            lr = cfg.final_lr
                        b = int(rng.integers(1, window + 1))
                        lo = pos - b if pos - b > 0 else 0
                        hi = pos + b + 1 if pos + b + 1 < length else length
                        v = syn0[center]
                        for pos2 in range(lo, hi):
                            if pos2 == pos:
                                continue
                            context = sent[pos2]
                            if n_neg:
                                out_idx[1:] = sampler.draw(rng, n_neg, exclude=context)
                            out_idx[0] = context
                            rows = syn1.take(out_idx, axis=0)
                            score = scores[filled]
                            np.matmul(rows, v, out=score)
                            e = expit(score)
                            grad = e * -lr
                            grad[0] = (1.0 - e[0]) * lr
                            dv = grad @ rows
                            if len(set(out_idx.tolist())) == n_out:
                                rows += grad[:, None] * v
                                syn1[out_idx] = rows
                            else:
                                # A repeated row gains its updates one occurrence at a time.
                                flat = (out_idx[:, None] * dim + columns).ravel()
                                np.add.at(syn1_flat, flat, (grad[:, None] * v).ravel())
                            v += dv
                            n_pairs += 1
                            filled += 1
                            if filled == _LOSS_CHUNK:
                                loss_sum = _add_pair_losses(loss_sum, scores)
                                filled = 0
                loss_sum = _add_pair_losses(loss_sum, scores[:filled])
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
    config.validate()
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
    file and line number. The file is decoded as strict UTF-8.
    """
    with text_stream(source) as stream:
        tokens, vectors = _read_vector_rows(stream, getattr(stream, "name", "<stream>"))
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
