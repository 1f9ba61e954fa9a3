"""Item-based k-NN rating prediction over a similarity provider.

The predicted rating of user u for item i is the item's mean rating
plus the similarity-weighted mean of the user's deviations from the
neighbor items' own means:

    p(u, i) = mean(i) + sum_j s_ij * (r_uj - mean(j)) / sum_j s_ij

where j runs over the k most similar items the user has rated (the
target itself excluded), and only strictly positive similarities join
the neighborhood, which keeps the denominator positive. All means come
from the training ratings; a target item with no training ratings is
anchored on the global mean instead.

When no rated item has a positive similarity the prediction falls back
to the item mean, or the global mean for an unrated item; every value
is clamped to the dataset's rating scale. Every Prediction records
which route produced it. The predictor is indifferent to where
similarities come from: cf, cb and hybrid differ only in the rows of
the provider, from simcore.make_provider or a FixedRow for a target's
records. A prediction reads the target's row over the dataset's rated
items at the user's ones, counts the positive cells and ranks every
candidate with one stable argsort of the negated cells, without a
boolean-mask copy: positives sort ahead of 0.0, -0.0, negatives and
NaN, so the first min(k, positives) are the top k positive neighbors,
ties by ascending item id. Their running sums are taken in that order,
with no Python loop over neighbors. A full Prediction keeps those
running sums, so values_at reads its value at every smaller k from the
one ranking: a k sweep ranks each test record once, at its largest k,
whose value is the Prediction's own. A sweep still calls predict_rating
once per test record, with the target's row handed in as a FixedRow, so
a record pays for little beyond its numpy calls: a Prediction is a
slotted dataclass, the running sums come from np.add.accumulate (the
ufunc cumsum calls, so the same bits), and the clamp is written out in
place. Rating prediction is the only output: the evaluation scores
predicted ratings (RMSE/MAE), so there is no top-n ranking.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import check_integers

log = logging.getLogger(__name__)

DETAIL_FULL = "full"
DETAIL_ITEM_MEAN = "item-mean-fallback"
DETAIL_GLOBAL_MEAN = "global-mean-fallback"


@dataclass(frozen=True)
class PredictionConfig:
    """Neighborhood size of the predictor."""

    k: int = 35

    def __post_init__(self):
        check_integers(self, k=1)


@dataclass(slots=True)
class Prediction:
    """A predicted rating plus how it was produced.

    ``neighbors_used`` counts the positive-similarity neighbors behind
    a full prediction (0 on fallbacks); ``detail`` says whether the
    weighted formula ran or which mean stood in for it. A full
    prediction's ``running_sums`` are its anchor and the running sums
    cumsum(w * d) and cumsum(w) over its ranked neighbors, which
    values_at reads; fallbacks have None. A slotted dataclass, since
    one is built per test record: it is mutable and unhashable, and
    ``==`` and ``repr`` leave out ``running_sums``.
    """

    value: float
    detail: str = DETAIL_FULL
    neighbors_used: int = 0
    running_sums: tuple = field(default=None, compare=False, repr=False)

    @property
    def is_fallback(self):
        return self.detail != DETAIL_FULL


def _clamp(value, ratings):
    return float(min(max(value, ratings.r_min), ratings.r_max))


def _mean_fallback(item, ratings):
    mean = ratings.item_means.get(item)
    if mean is not None:
        return Prediction(_clamp(mean, ratings), DETAIL_ITEM_MEAN)
    return Prediction(_clamp(ratings.global_mean, ratings), DETAIL_GLOBAL_MEAN)


def predict_rating(user, item, ratings, provider, config=None):
    """Predict user's rating for item; never raises on unseen ids.

    A user with no training ratings gets the global mean immediately.
    Otherwise candidates are the user's rated items with defined,
    strictly positive similarity to the target in the provider's row
    over ``ratings.arrays.items``; the k largest enter the weighted
    sum, ties broken by ascending item id, summed in that order. They
    are the first min(k, positives) of a stable argsort of every
    candidate's negated cell, where NaN, zeros and negatives sort last.
    No candidate at all trips the mean fallback chain.
    """
    config = config or PredictionConfig()
    arrays = ratings.arrays
    user_row = arrays.rows.get(user)
    if user_row is None:
        return Prediction(_clamp(ratings.global_mean, ratings), DETAIL_GLOBAL_MEAN)
    columns, deviations = user_row
    sims = provider.row(item, arrays.items)[columns]
    k = min(config.k, np.count_nonzero(sims > 0.0))
    if not k:
        return _mean_fallback(item, ratings)
    top = (-sims).argsort(kind="stable")[:k]
    weights = sims[top]
    num = np.add.accumulate(weights * deviations[top])
    den = np.add.accumulate(weights)
    anchor = ratings.item_means.get(item)
    if anchor is None:
        anchor = ratings.global_mean
    value = float(min(max(anchor + float(num[-1]) / float(den[-1]), ratings.r_min), ratings.r_max))
    return Prediction(value, DETAIL_FULL, len(top), (anchor, num, den))


def values_at(prediction, ks, ratings):
    """The prediction's value at each k of ks, bit for bit predict_rating's at that k.

    Every k must be at most the k the prediction was made at. Its k best
    neighbors are then the first k of the same stable ranking, and a
    prefix of a sequential cumsum is the cumsum of that prefix, so the
    value reads index min(k, neighbors_used) - 1 of the running sums; at
    the last index it is the prediction's own value. A fallback has its
    value at every k: whether any candidate is left does not depend on k.
    """
    if prediction.running_sums is None:
        return [prediction.value] * len(ks)
    anchor, num, den = prediction.running_sums
    n, value = prediction.neighbors_used, prediction.value
    r_min, r_max = ratings.r_min, ratings.r_max
    return [
        value if k >= n else float(min(max(anchor + float(num[k - 1]) / float(den[k - 1]), r_min), r_max))
        for k in ks
    ]


@dataclass(slots=True)
class FixedRow:
    """One target's row, computed once, as its records' provider: row() hands it back unchecked."""

    values: np.ndarray

    def row(self, item, items):
        return self.values


def predict_batch(pairs, ratings, provider, config=None):
    """Predictions for a sequence of (user, item) pairs, order kept."""
    return [predict_rating(u, i, ratings, provider, config) for u, i in pairs]
