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

When the neighborhood is too small the prediction falls back to the
item mean, or the global mean for an unrated item. Every Prediction
records which route produced it. The predictor is indifferent to where
similarities come from: cf, cb and hybrid differ only in the pair
function of the SimilarityProvider that simcore.make_provider builds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

log = logging.getLogger(__name__)

DETAIL_FULL = "full"
DETAIL_ITEM_MEAN = "item-mean-fallback"
DETAIL_GLOBAL_MEAN = "global-mean-fallback"


@dataclass(frozen=True)
class PredictionConfig:
    """Neighborhood size and clamping behavior for the predictor."""

    k: int = 35
    min_neighbors: int = 1
    clamp: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.min_neighbors < 1:
            raise ValueError(f"min_neighbors must be >= 1, got {self.min_neighbors}")


@dataclass(frozen=True)
class Prediction:
    """A predicted rating plus how it was produced.

    ``neighbors_used`` counts the positive-similarity neighbors behind
    a full prediction (0 on fallbacks); ``detail`` says whether the
    weighted formula ran or which mean stood in for it.
    """

    value: float
    detail: str = DETAIL_FULL
    neighbors_used: int = 0

    @property
    def is_fallback(self):
        return self.detail != DETAIL_FULL


def _clamp(value, ratings, config):
    if not config.clamp:
        return value
    return min(max(value, ratings.r_min), ratings.r_max)


def _mean_fallback(item, ratings, config):
    mean = ratings.item_means.get(item)
    if mean is not None:
        return Prediction(_clamp(mean, ratings, config), DETAIL_ITEM_MEAN)
    return Prediction(_clamp(ratings.global_mean, ratings, config), DETAIL_GLOBAL_MEAN)


def predict_rating(user, item, ratings, provider, config=None):
    """Predict user's rating for item; never raises on unseen ids.

    A user with no training ratings gets the global mean immediately.
    Otherwise candidates are the user's rated items with defined,
    strictly positive similarity to the target; the k largest enter the
    weighted sum, ties broken by ascending item id. Fewer than
    min_neighbors candidates trips the mean fallback chain.
    """
    config = config or PredictionConfig()
    row = ratings.per_user.get(user)
    if not row:
        return Prediction(_clamp(ratings.global_mean, ratings, config), DETAIL_GLOBAL_MEAN)
    scored = []
    for j in row:
        if j == item:
            continue
        sv = provider.sim(item, j)
        if sv is not None and sv.value > 0.0:
            scored.append((sv.value, j))
    if len(scored) < config.min_neighbors:
        return _mean_fallback(item, ratings, config)
    scored.sort(key=lambda t: (-t[0], t[1]))
    neighborhood = scored[: config.k]
    anchor = ratings.item_means.get(item)
    if anchor is None:
        anchor = ratings.global_mean
    num = 0.0
    den = 0.0
    for value, j in neighborhood:
        num += value * (row[j] - ratings.item_means[j])
        den += value
    return Prediction(_clamp(anchor + num / den, ratings, config), DETAIL_FULL, len(neighborhood))


def predict_batch(pairs, ratings, provider, config=None):
    """Predictions for a sequence of (user, item) pairs, order kept."""
    config = config or PredictionConfig()
    return [predict_rating(u, i, ratings, provider, config) for u, i in pairs]


def recommend_top_n(user, ratings, provider, n=10, candidates=None, config=None):
    """Rank items the user has not rated by predicted rating.

    Candidates default to every item in the dataset. Full predictions
    rank above fallback ones; within each tier the order is descending
    value, ties by ascending item id. A user with no ratings gets the
    candidates ranked by their item means.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    config = config or PredictionConfig()
    seen = ratings.per_user.get(user) or {}
    if candidates is None:
        candidates = ratings.per_item.keys()
    ranked = []
    if not seen:
        for item in candidates:
            ranked.append((item, _mean_fallback(item, ratings, config)))
    else:
        for item in candidates:
            if item in seen:
                continue
            ranked.append((item, predict_rating(user, item, ratings, provider, config)))
    ranked.sort(key=lambda t: (t[1].is_fallback, -t[1].value, t[0]))
    return ranked[:n]
