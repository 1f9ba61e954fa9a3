"""Offline evaluation: RMSE/MAE, split plans, k-fold CV, k sweeps.

A SplitPlan assigns every rating record to a fold (k-fold) or to the
train/test side (holdout, cold-start). evaluate() then, per fold,
rebuilds all training-side state (means, arrays, similarity rows) from
the train records only, predicts every test record, and aggregates
metrics; sweep_k shares that state across every k of a fold.
Fallback predictions are included in the metrics and counted, never
skipped: dropping them would flatter predictors that cannot reach cold
items.

The cold-start plan quarantines every rating of a sampled fraction of
items into the test side, manufacturing items the rating-based
similarity has never seen.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .ingest import text_stream
from .predict import PredictionConfig, predict_batch
from .simcore import make_provider

log = logging.getLogger(__name__)

KIND_KFOLD = "kfold"
KIND_HOLDOUT = "holdout"
KIND_COLD_START = "cold-start"

_DEFAULT_PARAMS = {KIND_KFOLD: 5, KIND_HOLDOUT: 0.8, KIND_COLD_START: 0.05}

RESULTS_HEADER = ["predictor", "split", "seed", "k", "fold", "rmse", "mae", "n_predictions", "n_fallbacks"]


def rmse(pairs):
    """Root mean squared error over (predicted, actual) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("rmse of empty input is undefined")
    arr = np.asarray(pairs, dtype=np.float64)
    resid = arr[:, 0] - arr[:, 1]
    return float(np.sqrt(np.mean(resid * resid)))


def mae(pairs):
    """Mean absolute error over (predicted, actual) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("mae of empty input is undefined")
    arr = np.asarray(pairs, dtype=np.float64)
    return float(np.mean(np.abs(arr[:, 0] - arr[:, 1])))


@dataclass(frozen=True)
class MetricReport:
    """Aggregate metrics of one evaluation run.

    For k-fold plans the headline rmse/mae are the unweighted mean of
    the per-fold values and ``per_fold`` carries the fold reports;
    counts are summed either way.
    """

    rmse: float
    mae: float
    n_predictions: int
    n_fallbacks: int
    per_fold: tuple = None

    def as_dict(self):
        d = {
            "rmse": self.rmse,
            "mae": self.mae,
            "n_predictions": self.n_predictions,
            "n_fallbacks": self.n_fallbacks,
        }
        if self.per_fold is not None:
            d["per_fold"] = [f.as_dict() for f in self.per_fold]
        return d


@dataclass(frozen=True, eq=False)
class SplitPlan:
    """Per-record fold assignment, reproducible from (kind, seed).

    ``assignment[r]`` is the fold index of record r for k-fold plans,
    and 0 (train) or 1 (test) for holdout and cold-start plans.
    """

    kind: str
    param: float
    seed: int
    assignment: np.ndarray

    @property
    def n_folds(self):
        return int(self.param) if self.kind == KIND_KFOLD else 1

    @property
    def label(self):
        if self.kind == KIND_KFOLD:
            return f"{self.kind}({int(self.param)})"
        return f"{self.kind}({self.param:g})"

    def folds(self):
        """Yield (fold_index, train_indices, test_indices) per fold."""
        if self.kind == KIND_KFOLD:
            for f in range(self.n_folds):
                yield f, np.flatnonzero(self.assignment != f), np.flatnonzero(self.assignment == f)
        else:
            yield 0, np.flatnonzero(self.assignment == 0), np.flatnonzero(self.assignment == 1)


_KIND_RE = re.compile(r"^([a-z_-]+)(?:\(([^()]+)\))?$")


def parse_split_kind(text):
    """Parse "kfold(5)" / "holdout(0.8)" / "cold-start(0.05)" forms.

    The parenthesized parameter is optional; defaults are 5 folds,
    0.8 train ratio, 0.05 cold item fraction.
    """
    m = _KIND_RE.match(text.strip().lower())
    if not m:
        raise ValueError(f"unrecognized split kind {text!r}")
    name = m.group(1).replace("_", "-")
    if name == "coldstart":
        name = KIND_COLD_START
    if name not in _DEFAULT_PARAMS:
        raise ValueError(f"unknown split kind {name!r}; expected one of {sorted(_DEFAULT_PARAMS)}")
    raw = m.group(2)
    if raw is None:
        return name, _DEFAULT_PARAMS[name]
    try:
        param = int(raw) if name == KIND_KFOLD else float(raw)
    except ValueError:
        raise ValueError(f"bad parameter {raw!r} for split kind {name}") from None
    return name, param


def make_split(ratings, kind, seed=1):
    """Build a deterministic SplitPlan over the dataset's records.

    k-fold partitions the records into folds whose sizes differ by at
    most one. Holdout sends round(ratio * n) records to train. The
    cold-start plan samples round(fraction * n_items) items (at least
    one) and sends every one of their ratings to test.
    """
    name, param = parse_split_kind(kind) if isinstance(kind, str) else kind
    n = len(ratings.records)
    rng = np.random.default_rng(seed)
    if name == KIND_KFOLD:
        f = int(param)
        if f < 2:
            raise ValueError(f"kfold needs at least 2 folds, got {f}")
        if n < f:
            raise ValueError(f"kfold({f}) needs at least {f} records, got {n}")
        assignment = np.empty(n, dtype=np.int64)
        assignment[rng.permutation(n)] = np.arange(n) % f
        return SplitPlan(name, float(f), seed, assignment)
    if name == KIND_HOLDOUT:
        ratio = float(param)
        if not 0.0 < ratio < 1.0:
            raise ValueError(f"holdout ratio must be in (0, 1), got {ratio}")
        n_train = int(round(ratio * n))
        if n_train < 1 or n_train >= n:
            raise ValueError(f"holdout({ratio}) leaves an empty side with {n} records")
        assignment = np.ones(n, dtype=np.int64)
        assignment[rng.permutation(n)[:n_train]] = 0
        return SplitPlan(name, ratio, seed, assignment)
    if name == KIND_COLD_START:
        fraction = float(param)
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"cold-start fraction must be in (0, 1), got {fraction}")
        items = sorted(ratings.per_item)
        m = max(1, int(round(fraction * len(items))))
        if m >= len(items):
            raise ValueError(f"cold-start({fraction}) would quarantine every item")
        chosen = {items[i] for i in rng.permutation(len(items))[:m]}
        assignment = np.fromiter(
            (1 if rec[1] in chosen else 0 for rec in ratings.records), dtype=np.int64, count=n
        )
        if not (assignment == 0).any():
            raise ValueError("cold-start plan left no training records")
        return SplitPlan(name, fraction, seed, assignment)
    raise ValueError(f"unknown split kind {name!r}")


def evaluate(predictor, plan, ratings, config=None, index=None, policy=None):
    """Run one predictor (cf, cb or hybrid) over a split plan and report RMSE/MAE.

    The one-cell sweep_k at config.k.
    """
    config = config or PredictionConfig()
    ((_predictor, _k, report),) = sweep_k([config.k], [predictor], plan, ratings, config, index, policy)
    return report


def sweep_k(ks, predictors, plan, ratings, config=None, index=None, policy=None):
    """Evaluate each predictor at each k on one fixed plan.

    Per fold, the training side is built once from the train records
    alone, and one provider per predictor serves every k. Test records
    are predicted with predict_rating in (item, user) order, one item's
    records at every k in turn, so each item's similarity row is
    computed once per fold and predictor; the metric sums do not depend
    on that order. Item vectors come from metadata, not ratings, so a
    shared index leaks nothing across folds.

    Returns a list of (predictor, k, MetricReport): predictors outer,
    ks inner.
    """
    ks = list(ks)
    if not ks:
        raise ValueError("sweep_k needs at least one k")
    if any(k < 1 for k in ks):
        raise ValueError(f"all k must be >= 1, got {ks}")
    config = config or PredictionConfig()
    configs = [replace(config, k=k) for k in ks]
    fold_reports = {(predictor, k): [] for predictor in predictors for k in ks}
    for fold_idx, train_idx, test_idx in plan.folds():
        train = ratings.subset(train_idx)
        test_records = sorted((ratings.records[i] for i in test_idx), key=lambda r: (r[1], r[0]))
        item_groups = [
            [(r[0], r[1]) for r in group] for _item, group in groupby(test_records, key=lambda r: r[1])
        ]
        for predictor in predictors:
            provider = make_provider(predictor, train, index, policy)
            per_k = [[] for _ in ks]
            for group in item_groups:
                for preds, k_config in zip(per_k, configs):
                    preds.extend(predict_batch(group, train, provider, k_config))
            for k, preds in zip(ks, per_k):
                pairs = [(p.value, r[2]) for p, r in zip(preds, test_records)]
                report = MetricReport(
                    rmse=rmse(pairs),
                    mae=mae(pairs),
                    n_predictions=len(pairs),
                    n_fallbacks=sum(1 for p in preds if p.is_fallback),
                )
                fold_reports[predictor, k].append(report)
                log.info(
                    "%s k=%d %s fold %d: rmse=%.6f mae=%.6f predictions=%d fallbacks=%d",
                    predictor, k, plan.label, fold_idx, report.rmse, report.mae,
                    report.n_predictions, report.n_fallbacks,
                )
    return [(predictor, k, _aggregate(plan, fold_reports[predictor, k])) for predictor in predictors for k in ks]


def _aggregate(plan, fold_reports):
    """One report over a plan's folds: k-fold means, or the single split's."""
    if plan.kind == KIND_KFOLD:
        return MetricReport(
            rmse=sum(r.rmse for r in fold_reports) / len(fold_reports),
            mae=sum(r.mae for r in fold_reports) / len(fold_reports),
            n_predictions=sum(r.n_predictions for r in fold_reports),
            n_fallbacks=sum(r.n_fallbacks for r in fold_reports),
            per_fold=tuple(fold_reports),
        )
    return fold_reports[0]


def results_rows(predictor, plan, k, report):
    """Flatten one evaluation into results-CSV rows.

    K-fold runs get one row per fold plus a "mean" row carrying the
    aggregate; single-split runs get a single fold-0 row.
    """
    def row(fold, rep):
        return [
            predictor, plan.label, str(plan.seed), str(k), str(fold),
            repr(rep.rmse), repr(rep.mae), str(rep.n_predictions), str(rep.n_fallbacks),
        ]

    if report.per_fold is None:
        return [row(0, report)]
    rows = [row(i, rep) for i, rep in enumerate(report.per_fold)]
    rows.append(row("mean", report))
    return rows


def write_results_csv(rows, sink):
    """Write results rows under the canonical header."""
    with text_stream(sink, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        writer.writerows(rows)


def write_manifest(manifest, sink):
    """Serialize a run's full configuration as stable JSON."""
    with text_stream(sink, "w") as stream:
        json.dump(manifest, stream, indent=2, sort_keys=True)
        stream.write("\n")
