"""Offline evaluation: RMSE/MAE, split plans, k-fold CV, k sweeps.

A SplitPlan assigns every rating record to a fold (k-fold) or to the
train/test side (holdout, cold-start). evaluate() then, per fold,
rebuilds all training-side state (means, arrays, similarity rows) from
the train records only, predicts every test record, and aggregates
metrics; sweep_k shares that state, and one neighbor ranking per test
record, across every k of a fold. It predicts one test item at a time,
from its rating and content rows, computed once for every predictor;
when the item's test users can read only a small share of its row, the
content row is computed at their rated items alone, with the same bits
there, so no metric changes. The ranking's own k is read from each
Prediction's value, and values_at reads only the smaller ks. rmse and mae score two aligned 1-D
arrays, the predicted and the actual ratings. Fallback predictions are
included in the metrics and counted, never skipped: dropping them would
flatter predictors that cannot reach cold items.

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
from numbers import Integral

import numpy as np

from .ingest import text_stream
from .predict import DETAIL_FULL, FixedRow, PredictionConfig, predict_batch, values_at
from .simcore import RowSource

log = logging.getLogger(__name__)

KIND_KFOLD = "kfold"
KIND_HOLDOUT = "holdout"
KIND_COLD_START = "cold-start"

_DEFAULT_PARAMS = {KIND_KFOLD: 5, KIND_HOLDOUT: 0.8, KIND_COLD_START: 0.05}

# A test item's content row is computed only at the columns its test users read when
# NARROW_RATIO times the sum of their training-row lengths is below the rated item
# count. Gathering the read item vectors costs more per cell than a whole row's
# product over the index in place: on 5,700 rated items and 150 dims a narrowed
# content row broke even at about 25% of the cells (2-vCPU x86-64 host, one thread).
NARROW_RATIO = 10

RESULTS_HEADER = ["predictor", "split", "seed", "k", "fold", "rmse", "mae", "n_predictions", "n_fallbacks"]


def _residuals(predicted, actual, metric):
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.ndim != 1 or predicted.shape != actual.shape or not len(predicted):
        raise ValueError(f"{metric} needs two non-empty 1-D arrays of one length, "
                         f"got shapes {predicted.shape} and {actual.shape}")
    return predicted - actual


def rmse(predicted, actual):
    """Root mean squared error of aligned 1-D predicted and actual ratings."""
    resid = _residuals(predicted, actual, "rmse")
    return float(np.sqrt(np.mean(resid * resid)))


def mae(predicted, actual):
    """Mean absolute error of aligned 1-D predicted and actual ratings."""
    return float(np.mean(np.abs(_residuals(predicted, actual, "mae"))))


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
    n = len(ratings)
    rng = np.random.default_rng(seed)
    if name == KIND_KFOLD:
        f = param
        if not isinstance(f, Integral) or isinstance(f, bool):
            raise ValueError(f"kfold needs an integer fold count, got {f!r}")
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
        items = ratings.item_ids
        m = max(1, int(round(fraction * len(items))))
        if m >= len(items):
            raise ValueError(f"cold-start({fraction}) would quarantine every item")
        chosen = items[rng.permutation(len(items))[:m]]
        assignment = np.isin(ratings.item, chosen).astype(np.int64)
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
    alone, with one RowSource over its rated items. Test records are
    predicted in (item, user) order, test item (the target) first, then
    predictor, from the target's rows that the RowSource computes once
    each: one predict_batch call per target and predictor reads its row
    through a FixedRow, once each at the largest k, into a preallocated
    (test records x ks) array; the metric sums do not depend on that
    order. The largest k is each prediction's own value, and values_at
    reads every smaller k from the same ranking, bit for bit what
    predict_rating gives at that k, so a one-k sweep never calls it. The
    fallbacks, counted from each prediction's detail, are the same at
    every k. Item vectors come from metadata, not ratings, so a shared
    index leaks nothing across folds.

    A target's test users read its row at most at the sum of their
    training-row lengths. Where NARROW_RATIO times that bound is below
    the number of rated items, its content row is computed only at the
    union of their training columns, with the whole row's bits there, and
    is NaN elsewhere, where no prediction reads.

    Returns a list of (predictor, k, MetricReport): predictors outer,
    ks inner.
    """
    ks, predictors = list(ks), list(predictors)
    config = config or PredictionConfig()
    for k in ks:
        replace(config, k=k)  # PredictionConfig rejects a k that is not an integer >= 1
    for what, values in (("k", ks), ("predictor", predictors)):
        if not values:
            raise ValueError(f"sweep_k needs at least one {what}")
        repeated = next((v for p, v in enumerate(values) if v in values[:p]), None)
        if repeated is not None:
            raise ValueError(f"{what} {repeated!r} is given more than once; each fold would count twice")
    top = replace(config, k=max(ks))
    below = [k for k in ks if k < top.k]
    top_column, below_columns = ks.index(top.k), [ks.index(k) for k in below]
    fold_reports = {(predictor, k): [] for predictor in predictors for k in ks}
    for fold_idx, train_idx, test_idx in plan.folds():
        train = ratings.subset(train_idx)
        rows = RowSource(predictors, train.arrays.items, train, index, policy)
        test = test_idx[np.lexsort((ratings.user[test_idx], ratings.item[test_idx]))]
        targets = _targets(ratings.user[test], ratings.item[test], train.arrays)
        actual = ratings.rating[test]
        predicted = [np.empty((len(test), len(ks))) for _predictor in predictors]
        n_fallbacks = [0] * len(predictors)
        start = 0
        for item, pairs, reads in targets:
            stop = start + len(pairs)
            for p, (values, _from_rating) in enumerate(rows.cells(item, reads)):
                preds = predict_batch(pairs, train, FixedRow(values), top)
                predicted[p][start:stop, top_column] = [pred.value for pred in preds]
                if below:
                    predicted[p][start:stop, below_columns] = [values_at(pred, below, train) for pred in preds]
                n_fallbacks[p] += len(preds) - [pred.detail for pred in preds].count(DETAIL_FULL)
            start = stop
        for predictor, cells, fallbacks in zip(predictors, predicted, n_fallbacks):
            for k, column in zip(ks, cells.T):
                report = MetricReport(
                    rmse=rmse(column, actual),
                    mae=mae(column, actual),
                    n_predictions=len(column),
                    n_fallbacks=fallbacks,
                )
                fold_reports[predictor, k].append(report)
                log.info(
                    "%s k=%d %s fold %d: rmse=%.6f mae=%.6f predictions=%d fallbacks=%d",
                    predictor, k, plan.label, fold_idx, report.rmse, report.mae,
                    report.n_predictions, report.n_fallbacks,
                )
    return [(predictor, k, _aggregate(plan, fold_reports[predictor, k])) for predictor in predictors for k in ks]


def _targets(users, items, arrays):
    """(item, its test pairs, the columns they read or None) per test item, in order.

    users and items are a fold's test pairs in (item, user) order, and
    arrays its training side's. The columns, a mask over the rated
    items, are the union of the item's test users' training columns,
    taken only where the sum of their row lengths is positive and
    NARROW_RATIO times it is below the rated item count; a user without
    training ratings reads nothing.
    """
    if not len(items):
        return []
    starts = np.flatnonzero(np.append(True, items[1:] != items[:-1]))
    no_row = (arrays.cols[:0],)
    columns = [arrays.rows.get(u, no_row)[0] for u in users.tolist()]
    bounds = np.add.reduceat(np.fromiter(map(len, columns), np.int64, len(columns)), starts)
    pairs = list(zip(users.tolist(), items.tolist()))
    targets = []
    for a, b, bound in zip(starts.tolist(), [*starts[1:].tolist(), len(pairs)], bounds.tolist()):
        reads = None
        if 0 < NARROW_RATIO * bound < len(arrays.items):
            reads = np.zeros(len(arrays.items), dtype=bool)
            reads[np.concatenate(columns[a:b])] = True
        targets.append((pairs[a][1], pairs[a:b], reads))
    return targets


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
