"""In-memory spans around the public functions of the relfrec modules.

The tracer patches each function listed in TRACED, in every relfrec
module namespace that holds it, with a wrapper that records one span:
name, start, end and the span that was open when it was called. Spans
live in flat arrays so a pass with hundreds of thousands of per-pair
similarity calls stays cheap; ``save`` writes them out when the run
ends. The benchmark opens its own root spans (``bench.setup``,
``bench.pass``) around the phases, so every library span can be
assigned to the phase that caused it.

A listed function that the program no longer has is skipped, and the
metrics that depend on it are reported as absent rather than failing
the run. Nothing here relies on arguments or classes that exist only
to configure caching or worker threads.
"""

from __future__ import annotations

import importlib
import json
import logging
import re
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("ingest", "embed", "simcore", "predict", "evaluation")

TRACED = {
    "ingest": ("parse_ratings", "parse_item_features", "clean_and_join", "save_bundle", "RatingDataset.subset"),
    "embed": ("train_skipgram", "save_embeddings", "load_embeddings"),
    "simcore": ("build_item_vectors", "rating_cosine", "relf_sim", "hybrid_sim"),
    "predict": ("predict_batch", "predict_rating"),
    "evaluation": ("make_split", "evaluate", "sweep_k"),
}

PAIR_FUNCTIONS = ("simcore.rating_cosine", "simcore.relf_sim", "simcore.hybrid_sim")
PREDICTORS = ("cf", "cb", "hybrid")

# Per-layer metrics: name -> (unit, traced functions it needs).
PER_LAYER = {
    "ingest.busy_s": ("s", ("ingest.parse_ratings", "ingest.parse_item_features", "ingest.clean_and_join")),
    "ingest.records_per_s": ("1/s", ("ingest.parse_ratings", "ingest.parse_item_features", "ingest.clean_and_join")),
    "ingest.subset_s": ("s", ("ingest.RatingDataset.subset",)),
    "ingest.subset_calls": ("count", ("ingest.RatingDataset.subset",)),
    "ingest.self_s": ("s", ()),
    "embed.train_s": ("s", ("embed.train_skipgram",)),
    "embed.tokens_per_s": ("1/s", ("embed.train_skipgram",)),
    "embed.pairs_per_s": ("1/s", ("embed.train_skipgram",)),
    "embed.final_loss": ("nats", ("embed.train_skipgram",)),
    "embed.io_s": ("s", ("embed.save_embeddings", "embed.load_embeddings")),
    "embed.self_s": ("s", ()),
    "simcore.item_vectors_s": ("s", ("simcore.build_item_vectors",)),
    "simcore.rating_calls": ("count", ("simcore.rating_cosine",)),
    "simcore.rating_s": ("s", ("simcore.rating_cosine",)),
    "simcore.content_calls": ("count", ("simcore.relf_sim",)),
    "simcore.content_s": ("s", ("simcore.relf_sim",)),
    "simcore.hybrid_warm": ("count", ("simcore.hybrid_sim",)),
    "simcore.hybrid_cold": ("count", ("simcore.hybrid_sim",)),
    "simcore.useful_ratio": ("ratio", PAIR_FUNCTIONS + ("predict.predict_batch",)),
    "simcore.self_s": ("s", ()),
    "predict.self_s": ("s", ()),
    "predict.predictions": ("count", ("evaluation.evaluate",)),
    **{f"predict.fallback_ratio.{p}": ("ratio", ("evaluation.evaluate",)) for p in PREDICTORS},
    **{f"predict.neighbors_mean.{p}": ("count", ("evaluation.evaluate", "predict.predict_batch")) for p in PREDICTORS},
    "evaluation.split_s": ("s", ("evaluation.make_split",)),
    "evaluation.evaluate_calls": ("count", ("evaluation.evaluate",)),
    "evaluation.self_s": ("s", ()),
    "trace.run_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}

_PAIRS_RE = re.compile(r"\((\d+) pairs\)")


class _PairLog(logging.Handler):
    """Collects the pair counts the trainer logs once per epoch."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.pairs = 0
        self.records = 0

    def emit(self, record):
        match = _PAIRS_RE.search(record.getMessage())
        if match:
            self.pairs += int(match.group(1))
            self.records += 1


class Tracer:
    """Spans in memory plus the counters read from traced return values."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self._stack = []
        self._patched = []
        self.missing = []
        self._predictor = []
        self.counters = {
            "records": 0,
            "tokens": 0,
            "final_loss": None,
            "hybrid_warm": 0,
            "hybrid_cold": 0,
            "predictions": dict.fromkeys(PREDICTORS, 0),
            "fallbacks": dict.fromkeys(PREDICTORS, 0),
            "batch_predictions": dict.fromkeys(PREDICTORS, 0),
            "neighbors": dict.fromkeys(PREDICTORS, 0),
        }
        self._pair_log = _PairLog()
        self._embed_log = logging.getLogger("relfrec.embed")
        self._saved_log_state = None

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name):
        """A span the benchmark opens around one of its own phases."""
        idx = self._open(self._name_id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    def _wrap(self, qualname, fn):
        nid = self._name_id(qualname)
        before, after = self._hooks(qualname)
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self._stack
        predictor = self._predictor

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            if before is not None:
                before(args, kwargs)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                start[idx] = t0
                end[idx] = t1
                stack.pop()
                if before is not None:
                    predictor.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def _hooks(self, qualname):
        c = self.counters
        if qualname == "ingest.parse_ratings":
            def after(args, kwargs, result):
                c["records"] += len(result)
            return None, after
        if qualname == "embed.train_skipgram":
            def after(args, kwargs, result):
                config = args[1] if len(args) > 1 else kwargs.get("config")
                epochs = config.epochs if config is not None else 1
                c["tokens"] += epochs * sum(len(s.tokens) for s in args[0])
                losses = getattr(result, "epoch_losses", None)
                if losses:
                    c["final_loss"] = float(losses[-1])
            return None, after
        if qualname == "simcore.hybrid_sim":
            def after(args, kwargs, result):
                if result is None:
                    return
                if result.source == "rating":
                    c["hybrid_warm"] += 1
                elif result.source == "content":
                    c["hybrid_cold"] += 1
            return None, after
        if qualname == "evaluation.evaluate":
            def before(args, kwargs):
                self._predictor.append(args[0] if args else kwargs.get("predictor"))

            def after(args, kwargs, result):
                predictor = args[0] if args else kwargs.get("predictor")
                if predictor in c["predictions"]:
                    c["predictions"][predictor] += result.n_predictions
                    c["fallbacks"][predictor] += result.n_fallbacks
            return before, after
        if qualname == "predict.predict_batch":
            def after(args, kwargs, result):
                predictor = self._predictor[-1] if self._predictor else None
                if predictor in c["neighbors"]:
                    c["batch_predictions"][predictor] += len(result)
                    c["neighbors"][predictor] += sum(p.neighbors_used for p in result)
            return None, after
        return None, None

    def install(self):
        """Patch every traced function that exists; note the ones that do not."""
        modules = [m for n, m in sorted(sys.modules.items()) if (n == "relfrec" or n.startswith("relfrec.")) and m]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"relfrec.{layer}")
            for name in names:
                qualname = f"{layer}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name, None)
                    original = getattr(cls, attr, None) if cls is not None else None
                    if original is None:
                        self.missing.append(qualname)
                        continue
                    self._patch(cls, attr, self._wrap(qualname, original))
                    continue
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(qualname)
                    continue
                traced = self._wrap(qualname, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._patch(mod, name, traced)
        self._saved_log_state = (self._embed_log.level, self._embed_log.propagate)
        self._embed_log.setLevel(logging.INFO)
        self._embed_log.propagate = False
        self._embed_log.addHandler(self._pair_log)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Restore every patched function and the trainer's logger."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._saved_log_state is not None:
            self._embed_log.removeHandler(self._pair_log)
            self._embed_log.setLevel(self._saved_log_state[0])
            self._embed_log.propagate = self._saved_log_state[1]
            self._saved_log_state = None

    def arrays(self):
        """Span columns as numpy arrays: start, end, name id, parent index."""
        return (
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.name, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
        )

    def save(self, path):
        """Write the spans (compressed columns plus the name table)."""
        start, end, name, parent = self.arrays()
        np.savez_compressed(path, start=start, end=end, name=name, parent=parent,
                            names=np.asarray(json.dumps(self.names)))

    def layer_metrics(self, untraced_run_s):
        """Per-layer metrics of the ``bench.pass`` span and of ``bench.setup``.

        Self time is a span's duration minus the time its direct children
        cover; a layer's self time is the sum over its spans. Metrics whose
        traced functions are missing are left out and listed as absent.
        """
        start, end, name, parent = self.arrays()
        n = len(start)
        dur = end - start
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        root = np.where(has_parent, parent, np.arange(n))
        while True:
            nxt = np.where(parent[root] >= 0, parent[root], root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        ids = {nm: i for i, nm in enumerate(self.names)}
        pass_span = int(np.flatnonzero(name == ids["bench.pass"])[0])
        in_pass = root == pass_span
        in_setup = root == int(np.flatnonzero(name == ids["bench.setup"])[0])
        in_run = in_pass | in_setup

        def mask(fn):
            nid = ids.get(fn)
            return (name == nid) if nid is not None else np.zeros(n, dtype=bool)

        def total(fn, where):
            return float(dur[mask(fn) & where].sum())

        def calls(fn, where):
            return int((mask(fn) & where).sum())

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        layer_of = np.array([nm.split(".")[0] for nm in self.names])[name]
        run_s = float(dur[pass_span])
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = float(self_time[in_pass & (layer_of == layer)].sum())
        busy = sum(total(f, in_setup | in_pass) for f in PER_LAYER["ingest.busy_s"][1])
        m["ingest.busy_s"] = busy
        m["ingest.records_per_s"] = ratio(c["records"], busy)
        m["ingest.subset_s"] = total("ingest.RatingDataset.subset", in_pass)
        m["ingest.subset_calls"] = calls("ingest.RatingDataset.subset", in_pass)
        train_s = total("embed.train_skipgram", in_pass)
        m["embed.train_s"] = train_s
        m["embed.tokens_per_s"] = ratio(c["tokens"], train_s)
        if train_s and not self._pair_log.records:
            m["embed.pairs_per_s"] = None
        else:
            m["embed.pairs_per_s"] = ratio(self._pair_log.pairs, train_s)
        m["embed.final_loss"] = c["final_loss"] if c["final_loss"] is not None else (None if train_s else 0.0)
        m["embed.io_s"] = total("embed.save_embeddings", in_run) + total("embed.load_embeddings", in_run)
        m["simcore.item_vectors_s"] = total("simcore.build_item_vectors", in_run)
        m["simcore.rating_calls"] = calls("simcore.rating_cosine", in_pass)
        m["simcore.rating_s"] = total("simcore.rating_cosine", in_pass)
        m["simcore.content_calls"] = calls("simcore.relf_sim", in_pass)
        m["simcore.content_s"] = total("simcore.relf_sim", in_pass)
        m["simcore.hybrid_warm"] = c["hybrid_warm"]
        m["simcore.hybrid_cold"] = c["hybrid_cold"]
        pair_ids = [ids[f] for f in PAIR_FUNCTIONS if f in ids]
        is_pair = np.isin(name, pair_ids)
        outermost = is_pair & in_pass & ~(has_parent & np.isin(name[np.maximum(parent, 0)], pair_ids))
        m["simcore.useful_ratio"] = ratio(sum(c["neighbors"].values()), int(outermost.sum()))
        m["predict.predictions"] = sum(c["predictions"].values())
        for p in PREDICTORS:
            m[f"predict.fallback_ratio.{p}"] = ratio(c["fallbacks"][p], c["predictions"][p])
            m[f"predict.neighbors_mean.{p}"] = ratio(c["neighbors"][p], c["batch_predictions"][p])
        m["evaluation.split_s"] = total("evaluation.make_split", in_pass)
        m["evaluation.evaluate_calls"] = calls("evaluation.evaluate", in_pass)
        m["trace.run_s"] = run_s
        m["trace.overhead_s"] = run_s - untraced_run_s
        absent = sorted(k for k, (_unit, needs) in PER_LAYER.items()
                        if m.get(k) is None or any(f in self.missing for f in needs))
        metrics = {k: {"value": m[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER if k not in absent}
        glue = float(self_time[pass_span])
        return metrics, absent, glue
