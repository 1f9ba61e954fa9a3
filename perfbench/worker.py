"""One pass of one workload in one fresh, single-threaded process.

Usage: python3 perfbench/worker.py SPEC.json

The spec (written by run.py) names the generated input files and the
workload's settings. The worker sets up the way the CLI stages do
(ingest the raw files; for the evaluation workloads also load the
vector file and build item vectors), runs the workload's timed stages
once, checks the outputs, and writes its measurements as JSON to the
spec's ``result`` path. It reads no data other than the spec's inputs.

Each pass gets a fresh process because repeated passes in one process
slow down as the program's garbage accumulates, which would make the
result depend on how many passes fit in the run.

``quality`` adds the checks against the per-pair oracles and the
quality numbers that need extra work. ``trace_pass`` runs set-up and
the pass under the tracer and reports the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

from clock import Clock  # noqa: E402

CLOCK = Clock()
if __name__ == "__main__":
    # Sample the machine's speed from before the heavy imports on, so
    # that set-up time can be rescaled as well.
    CLOCK.start()
STARTED = CLOCK.reading()

import numpy as np  # noqa: E402

import synthdata  # noqa: E402
from relfrec import embed, evaluation, ingest, predict, simcore  # noqa: E402

from checks import Ledger, StageFailed, check_cells, check_sample, results_digest  # noqa: E402
from tracer import Tracer  # noqa: E402


def genre_pools(tokens):
    """Feature tokens grouped by the genre prefix genre_world gives them."""
    pools = {}
    for token in tokens:
        head = token.split("_", 1)[0]
        if head.startswith("g") and head[1:].isdigit():
            pools.setdefault(head, []).append(token)
    return [pools[g] for g in sorted(pools)]


def group_margin(table, groups):
    """Mean intra-group minus mean inter-group token cosine."""
    intra = [synthdata.mean_pairwise_cosine(table, g) for g in groups]
    inter = [synthdata.mean_pairwise_cosine(table, a, b)
             for n, a in enumerate(groups) for b in groups[n + 1:]]
    return float(np.mean(intra) - np.mean(inter))


def setup(spec, ledger):
    """The CLI's ingest stage, plus loading vectors for evaluation workloads."""
    inputs = spec["inputs"]
    ratings = ledger.call("parse_ratings", ingest.parse_ratings, inputs["ratings"])
    catalog = ledger.call("parse_item_features", ingest.parse_item_features, inputs["features"])
    bundle = ledger.call("clean_and_join", ingest.clean_and_join, ratings, catalog)
    ledger.call("save_bundle", ingest.save_bundle, bundle, catalog, Path(spec["work_dir"]) / "bundle")
    state = {"ratings": bundle.ratings, "sentences": bundle.sentences}
    if "vectors" in inputs:
        table = ledger.call("load_embeddings", embed.load_embeddings, inputs["vectors"])
        state["table"] = table
        state["index"] = ledger.call("build_item_vectors", simcore.build_item_vectors, bundle.sentences, table)
    return state


def train_config(spec):
    return embed.TrainConfig(seed=spec["seed"], **spec["train"])


def evaluate_cells(spec, plan, ratings, index, ledger, predictors, ks):
    """Evaluate each predictor at each k: sweep_k when there are several ks.

    Returns (cells, (reference, wall) seconds in evaluate/sweep_k, the
    same per predictor).
    """
    config = predict.PredictionConfig(k=spec["k"])
    policy = simcore.HybridPolicy()
    if len(ks) > 1:
        r0 = CLOCK.reading()
        cells = ledger.call("sweep_k", evaluation.sweep_k, ks, predictors, plan, ratings,
                            config=config, index=index, policy=policy)
        return list(cells), CLOCK.seconds(r0, CLOCK.reading()), {}
    cells, per_predictor = [], {}
    for predictor in predictors:
        r0 = CLOCK.reading()
        report = ledger.call(f"evaluate[{predictor}]", evaluation.evaluate, predictor, plan, ratings,
                             config=config, index=index, policy=policy)
        per_predictor[predictor] = CLOCK.seconds(r0, CLOCK.reading())
        cells.append((predictor, ks[0], report))
    total = tuple(sum(t[n] for t in per_predictor.values()) for n in (0, 1))
    return cells, total, per_predictor


def quality_numbers(cells, k):
    """RMSE/MAE per predictor at the reporting k."""
    q = {}
    for predictor, cell_k, report in cells:
        if cell_k == k:
            q[f"rmse_{predictor}"] = report.rmse
            q[f"mae_{predictor}"] = report.mae
    return q


def train_pass(spec, state, ledger):
    """train-embed: train, save and reload the table, build item vectors."""
    path = Path(spec["work_dir"]) / "vectors.txt"
    sentences = state["sentences"]
    r0 = CLOCK.reading()
    table = ledger.call("train_skipgram", embed.train_skipgram, sentences, train_config(spec))
    r_train = CLOCK.reading()
    ledger.call("save_embeddings", embed.save_embeddings, table, path)
    loaded = ledger.call("load_embeddings", embed.load_embeddings, path)
    index = ledger.call("build_item_vectors", simcore.build_item_vectors, sentences, loaded)
    run_s = CLOCK.seconds(r0, CLOCK.reading())
    ledger.check("embeddings round trip", loaded.vocab.tokens == table.vocab.tokens
                 and np.array_equal(loaded.input_vectors, table.input_vectors))
    ledger.check("item vectors cover every sentence", len(index) == len(sentences),
                 f"{len(index)} vectors for {len(sentences)} sentences")
    probe = sentences[len(sentences) // 2]
    expected = np.mean([loaded.vector(t) for t in probe.tokens], axis=0)
    ledger.check("item vector is the token mean",
                 float(np.max(np.abs(index.vectors[probe.item_id] - expected))) <= 1e-12)
    state["trained"], state["index"] = loaded, index
    return {"run_s": run_s, "train_s": CLOCK.seconds(r0, r_train),
            "train_tokens": spec["train"]["epochs"] * sum(len(s.tokens) for s in sentences),
            "digest": hashlib.sha256(path.read_bytes()).hexdigest()}


def train_probe(spec, state, ledger, out):
    """Predict a cold-start split with the vectors just trained (not part of run_s)."""
    ratings = state["ratings"]
    plan = ledger.call("make_split[probe]", evaluation.make_split, ratings, spec["probe_split"], spec["seed"])
    cells, eval_s, _ = evaluate_cells(spec, plan, ratings, state["index"], ledger, spec["predictors"], [spec["k"]])
    check_cells(ledger, cells, plan)
    state["plan"], state["cells"] = plan, cells
    out["pass"]["predictions"] = sum(r.n_predictions for _p, _k, r in cells)
    out["pass"]["eval_s"] = eval_s
    out["pass"]["probe_digest"] = results_digest(cells, plan)
    out["quality"] = quality_numbers(cells, spec["k"])


def eval_pass(spec, state, ledger):
    """holdout-dense / coldstart-sparse: split, then evaluate or sweep k."""
    ratings = state["ratings"]
    r0 = CLOCK.reading()
    plan = ledger.call("make_split", evaluation.make_split, ratings, spec["split"], spec["seed"])
    cells, eval_s, per_predictor = evaluate_cells(spec, plan, ratings, state["index"], ledger,
                                                  spec["predictors"], spec["ks"])
    run_s = CLOCK.seconds(r0, CLOCK.reading())
    check_cells(ledger, cells, plan)
    state["plan"], state["cells"] = plan, cells
    return {"run_s": run_s, "eval_s": eval_s, "evaluate_s": per_predictor,
            "predictions": sum(report.n_predictions for _p, _k, report in cells),
            "digest": results_digest(cells, plan)}


def quality(spec, state, ledger, out):
    """Oracle checks, the clique margin, and predictors the pass did not run."""
    ratings, index, plan = state["ratings"], state["index"], state["plan"]
    cells = list(state["cells"])
    if spec["workload"] == "train-embed":
        sentences, clique_a, clique_b = synthdata.two_clique_corpus(seed=spec["seed"])
        cliques = ledger.call("train_skipgram[cliques]", embed.train_skipgram, sentences, train_config(spec))
        out["clique_margin"] = group_margin(cliques, [clique_a, clique_b])
        out["genre_pool_margin"] = group_margin(state["trained"], genre_pools(state["trained"].vocab.tokens))
    else:
        out["clique_margin"] = group_margin(state["table"], genre_pools(state["table"].vocab.tokens))
        if spec["extra_predictors"]:
            more, _, _ = evaluate_cells(spec, plan, ratings, index, ledger, spec["extra_predictors"], [spec["k"]])
            check_cells(ledger, more, plan)
            cells.extend(more)
    check_sample(ledger, cells, plan, ratings, index, simcore.HybridPolicy(), spec["seed"])
    out.setdefault("quality", {}).update(quality_numbers(cells, spec["k"]))


def run(spec):
    """Set up, run one pass, check it; return the measurements.

    Every time is a (reference seconds, wall seconds) pair; see clock.py.
    The traced pass runs without the clock, so the tracer's spans hold
    no speed samples, and its times are wall seconds.
    """
    ledger = Ledger()
    tracer = Tracer() if spec["trace_pass"] else None
    run_pass = train_pass if spec["workload"] == "train-embed" else eval_pass
    out = {}
    try:
        if tracer:
            CLOCK.stop()
            tracer.install()
            try:
                with tracer.span("bench.setup"):
                    state = setup(spec, ledger)
                out["ready_monotonic"] = time.monotonic()
                with tracer.span("bench.pass"):
                    out["pass"] = run_pass(spec, state, ledger)
            finally:
                tracer.uninstall()
            out["per_layer"], out["absent"], out["glue_s"] = tracer.layer_metrics(spec["untraced_run_s"])
            out["missing"] = tracer.missing
            out["n_spans"] = len(tracer.start)
            tracer.save(spec["spans"])
        else:
            CLOCK.start()
            state = setup(spec, ledger)
            out["ready_monotonic"] = time.monotonic()
            ready = CLOCK.reading()
            out["setup_factor"] = CLOCK.factor(STARTED, ready)
            out["setup_sampling_s"] = ready[1] - STARTED[1]
            out["pass"] = run_pass(spec, state, ledger)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if spec["workload"] == "train-embed" and not tracer:
            train_probe(spec, state, ledger, out)
        elif spec["workload"] != "train-embed":
            out["quality"] = quality_numbers(state["cells"], spec["k"])
        if spec["quality"]:
            r0 = CLOCK.reading()
            quality(spec, state, ledger, out)
            out["quality_s"] = CLOCK.seconds(r0, CLOCK.reading())[1]
    except StageFailed:
        pass
    finally:
        CLOCK.stop()
    out["attempted"] = ledger.attempted
    out["failures"] = ledger.failures
    out["speed_samples"] = len(CLOCK.samples)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    out = run(spec)
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
