"""Benchmark of the relfrec pipeline: three seeded workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The command

1. generates the workload's inputs from ``--seed`` with the generators
   in tests/synthdata.py: the raw ``ratings.dat`` and ``features.csv``
   and, for the evaluation workloads, a vector file in the
   ``save_embeddings`` text format (genre centroid plus seeded noise);
2. for ``--seconds``, but at least MIN_PASSES times, starts a fresh
   single-threaded worker process that reads only those files, sets up,
   runs one timed pass of the workload's stages and checks the outputs
   (worker.py, checks.py). Processes run one at a time;
3. writes a run record ``perfbench/results/BENCH_<workload>_<seed>_t<trace>.json``
   (commit, machine, load, versions, BLAS and thread settings, input
   SHA-256s, every pass in reference and wall seconds) and prints each
   metric by name and unit, the failed ratio, then one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``), times in reference seconds (clock.py):

* setup_s: process start to ready (imports, ingest, and for the
  evaluation workloads loading vectors and building item vectors),
  median over the passes.
* run_s: the timed stages, median over the passes.
* predictions_per_s: test predictions per second spent in
  evaluate/sweep_k; on train-embed, in a cold-start probe that predicts
  with the vectors just trained (outside run_s).
* peak_rss_mb: the worker's high-water RSS after its pass, median.
* rmse_*/mae_*: each predictor at k=35, deterministic per seed.
* clique_margin: mean intra- minus inter-group token cosine. On
  train-embed over the two-clique corpus trained with the workload's
  hyperparameters (over the genre pools it is ~5e-4 after 2 epochs, as
  every token cosine is ~0.999; the run record keeps that value too);
  elsewhere over the genre pools of the vector file.

The failed ratio, failed / attempted, is 0 on a correct run, so it is
reported by the ``failed`` and ``attempted`` fields, not as a metric.
Operations are stage calls plus output checks.

With ``--trace 1`` the metrics are the per-layer ones: untraced passes
for half of ``--seconds``, then one pass under the tracer (tracer.py),
in wall seconds; ``trace.overhead_s`` is its run time minus the
untraced median, and its spans go to ``perfbench/results/spans_<workload>.npz``.
A layer that does no work on a workload reports 0; a metric whose
traced function no longer exists is left out and listed as absent.

``--world roadmap`` runs holdout-dense once at the ROADMAP baseline size
and compares its evaluate times with that baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
RESULTS = HERE / "results"
WORK = HERE / ".work"

DEADLINE_S = 170.0
MIN_PASSES = 3
MAX_PASSES = 50
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Reference hyperparameters of the CLI's train-embed, at 2 epochs.
TRAIN = {"window": 8, "dim": 150, "negatives": 25, "epochs": 2}
# The dense world: ~100 raters per item, 50 ratings per user.
DENSE = {"n_users": 800, "n_items": 400, "ratings_per_user": 50}
# The sparse world: 6000 items (a dense items x items float64 matrix
# would be 288 MB), ~15 raters per item, 15 ratings per user.
SPARSE = {"n_users": 6000, "n_items": 6000, "ratings_per_user": 15}
VECTOR_DIM = 150
VECTOR_NOISE = 1.5

# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    "train-embed": {
        "world": DENSE, "vectors": False, "k": 35,
        "predictors": ["cf", "cb", "hybrid"], "probe_split": "cold-start(0.2)",
    },
    "holdout-dense": {
        "world": DENSE, "vectors": True, "k": 35, "split": "holdout(0.8)",
        "predictors": ["cf", "cb", "hybrid"], "ks": [35], "extra_predictors": [],
    },
    "coldstart-sparse": {
        "world": SPARSE, "vectors": True, "k": 35, "split": "cold-start(0.05)",
        "predictors": ["cf", "hybrid"], "ks": [5, 10, 20, 35, 50], "extra_predictors": ["cb"],
    },
}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "predictions_per_s": "1/s", "peak_rss_mb": "MB",
    "rmse_cf": "rating", "rmse_cb": "rating", "rmse_hybrid": "rating",
    "mae_cf": "rating", "mae_cb": "rating", "mae_hybrid": "rating", "clique_margin": "cosine",
}

# ROADMAP baseline of holdout-dense at 2000 users x 1000 items x 60.
ROADMAP_EVALUATE_S = {"cf": 11.7, "cb": 8.2, "hybrid": 12.3}
ROADMAP_WORLD = {"n_users": 2000, "n_items": 1000, "ratings_per_user": 60}
ROADMAP_TOLERANCE = 0.20


def rel(path):
    """A path relative to the checkout root when it lies inside it."""
    try:
        return str(Path(path).relative_to(ROOT))
    except ValueError:
        return str(path)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_vectors(path, seed, n_genres, dim=VECTOR_DIM):
    """Every genre pool token: its genre's centroid plus seeded noise.

    The centroids are orthogonal with the norm of a standard normal
    vector, so genres differ by the same amount at every seed. Written
    in the save_embeddings text format (``V dim`` header, one
    ``token v1 .. vdim`` row per token).
    """
    rng = np.random.default_rng([seed, 1])
    basis, _ = np.linalg.qr(rng.normal(0.0, 1.0, size=(dim, n_genres)))
    centroids = basis.T * np.sqrt(dim)
    pools = [("dir", 8), ("wri", 8), ("act", 30)]
    tokens = [(g, f"g{g}_{role}{n}") for g in range(n_genres) for role, size in pools for n in range(size)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {dim}\n")
        for g, token in tokens:
            vec = centroids[g] + rng.normal(0.0, VECTOR_NOISE, size=dim)
            fh.write(token + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def generate_inputs(workload, seed, work_dir, world):
    """Write the seeded input files; return {name: path}."""
    import synthdata  # from tests/, which a bare benchmark directory lacks

    n_genres = 6
    ratings, features = synthdata.write_genre_world_files(work_dir, seed=seed, n_genres=n_genres, **world)
    inputs = {"ratings": str(ratings), "features": str(features)}
    if WORKLOADS[workload]["vectors"]:
        inputs["vectors"] = str(work_dir / "vectors.txt")
        write_vectors(inputs["vectors"], seed, n_genres)
    return inputs


def run_worker(spec, work_dir, deadline):
    """Run one worker process to completion; return (start time, its result)."""
    spec_path = work_dir / f"spec-{spec['role']}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.monotonic()
    # The worker's output goes to stderr (fd 2): stdout is kept for the result.
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                            cwd=ROOT, env=env, stdout=2)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ({spec['role']}) did not finish before the deadline") from None
    if code != 0:
        raise BenchError(f"worker ({spec['role']}) exited with code {code}")
    return t0, json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def machine_record():
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {"name": v.get("name"), "version": v.get("version")} for k, v in deps.items()}
    except (AttributeError, TypeError):
        pass
    commit = None
    # Only a checkout that is itself a repository has a commit of its own.
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = probe.stdout.strip() if probe.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "relfrec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
    }


def end_to_end(results):
    """End-to-end metrics: medians over the passes of reference seconds
    (see clock.py), quality numbers from the checked first pass."""
    passes = [r["pass"] for r in results]
    values = {
        "setup_s": statistics.median(r["setup_s"][0] for r in results),
        "run_s": statistics.median(p["run_s"][0] for p in passes),
        "predictions_per_s": statistics.median(p["predictions"] / p["eval_s"][0] for p in passes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        **results[0]["quality"],
        "clique_margin": results[0]["clique_margin"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def wall_medians(results):
    """The same timings in plain wall seconds, for the run record."""
    passes = [r["pass"] for r in results]
    return {
        "setup_s": statistics.median(r["setup_s"][1] for r in results),
        "run_s": statistics.median(p["run_s"][1] for p in passes),
        "predictions_per_s": statistics.median(p["predictions"] / p["eval_s"][1] for p in passes),
    }


def roadmap_comparison(passes):
    """Per-predictor evaluate wall times of holdout-dense beside the ROADMAP baseline."""
    rows = {}
    for predictor, baseline in ROADMAP_EVALUATE_S.items():
        wall = statistics.median(p["evaluate_s"][predictor][1] for p in passes)
        ref = statistics.median(p["evaluate_s"][predictor][0] for p in passes)
        rows[predictor] = {"evaluate_wall_s": wall, "evaluate_reference_s": ref, "baseline_s": baseline,
                           "agrees": abs(wall - baseline) <= ROADMAP_TOLERANCE * baseline}
    return rows


def parse_args(argv):
    parser = argparse.ArgumentParser(description="relfrec pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world", choices=("bench", "roadmap"), default="bench",
                        help="roadmap: holdout-dense at the ROADMAP baseline size, compared with it")
    return parser.parse_args(argv)


def run_passes(spec, work_dir, deadline, budget_s, min_passes, checks):
    """Fresh worker processes, one pass each, until the budget is spent.

    The first pass also runs the oracle checks and the quality stage.
    Every pass must reproduce the first one's output digests.
    """
    results = []
    loop_start = time.monotonic()
    while len(results) < MAX_PASSES:
        n = len(results)
        role = f"pass{n}"
        t0, res = run_worker(dict(spec, role=role, quality=n == 0, trace_pass=False,
                                  result=str(work_dir / f"{role}.json")), work_dir, deadline)
        results.append(res)
        checks.append(res)
        if "pass" not in res or "quality" not in res:
            break
        setup_wall = res["ready_monotonic"] - t0 - res["setup_sampling_s"]
        res["setup_s"] = (setup_wall * res["setup_factor"], setup_wall)
        for key in ("digest", "probe_digest"):
            if key in res["pass"] and n:
                same = res["pass"][key] == results[0]["pass"][key]
                checks.append({"attempted": 1, "failures": [] if same else [f"check {key} of pass {n} differs"]})
        process_s = time.monotonic() - t0 - res.get("quality_s", 0.0)
        if len(results) >= min_passes and time.monotonic() - loop_start + process_s > budget_s:
            break
    return results


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    for needed in (ROOT / "src" / "relfrec" / "__init__.py", ROOT / "tests" / "synthdata.py"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} not found: run from the root of a relfrec checkout")
    config = WORKLOADS[args.workload]
    world = dict(config["world"])
    if args.world == "roadmap":
        if args.workload != "holdout-dense":
            raise BenchError("--world roadmap applies to holdout-dense only")
        world = dict(ROADMAP_WORLD)
    machine = machine_record()
    tag = f"{args.workload}-{args.seed}-t{args.trace}"
    work_dir = WORK / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans_{args.workload}.npz"
    checks = []
    traced = None
    try:
        inputs = generate_inputs(args.workload, args.seed, work_dir, world)
        input_sha256 = {Path(p).name: sha256_file(p) for p in inputs.values()}
        spec = {k: v for k, v in config.items() if k not in ("world", "vectors")}
        spec.update(workload=args.workload, seed=args.seed, inputs=inputs, work_dir=str(work_dir), train=TRAIN)
        # A traced run needs only a rough untraced time to measure its overhead against.
        budget, min_passes = (args.seconds / 2, 1) if args.trace else (args.seconds, MIN_PASSES)
        results = run_passes(spec, work_dir, deadline, budget, min_passes, checks)
        complete = "clique_margin" in results[0] and all("pass" in r and "quality" in r for r in results)
        if complete and args.trace:
            untraced = statistics.median(r["pass"]["run_s"][1] for r in results)
            _t0, traced = run_worker(dict(spec, role="traced", quality=False, trace_pass=True,
                                          untraced_run_s=untraced, spans=str(spans),
                                          result=str(work_dir / "traced.json")), work_dir, deadline)
            checks.append(traced)
            complete = "per_layer" in traced
            if complete:
                same = traced["pass"]["digest"] == results[0]["pass"]["digest"]
                checks.append({"attempted": 1, "failures": [] if same else ["check traced pass digest differs"]})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(c["attempted"] for c in checks)
    failures = [f for c in checks for f in c["failures"]]
    record_wall = None
    if not complete:
        metrics = {}
    elif args.trace:
        metrics = traced["per_layer"]
    else:
        metrics = end_to_end(results)
        record_wall = wall_medians(results)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "world": world, "train": TRAIN, "machine": machine, "inputs": input_sha256,
        "attempted": attempted, "failed": len(failures),
        "failed_ratio": len(failures) / attempted if attempted else 1.0, "failures": failures[:50],
        "metrics": metrics, "wall_medians": record_wall,
        "passes": [{k: v for k, v in r.items() if k != "failures"} for r in results],
    }
    if traced is not None:
        record["traced"] = {k: v for k, v in traced.items() if k not in ("per_layer", "failures")}
        record["spans"] = rel(spans)
        if complete:
            record["layer_self_sum_s"] = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS
                                             if f"{layer}.self_s" in metrics)
    if args.workload == "holdout-dense" and complete:
        record["roadmap_baseline"] = {
            "note": "ROADMAP baseline: 2000 users x 1000 items x 60 ratings, holdout(0.8), k=35, "
                    "24,000 predictions per predictor, +-20%; comparable only with --world roadmap",
            "world_matches": world == ROADMAP_WORLD,
            "predictors": roadmap_comparison([r["pass"] for r in results]),
        }
    out = RESULTS / f"BENCH_{args.workload}_{args.seed}_t{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print(f"failed_ratio = {record['failed_ratio']:.6g} ({len(failures)}/{attempted})")
    print(f"record: {rel(out)}")
    result = {"correct": complete and not failures, "attempted": max(attempted, 1),
              "failed": len(failures) if complete else max(len(failures), 1), "metrics": metrics}
    print(json.dumps(result))
    return 0 if complete else 1


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
