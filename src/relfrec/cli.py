"""Command-line entry point: one `relfrec` command with subcommands.

The pipeline is staged through on-disk artifacts so the slow step
(embedding training) is cached across evaluation runs:

    ingest       parse + clean ratings and item metadata into a bundle
    train-embed  train feature embeddings on the bundle's sentences
    evaluate     RMSE/MAE of predictors over a split plan
    sweep-k      evaluate a grid of neighborhood sizes
    predict      predict one (user, item) pair or a CSV of pairs
    similar      nearest feature tokens, or nearest items by similarity

Every run writes a manifest.json capturing its full configuration;
`--config manifest.json` replays it (flags still override). The config
file may equally be plain `key = value` lines mirroring the flag names.
Logs go to stderr, outputs to stdout or the chosen files. Exit codes:
0 ok, 2 input error, 3 numeric divergence, 4 unknown id.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import logging
import sys
from pathlib import Path

from .embed import TrainConfig, load_embeddings, save_embeddings, train_skipgram
from .errors import DataError, NumericDivergenceError, UnknownIdError
from .evaluation import evaluate, make_split, results_rows, sweep_k, write_manifest, write_results_csv
from .ingest import (
    canonical_token,
    clean_and_join,
    load_bundle,
    parse_item_features,
    parse_ratings,
    save_bundle,
)
from .predict import PredictionConfig, predict_rating
from .simcore import PREDICTORS, HybridPolicy, build_item_vectors, make_provider, top_similar_items

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_UNKNOWN_ID = 4

RESULTS_FILE = "results.csv"
MANIFEST_FILE = "manifest.json"

# Config keys dropped without complaint: manifests name their command,
# and older manifests and train-embed configs carry removed options.
_IGNORED_CONFIG_KEYS = frozenset({"command", "workers", "no_sidecar"})


def _int_list(text):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _predictor_list(text):
    names = [part.strip() for part in text.split(",") if part.strip()]
    for name in names:
        if name not in PREDICTORS:
            raise argparse.ArgumentTypeError(f"unknown predictor {name!r}; choose from {', '.join(PREDICTORS)}")
    if not names:
        raise argparse.ArgumentTypeError("expected at least one predictor")
    return names


def _coerce_config_value(text):
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def load_config_file(path):
    """Read a config file: JSON (a saved manifest) or key = value lines."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        try:
            mapping = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: bad JSON config: {exc}") from None
        if not isinstance(mapping, dict):
            raise DataError(f"{path}: JSON config must be an object")
    else:
        mapping = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DataError(f"{path}:{lineno}: expected 'key = value'")
            mapping[key.strip()] = _coerce_config_value(value.strip())
    return {str(key).replace("-", "_"): value for key, value in mapping.items()}


def _option_text(value):
    """A config value as flag text: argparse runs an option's converter
    on string defaults only, so ``ks = 35`` must reach it as "35"."""
    if isinstance(value, (list, tuple)):
        return ",".join(map(str, value))
    return str(value)


def _find_config_path(argv):
    for pos, arg in enumerate(argv):
        if arg == "--config":
            if pos + 1 >= len(argv):
                raise DataError("--config needs a file path")
            return argv[pos + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


def _add_common(sub):
    sub.add_argument("--config", help="config file (key = value lines, or a saved manifest.json)")
    sub.add_argument("--verbose", action="store_true", help="debug logging")


def _require(args, *names):
    """Options that may come from a config file are checked here, not
    by argparse, so a manifest alone can satisfy them."""
    for name in names:
        if getattr(args, name, None) in (None, ""):
            raise DataError(f"missing required option --{name.replace('_', '-')}")


def _add_bundle(sub):
    sub.add_argument("--bundle", help="bundle directory written by ingest (required)")
    _add_scale(sub)


def _add_scale(sub):
    sub.add_argument("--rating-min", type=float, default=1.0, help="lower end of the rating scale")
    sub.add_argument("--rating-max", type=float, default=5.0, help="upper end of the rating scale")


def _add_prediction(sub):
    sub.add_argument("--k", type=int, default=35, help="neighborhood size")
    sub.add_argument("--min-neighbors", type=int, default=1, help="fallback below this many neighbors")
    sub.add_argument("--no-clamp", dest="clamp", action="store_false", help="do not clamp predictions to the rating scale")
    sub.add_argument("--tau-pair", type=int, default=2, help="hybrid: min co-raters to trust a rating similarity")
    sub.add_argument("--tau-item", type=int, default=5, help="hybrid: min ratings per item to count as warm")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relfrec",
        description="Feature-embedding hybrid recommender: ingest, train, evaluate, predict.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    commands = {}

    p = commands["ingest"] = subparsers.add_parser(
        "ingest", help="parse and clean ratings + item metadata into a bundle")
    _add_common(p)
    p.add_argument("--ratings", help="ratings file (user::item::rating::ts or CSV) (required)")
    p.add_argument("--metadata", help="item features CSV (itemId,directors,screenwriters,cast) (required)")
    p.add_argument("--out", help="output bundle directory (required)")
    p.add_argument("--fmt", choices=("dat", "csv"), default=None, help="ratings format (default: sniff)")
    _add_scale(p)
    p.set_defaults(func=cmd_ingest)

    p = commands["train-embed"] = subparsers.add_parser(
        "train-embed", help="train feature embeddings on the bundle's sentences")
    _add_common(p)
    _add_bundle(p)
    p.add_argument("--out", help="embedding text file to write (required)")
    p.add_argument("--window", type=int, default=8, help="max context window")
    p.add_argument("--dim", type=int, default=150, help="vector dimension")
    p.add_argument("--negatives", type=int, default=25, help="negative samples per pair")
    p.add_argument("--min-count", type=int, default=1, help="min token count to enter the vocabulary")
    p.add_argument("--epochs", type=int, default=20, help="training epochs")
    p.add_argument("--initial-lr", type=float, default=0.025, help="starting learning rate")
    p.add_argument("--final-lr", type=float, default=1e-4, help="learning-rate floor")
    p.add_argument("--ns-exponent", type=float, default=0.75, help="negative-sampling distribution exponent")
    p.add_argument("--seed", type=int, default=1, help="training seed")
    p.set_defaults(func=cmd_train_embed)

    p = commands["evaluate"] = subparsers.add_parser(
        "evaluate", help="RMSE/MAE of predictors over a split plan")
    _add_common(p)
    _add_bundle(p)
    p.add_argument("--embeddings", default=None, help="embedding file (needed for cb/hybrid)")
    p.add_argument("--predictors", type=_predictor_list, default=["cf", "cb", "hybrid"],
                   help="comma-separated subset of cf,cb,hybrid (default all)")
    p.add_argument("--split", default="kfold(5)", help="kfold(F) | holdout(RATIO) | cold-start(FRACTION)")
    p.add_argument("--seed", type=int, default=1, help="split seed")
    _add_prediction(p)
    p.add_argument("--out-dir", help="directory for results.csv + manifest.json (required)")
    p.set_defaults(func=cmd_evaluate)

    p = commands["sweep-k"] = subparsers.add_parser(
        "sweep-k", help="evaluate a grid of neighborhood sizes")
    _add_common(p)
    _add_bundle(p)
    p.add_argument("--embeddings", default=None, help="embedding file (needed for cb/hybrid)")
    p.add_argument("--predictors", type=_predictor_list, default=["cf", "hybrid"],
                   help="comma-separated subset of cf,cb,hybrid")
    p.add_argument("--ks", type=_int_list, help="comma-separated neighborhood sizes (required)")
    p.add_argument("--split", default="holdout(0.8)", help="split plan reused for every cell")
    p.add_argument("--seed", type=int, default=1, help="split seed")
    _add_prediction(p)
    p.add_argument("--out-dir", help="directory for results.csv + manifest.json (required)")
    p.set_defaults(func=cmd_sweep_k)

    p = commands["predict"] = subparsers.add_parser(
        "predict", help="predict one (user, item) pair or a CSV of pairs")
    _add_common(p)
    _add_bundle(p)
    p.add_argument("--embeddings", default=None, help="embedding file (needed for cb/hybrid)")
    p.add_argument("--model", choices=PREDICTORS, default="hybrid", help="similarity source")
    p.add_argument("--user", type=int, default=None, help="user id (with --item)")
    p.add_argument("--item", type=int, default=None, help="item id (with --user)")
    p.add_argument("--pairs", default=None, help="CSV of user,item pairs (batch mode)")
    _add_prediction(p)
    p.set_defaults(func=cmd_predict)

    p = commands["similar"] = subparsers.add_parser(
        "similar", help="nearest feature tokens or nearest items")
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--feature", help="feature token (or raw name) to query")
    group.add_argument("--item", type=int, help="item id to query")
    p.add_argument("--n", type=int, default=10, help="how many neighbors to print")
    p.add_argument("--model", choices=PREDICTORS, default="cb",
                   help="similarity source for --item queries")
    p.add_argument("--embeddings", default=None, help="embedding file")
    p.add_argument("--bundle", default=None, help="bundle directory (for --item queries)")
    _add_scale(p)
    p.add_argument("--tau-pair", type=int, default=2, help="hybrid: min co-raters to trust a rating similarity")
    p.add_argument("--tau-item", type=int, default=5, help="hybrid: min ratings per item to count as warm")
    p.set_defaults(func=cmd_similar)

    parser.subcommands = commands
    return parser


def _load_artifacts(args, need_embeddings):
    """Common loading for commands that consume a bundle (+ embeddings)."""
    bundle, _catalog = load_bundle(args.bundle, scale=(args.rating_min, args.rating_max))
    index = None
    embeddings = getattr(args, "embeddings", None)
    if embeddings:
        index = build_item_vectors(bundle.sentences, load_embeddings(embeddings))
    elif need_embeddings:
        raise DataError("this run needs --embeddings (content similarity has no vectors otherwise)")
    return bundle, index


def _prediction_config(args):
    return PredictionConfig(k=args.k, min_neighbors=args.min_neighbors, clamp=args.clamp)


def _policy(args):
    return HybridPolicy(tau_pair=args.tau_pair, tau_item=args.tau_item)


def cmd_ingest(args):
    _require(args, "ratings", "metadata", "out")
    ratings = parse_ratings(args.ratings, fmt=args.fmt, scale=(args.rating_min, args.rating_max))
    catalog = parse_item_features(args.metadata)
    bundle = clean_and_join(ratings, catalog)
    save_bundle(bundle, catalog, args.out)
    log.info("bundle written to %s", args.out)
    print(bundle.report_json())
    return EXIT_OK


def cmd_train_embed(args):
    _require(args, "bundle", "out")
    bundle, _index = _load_artifacts(args, need_embeddings=False)
    config = TrainConfig(
        window=args.window,
        dim=args.dim,
        negatives=args.negatives,
        min_count=args.min_count,
        epochs=args.epochs,
        initial_lr=args.initial_lr,
        final_lr=args.final_lr,
        ns_exponent=args.ns_exponent,
        seed=args.seed,
    )
    table = train_skipgram(bundle.sentences, config)
    save_embeddings(table, args.out)
    log.info("wrote %d vectors of dimension %d to %s", len(table), table.dim, args.out)
    return EXIT_OK


def _needs_content(predictors):
    return any(p in ("cb", "hybrid") for p in predictors)


def _run_manifest(args, command, extra):
    manifest = {
        "command": command,
        "bundle": args.bundle,
        "embeddings": getattr(args, "embeddings", None),
        "rating_min": args.rating_min,
        "rating_max": args.rating_max,
        "split": args.split,
        "seed": args.seed,
        "min_neighbors": args.min_neighbors,
        "clamp": args.clamp,
        "tau_pair": args.tau_pair,
        "tau_item": args.tau_item,
        "out_dir": args.out_dir,
    }
    manifest.update(extra)
    return manifest


def _write_run_outputs(args, rows, manifest):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(rows, out_dir / RESULTS_FILE)
    write_manifest(manifest, out_dir / MANIFEST_FILE)
    log.info("results in %s", out_dir / RESULTS_FILE)


def cmd_evaluate(args):
    _require(args, "bundle", "out_dir")
    bundle, index = _load_artifacts(args, need_embeddings=_needs_content(args.predictors))
    plan = make_split(bundle.ratings, args.split, args.seed)
    policy = _policy(args)
    config = _prediction_config(args)
    rows = []
    for predictor in args.predictors:
        report = evaluate(predictor, plan, bundle.ratings, config=config, index=index, policy=policy)
        rows.extend(results_rows(predictor, plan, args.k, report))
        print(
            f"{predictor} {plan.label} k={args.k}: rmse={report.rmse:.6f} mae={report.mae:.6f} "
            f"predictions={report.n_predictions} fallbacks={report.n_fallbacks}"
        )
    manifest = _run_manifest(args, "evaluate", {"predictors": ",".join(args.predictors), "k": args.k})
    _write_run_outputs(args, rows, manifest)
    return EXIT_OK


def cmd_sweep_k(args):
    _require(args, "bundle", "out_dir", "ks")
    bundle, index = _load_artifacts(args, need_embeddings=_needs_content(args.predictors))
    plan = make_split(bundle.ratings, args.split, args.seed)
    policy = _policy(args)
    config = _prediction_config(args)
    table = sweep_k(args.ks, args.predictors, plan, bundle.ratings, config=config, index=index, policy=policy)
    rows = []
    for predictor, k, report in table:
        rows.extend(results_rows(predictor, plan, k, report))
        print(
            f"{predictor} {plan.label} k={k}: rmse={report.rmse:.6f} mae={report.mae:.6f} "
            f"predictions={report.n_predictions} fallbacks={report.n_fallbacks}"
        )
    manifest = _run_manifest(
        args, "sweep-k",
        {"predictors": ",".join(args.predictors), "ks": ",".join(str(k) for k in args.ks)},
    )
    _write_run_outputs(args, rows, manifest)
    return EXIT_OK


def _read_pairs_csv(path):
    pairs = []
    with open(path, encoding="utf-8", newline="") as stream:
        for lineno, row in enumerate(csv.reader(stream), start=1):
            if not row or not "".join(row).strip():
                continue
            try:
                pairs.append((int(row[0]), int(row[1])))
            except (ValueError, IndexError):
                if lineno == 1:
                    continue
                raise DataError(f"{path}:{lineno}: expected 'user,item' integer columns") from None
    if not pairs:
        raise DataError(f"{path}: no (user, item) pairs found")
    return pairs


def _check_known_pair(user, item, ratings, index):
    if user not in ratings.per_user:
        raise UnknownIdError(f"unknown user id {user}")
    if item not in ratings.per_item and (index is None or item not in index):
        raise UnknownIdError(f"unknown item id {item}")


def cmd_predict(args):
    _require(args, "bundle")
    if args.pairs is None and (args.user is None or args.item is None):
        raise DataError("predict needs --user and --item, or --pairs CSV")
    bundle, index = _load_artifacts(args, need_embeddings=_needs_content([args.model]))
    ratings = bundle.ratings
    provider = make_provider(args.model, ratings=ratings, index=index, policy=_policy(args))
    config = _prediction_config(args)
    pairs = _read_pairs_csv(args.pairs) if args.pairs is not None else [(args.user, args.item)]
    for user, item in pairs:
        _check_known_pair(user, item, ratings, index)
    for user, item in pairs:
        pred = predict_rating(user, item, ratings, provider, config)
        print(
            f"user={user} item={item} value={pred.value:.4f} "
            f"detail={pred.detail} neighbors={pred.neighbors_used}"
        )
    return EXIT_OK


def cmd_similar(args):
    if args.feature is not None:
        if not args.embeddings:
            raise DataError("similar --feature needs --embeddings")
        table = load_embeddings(args.embeddings)
        token = canonical_token(args.feature)
        if token is None or token not in table:
            raise UnknownIdError(f"unknown feature token {args.feature!r}")
        for other, value in table.most_similar(token, n=args.n):
            print(f"{other}\t{value:.6f}")
        return EXIT_OK
    if not args.bundle:
        raise DataError("similar --item needs --bundle")
    bundle, index = _load_artifacts(args, need_embeddings=_needs_content([args.model]))
    provider = make_provider(args.model, ratings=bundle.ratings, index=index, policy=_policy(args))
    if args.item not in provider.items:
        raise UnknownIdError(f"unknown item id {args.item}")
    for neighbor, sv in top_similar_items(provider, args.item, sorted(provider.items), args.n):
        print(f"{neighbor}\t{sv.value:.6f}\t{sv.source}")
    return EXIT_OK


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        config_path = _find_config_path(argv)
        if config_path:
            mapping = load_config_file(config_path)
            command = argv[0] if argv and not argv[0].startswith("-") else None
            sub = parser.subcommands.get(command)
            if sub is None:
                raise DataError("--config must follow a subcommand")
            options = {action.dest for action in sub._actions}
            unknown = sorted(mapping.keys() - options - _IGNORED_CONFIG_KEYS)
            if unknown:
                raise DataError(f"{config_path}: {', '.join(unknown)} is no option of {command}")
            # Config values become the subcommand's defaults, so flags
            # given on the command line still win.
            typed = {action.dest for action in sub._actions if action.type is not None}
            sub.set_defaults(**{key: _option_text(value) if key in typed else value
                                for key, value in mapping.items() if key in options})
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except UnknownIdError as exc:
        log.error("%s", exc)
        return EXIT_UNKNOWN_ID
    except NumericDivergenceError as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC
    except (DataError, OSError, ValueError, argparse.ArgumentTypeError) as exc:
        log.error("%s", exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
