"""Command-line entry point: one `relfrec` command with subcommands.

The pipeline is staged through on-disk artifacts so the slow step
(embedding training) is cached across evaluation runs:

    ingest       parse + clean ratings and item metadata into a bundle
    train-embed  train feature embeddings on the bundle's sentences
    evaluate     RMSE/MAE of predictors over a split plan
    sweep-k      evaluate a grid of neighborhood sizes
    predict      predict one (user, item) pair or a CSV of pairs
    similar      nearest feature tokens, or nearest items by similarity

Ingest validates ratings on --rating-min / --rating-max and records that
scale in the bundle's report.json, where every later stage reads it;
predictions are always clamped to it. train-embed takes the paper's four
training hyperparameters (window, dim, negatives, epochs) and a seed;
the learning-rate schedule and sampling exponent are fixed in embed.
Every evaluate and sweep-k run writes its parsed options to manifest.json;
`--config manifest.json` replays it. A config file may equally be plain
`key = value` lines. main parses the command line, reads the one
`--config` file it names, and parses again with each entry as its flag,
placed right after the subcommand, so the command line's own flags
still override.
Logs go to stderr, outputs to stdout or the chosen files. Exit codes:
0 ok, 2 input error, 3 numeric divergence, 4 unknown id.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .embed import TrainConfig, load_embeddings, save_embeddings, train_skipgram
from .errors import DataError, NumericDivergenceError, UnknownIdError
from .evaluation import make_split, results_rows, sweep_k, write_manifest, write_results_csv
from .ingest import (
    FEATURES_FILE,
    build_sentences,
    canonical_token,
    clean_and_join,
    csv_rows,
    load_bundle,
    parse_item_features,
    parse_ratings,
    save_bundle,
    text_stream,
)
from .predict import FixedRow, PredictionConfig, predict_rating
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


def load_config_file(path):
    """Read a config file: JSON (a saved manifest) or key = value lines of flag text."""
    with text_stream(path) as stream:
        text = stream.read()
    if text.lstrip().startswith("{"):
        try:
            mapping = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"{path}: bad JSON config: {exc}") from None
        if not isinstance(mapping, dict):
            raise DataError(f"{path}: JSON config must be an object")
    else:
        mapping = {}
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DataError(f"{path}:{lineno}: expected 'key = value'")
            mapping[key.strip()] = value.strip()
    return {str(key).replace("-", "_"): value for key, value in mapping.items()}


def _option_text(value):
    """A value as flag text: a list is joined with commas, so ``"ks": [35, 1]``
    reads as ``--ks=35,1`` and a parsed list is written back as it was given."""
    if isinstance(value, (list, tuple)):
        return ",".join(map(str, value))
    return str(value)


def _require(args, *names):
    """Required options are checked here, not by argparse: the first parse,
    which finds --config, cannot see the options that come from that file.
    A missing one is a DataError, which main returns as an input error."""
    for name in names:
        if getattr(args, name, None) in (None, ""):
            raise DataError(f"missing required option --{name.replace('_', '-')}")


def _add_bundle(sub):
    sub.add_argument("--bundle", help="bundle directory written by ingest (required)")
    sub.add_argument("--embeddings", default=None, help="embedding file (needed for cb/hybrid)")


def _add_policy(sub):
    sub.add_argument("--tau-pair", type=int, default=HybridPolicy.tau_pair,
                     help="hybrid: min co-raters to trust a rating similarity")
    sub.add_argument("--tau-item", type=int, default=HybridPolicy.tau_item,
                     help="hybrid: min ratings per item to count as warm")


def _add_grid(sub, predictors, split):
    """The options evaluate and sweep-k share; they differ in these defaults and in --k / --ks."""
    _add_bundle(sub)
    sub.add_argument("--predictors", type=_predictor_list, default=predictors,
                     help="comma-separated subset of cf,cb,hybrid")
    sub.add_argument("--split", default=split, help="kfold(F) | holdout(RATIO) | cold-start(FRACTION)")
    sub.add_argument("--seed", type=int, default=1, help="split seed")
    _add_policy(sub)
    sub.add_argument("--out-dir", help="directory for results.csv + manifest.json (required)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relfrec",
        description="Feature-embedding hybrid recommender: ingest, train, evaluate, predict.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    commands = {}

    p = commands["ingest"] = subparsers.add_parser(
        "ingest", help="parse and clean ratings + item metadata into a bundle")
    p.add_argument("--ratings", help="ratings file (user::item::rating::ts or CSV) (required)")
    p.add_argument("--metadata", help="item features CSV (itemId,directors,screenwriters,cast) (required)")
    p.add_argument("--out", help="output bundle directory (required)")
    p.add_argument("--fmt", choices=("dat", "csv"), default=None, help="ratings format (default: sniff)")
    p.add_argument("--rating-min", type=float, default=1.0, help="lower end of the rating scale the bundle records")
    p.add_argument("--rating-max", type=float, default=5.0, help="upper end of the rating scale the bundle records")
    p.set_defaults(func=cmd_ingest)

    p = commands["train-embed"] = subparsers.add_parser(
        "train-embed", help="train feature embeddings on the bundle's sentences")
    p.add_argument("--bundle", help="bundle directory written by ingest; only features.csv is read (required)")
    p.add_argument("--out", help="embedding text file to write (required)")
    p.add_argument("--window", type=int, default=TrainConfig.window, help="max context window")
    p.add_argument("--dim", type=int, default=TrainConfig.dim, help="vector dimension")
    p.add_argument("--negatives", type=int, default=TrainConfig.negatives, help="negative samples per pair")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="training epochs")
    p.add_argument("--seed", type=int, default=TrainConfig.seed, help="training seed")
    p.set_defaults(func=cmd_train_embed)

    p = commands["evaluate"] = subparsers.add_parser(
        "evaluate", help="RMSE/MAE of predictors over a split plan")
    _add_grid(p, ["cf", "cb", "hybrid"], "kfold(5)")
    p.add_argument("--k", type=int, default=PredictionConfig.k, help="neighborhood size")
    p.set_defaults(func=cmd_evaluate)

    p = commands["sweep-k"] = subparsers.add_parser(
        "sweep-k", help="evaluate a grid of neighborhood sizes")
    _add_grid(p, ["cf", "hybrid"], "holdout(0.8)")
    p.add_argument("--ks", type=_int_list, help="comma-separated neighborhood sizes (required)")
    p.set_defaults(func=cmd_sweep_k)

    p = commands["predict"] = subparsers.add_parser(
        "predict", help="predict one (user, item) pair or a CSV of pairs")
    _add_bundle(p)
    p.add_argument("--model", choices=PREDICTORS, default="hybrid", help="similarity source")
    p.add_argument("--user", type=int, default=None, help="user id (with --item)")
    p.add_argument("--item", type=int, default=None, help="item id (with --user)")
    p.add_argument("--pairs", default=None, help="CSV of user,item pairs (batch mode)")
    p.add_argument("--k", type=int, default=PredictionConfig.k, help="neighborhood size")
    _add_policy(p)
    p.set_defaults(func=cmd_predict)

    p = commands["similar"] = subparsers.add_parser(
        "similar", help="nearest feature tokens or nearest items")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--feature", help="feature token (or raw name) to query")
    group.add_argument("--item", type=int, help="item id to query")
    p.add_argument("--n", type=int, default=10, help="how many neighbors to print")
    p.add_argument("--model", choices=PREDICTORS, default="cb",
                   help="similarity source for --item queries")
    p.add_argument("--embeddings", default=None, help="embedding file")
    p.add_argument("--bundle", default=None, help="bundle directory (for --item queries)")
    _add_policy(p)
    p.set_defaults(func=cmd_similar)

    for sub in commands.values():
        sub.add_argument("--config", action="append",
                         help="one config file per run (key = value lines, or a saved manifest.json)")
        sub.add_argument("--verbose", action="store_true", help="debug logging")
        # Flags match exactly: as a prefix, sweep-k's `--k` would be taken for `--ks`.
        sub.allow_abbrev = False
    parser.subcommands = commands
    return parser


def _load_artifacts(args, need_embeddings):
    """Common loading for commands that consume a bundle (+ embeddings)."""
    bundle = load_bundle(args.bundle)
    index = None
    if args.embeddings:
        index = build_item_vectors(bundle.sentences, load_embeddings(args.embeddings))
    elif need_embeddings:
        raise DataError("this run needs --embeddings (content similarity has no vectors otherwise)")
    return bundle, index


def _config(cls, args):
    """A config dataclass built from the options named after its fields; a
    field the subcommand has no option for keeps its default (sweep-k has
    no --k: sweep_k ranks at the largest of its ks)."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)})


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
    sentences = build_sentences(parse_item_features(Path(args.bundle) / FEATURES_FILE))
    table = train_skipgram(sentences, _config(TrainConfig, args))
    save_embeddings(table, args.out)
    log.info("wrote %d vectors of dimension %d to %s", len(table), table.dim, args.out)
    return EXIT_OK


def _needs_content(predictors):
    return any(p in ("cb", "hybrid") for p in predictors)


def _run_grid(args, ks):
    """Evaluate args.predictors at each k on one plan, print and write the
    cells, and write the parsed options as the run's manifest."""
    bundle, index = _load_artifacts(args, need_embeddings=_needs_content(args.predictors))
    plan = make_split(bundle.ratings, args.split, args.seed)
    table = sweep_k(ks, args.predictors, plan, bundle.ratings,
                    config=_config(PredictionConfig, args), index=index, policy=_config(HybridPolicy, args))
    rows = []
    for predictor, k, report in table:
        rows.extend(results_rows(predictor, plan, k, report))
        print(
            f"{predictor} {plan.label} k={k}: rmse={report.rmse:.6f} mae={report.mae:.6f} "
            f"predictions={report.n_predictions} fallbacks={report.n_fallbacks}"
        )
    manifest = {key: _option_text(value) if isinstance(value, list) else value
                for key, value in vars(args).items() if key not in ("config", "verbose", "func")}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(rows, out_dir / RESULTS_FILE)
    write_manifest(manifest, out_dir / MANIFEST_FILE)
    log.info("results in %s", out_dir / RESULTS_FILE)
    return EXIT_OK


def cmd_evaluate(args):
    _require(args, "bundle", "out_dir")
    return _run_grid(args, [args.k])


def cmd_sweep_k(args):
    _require(args, "bundle", "out_dir", "ks")
    return _run_grid(args, args.ks)


def _is_integer(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def _read_pairs_csv(path):
    """(user, item) pairs of a CSV file; line 1 is a header when neither of its first two fields is an integer."""
    pairs = []
    with text_stream(path) as stream:
        for lineno, row in csv_rows(stream, path):
            if not row or not "".join(row).strip():
                continue
            try:
                pairs.append((int(row[0]), int(row[1])))
            except (ValueError, IndexError):
                if lineno == 1 and not any(map(_is_integer, row[:2])):
                    continue
                raise DataError(f"{path}:{lineno}: expected 'user,item' integer columns") from None
    if not pairs:
        raise DataError(f"{path}: no (user, item) pairs found")
    return pairs


def _check_known_pair(user, item, ratings, index):
    if user not in ratings.arrays.rows:
        raise UnknownIdError(f"unknown user id {user}")
    if item not in ratings.arrays.position and (index is None or item not in index):
        raise UnknownIdError(f"unknown item id {item}")


def cmd_predict(args):
    _require(args, "bundle")
    if args.pairs is not None and (args.user is not None or args.item is not None):
        raise DataError("predict --pairs is not allowed with --user or --item")
    if args.pairs is None and (args.user is None or args.item is None):
        raise DataError("predict needs --user and --item, or --pairs CSV")
    bundle, index = _load_artifacts(args, need_embeddings=_needs_content([args.model]))
    ratings = bundle.ratings
    provider = make_provider(args.model, ratings=ratings, index=index, policy=_config(HybridPolicy, args))
    config = _config(PredictionConfig, args)
    pairs = _read_pairs_csv(args.pairs) if args.pairs is not None else [(args.user, args.item)]
    places = {}  # item -> its pairs' places in the input, so that each item's row is computed once
    for place, (user, item) in enumerate(pairs):
        _check_known_pair(user, item, ratings, index)
        places.setdefault(item, []).append(place)
    preds = {}
    for item, at in places.items():
        row = FixedRow(provider.row(item, ratings.arrays.items))
        preds.update((place, predict_rating(pairs[place][0], item, ratings, row, config)) for place in at)
    for place, (user, item) in enumerate(pairs):
        pred = preds[place]
        print(f"user={user} item={item} value={pred.value:.4f} detail={pred.detail} neighbors={pred.neighbors_used}")
    return EXIT_OK


def cmd_similar(args):
    if args.feature is None and args.item is None:
        raise DataError("similar needs --item or --feature")
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
    provider = make_provider(args.model, ratings=bundle.ratings, index=index, policy=_config(HybridPolicy, args))
    if args.item not in provider.items:
        raise UnknownIdError(f"unknown item id {args.item}")
    for neighbor, value, source in top_similar_items(provider, args.item, args.n):
        print(f"{neighbor}\t{value:.6f}\t{source}")
    return EXIT_OK


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            if len(args.config) > 1:
                raise DataError(f"one --config per run, got {' and '.join(args.config)}")
            (config_path,) = args.config
            if not config_path:
                raise DataError("--config needs a file path")
            mapping = load_config_file(config_path)
            sub = parser.subcommands[args.command]
            options = {action.dest: action for action in sub._actions if action.dest not in ("help", "config")}
            unknown = sorted(mapping.keys() - options.keys() - _IGNORED_CONFIG_KEYS)
            if unknown:
                raise DataError(f"{config_path}: {', '.join(unknown)} is no option of {args.command}")
            # A config line is its flag, placed before the command line's
            # own flags, which win by argparse's last-wins rule; null adds nothing.
            flags = []
            for key in sorted(key for key in mapping.keys() & options.keys() if mapping[key] is not None):
                value, action = mapping[key], options[key]
                if action.nargs == 0:
                    text = str(value).lower() if isinstance(value, (str, bool)) else None
                    if text not in ("true", "false"):
                        raise DataError(f"{config_path}: {key} must be true or false, got {value!r}")
                    if (text == "true") != action.default:
                        flags.append(action.option_strings[0])
                elif action.type is None and not isinstance(value, str):
                    raise DataError(f"{config_path}: {key} must be text, got {value!r}")
                else:
                    flags.append(f"{action.option_strings[0]}={_option_text(value)}")
            argv[1:1] = flags
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
