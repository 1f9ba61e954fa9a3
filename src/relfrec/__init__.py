"""Hybrid recommender built on feature embeddings.

Item metadata (directors, screenwriters, leading cast) is turned into
short "feature sentences", a skip-gram model with negative sampling
embeds the feature tokens, and items are compared by the cosine of
their mean-pooled token vectors. That content similarity backs up a
classic item-based collaborative filter whenever rating evidence is
missing or thin, which is exactly the cold-start case.

The usual flow mirrors the CLI stages::

    bundle = clean_and_join(parse_ratings(...), parse_item_features(...))
    table = train_skipgram(bundle.sentences, TrainConfig())
    index = build_item_vectors(bundle.sentences, table)
    provider = make_provider("hybrid", bundle.ratings, index)
    predict_rating(user, item, bundle.ratings, provider)
"""

from .embed import (
    EmbeddingTable,
    NegativeSampler,
    TrainConfig,
    Vocabulary,
    build_vocabulary,
    load_embeddings,
    save_embeddings,
    sgns_pair_update,
    train_skipgram,
)
from .errors import (
    DataError,
    EmptyJoinError,
    NumericDivergenceError,
    RelfrecError,
    UnknownIdError,
)
from .evaluation import (
    MetricReport,
    SplitPlan,
    evaluate,
    mae,
    make_split,
    rmse,
    sweep_k,
)
from .ingest import (
    CatalogEntry,
    CorpusBundle,
    FeatureCatalog,
    FeatureSentence,
    RatingDataset,
    build_sentences,
    canonical_token,
    clean_and_join,
    load_bundle,
    parse_item_features,
    parse_ratings,
    save_bundle,
)
from .predict import (
    Prediction,
    PredictionConfig,
    predict_batch,
    predict_rating,
    values_at,
)
from .simcore import (
    HybridPolicy,
    ItemVectorIndex,
    SimilarityProvider,
    SimilarityValue,
    build_item_vectors,
    hybrid_sim,
    make_provider,
    rating_cosine,
    relf_sim,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CorpusBundle",
    "DataError",
    "EmbeddingTable",
    "EmptyJoinError",
    "FeatureCatalog",
    "FeatureSentence",
    "HybridPolicy",
    "ItemVectorIndex",
    "MetricReport",
    "NegativeSampler",
    "NumericDivergenceError",
    "Prediction",
    "PredictionConfig",
    "RatingDataset",
    "RelfrecError",
    "SimilarityProvider",
    "SimilarityValue",
    "SplitPlan",
    "TrainConfig",
    "UnknownIdError",
    "Vocabulary",
    "build_item_vectors",
    "build_sentences",
    "build_vocabulary",
    "canonical_token",
    "clean_and_join",
    "evaluate",
    "hybrid_sim",
    "load_bundle",
    "load_embeddings",
    "mae",
    "make_provider",
    "make_split",
    "parse_item_features",
    "parse_ratings",
    "predict_batch",
    "predict_rating",
    "rating_cosine",
    "relf_sim",
    "rmse",
    "save_bundle",
    "save_embeddings",
    "sgns_pair_update",
    "sweep_k",
    "train_skipgram",
    "values_at",
]
