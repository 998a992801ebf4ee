"""JSON persistence for fitted models.

Floats go through Python's shortest-roundtrip repr, so every value is
recovered bit-exactly on load.  Each file carries a schema marker.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .logistic import LogisticModel
from .textfeat import Featurizer, NormalizationParams, TfIdfModel
from .tree import DecisionTreeModel, TreeNode

PAYLOAD_SCHEMA = "flowdpi/payload-logistic/1"
TREE_SCHEMA = "flowdpi/encrypted-tree/1"


class ModelFormatError(ValueError):
    """Model file does not match the expected schema."""


def featurizer_to_dict(f: Featurizer) -> dict:
    vocab_in_order = sorted(f.tfidf.vocabulary, key=f.tfidf.vocabulary.get)
    return {
        "vocabulary": vocab_in_order,
        "idf": list(f.tfidf.idf),
        "l_min": list(f.norm.l_min),
        "l_max": list(f.norm.l_max),
        "n_docs": f.tfidf.n_docs,
    }


def featurizer_from_dict(obj: dict) -> Featurizer:
    vocab = {t: i for i, t in enumerate(obj["vocabulary"])}
    tfidf = TfIdfModel(vocab, tuple(float(v) for v in obj["idf"]),
                       int(obj["n_docs"]))
    norm = NormalizationParams(tuple(float(v) for v in obj["l_min"]),
                               tuple(float(v) for v in obj["l_max"]))
    return Featurizer(tfidf, norm)


def save_payload_model(path, featurizer: Featurizer,
                       model: LogisticModel) -> None:
    doc = {
        "schema": PAYLOAD_SCHEMA,
        "featurizer": featurizer_to_dict(featurizer),
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "lambda": model.lam,
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=1, sort_keys=True)
        fp.write("\n")


def load_payload_model(path) -> tuple[Featurizer, LogisticModel]:
    doc = _load_schema(path, PAYLOAD_SCHEMA)
    featurizer = featurizer_from_dict(doc["featurizer"])
    model = LogisticModel(np.array(doc["weights"], dtype=float),
                          float(doc["bias"]), float(doc["lambda"]))
    if model.dim != featurizer.dim:
        raise ModelFormatError(
            f"weight dimension {model.dim} does not match featurizer "
            f"dimension {featurizer.dim}")
    return featurizer, model


def save_tree_model(path, model: DecisionTreeModel) -> None:
    doc = {
        "schema": TREE_SCHEMA,
        "nodes": [
            {"feature": n.feature, "threshold": n.threshold,
             "left": n.left, "right": n.right,
             "class": n.klass, "proba": n.proba}
            for n in model.nodes
        ],
        "n_features": model.n_features,
        "max_depth": model.max_depth,
        "min_samples_split": model.min_samples_split,
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=1, sort_keys=True)
        fp.write("\n")


def load_tree_model(path) -> DecisionTreeModel:
    doc = _load_schema(path, TREE_SCHEMA)
    try:
        nodes = doc.get("nodes")
        if not isinstance(nodes, list):
            raise ValueError("'nodes' must be a list of node objects")
        return DecisionTreeModel([_tree_node(n, i)
                                  for i, n in enumerate(nodes)],
                                 _typed(doc, "n_features", int),
                                 _typed(doc, "max_depth", int),
                                 _typed(doc, "min_samples_split", int))
    except (ValueError, OverflowError) as exc:   # e.g. a 400-digit threshold
        raise ModelFormatError(f"{path}: {exc}") from exc


_NUMBER = (int, float)


def _tree_node(obj: Any, i: int) -> TreeNode:
    where = f"tree node {i}: "
    if not isinstance(obj, dict):
        raise ValueError(f"{where}not a JSON object")
    return TreeNode(feature=_typed(obj, "feature", int, where),
                    threshold=float(_typed(obj, "threshold", _NUMBER, where)),
                    left=_typed(obj, "left", int, where),
                    right=_typed(obj, "right", int, where),
                    klass=_typed(obj, "class", int, where),
                    proba=float(_typed(obj, "proba", _NUMBER, where)))


def _typed(obj: dict, key: str, kinds, where: str = ""):
    """``obj[key]``, which must be a JSON integer (``kinds`` int) or a JSON
    number (``_NUMBER``); JSON true/false are neither."""
    if key not in obj:
        raise ValueError(f"{where}missing '{key}'")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if kinds is int else "a number"
        raise ValueError(f"{where}'{key}' must be {kind}: {value!r}")
    return value


def peek_schema(path) -> str:
    with open(path, encoding="utf-8") as fp:
        doc = json.load(fp)
    if not isinstance(doc, dict) or "schema" not in doc:
        raise ModelFormatError(f"{path}: not a model file")
    return str(doc["schema"])


def _load_schema(path, expected: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fp:
        try:
            doc = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: bad JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != expected:
        raise ModelFormatError(
            f"{path}: expected schema {expected!r}, "
            f"found {doc.get('schema') if isinstance(doc, dict) else None!r}")
    return doc
