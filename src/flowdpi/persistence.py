"""JSON persistence for fitted models.

Floats go through Python's shortest-roundtrip repr, so every value is
recovered bit-exactly on load.  Each file carries a schema marker.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .flows import json_reason
from .logistic import LogisticModel
from .textfeat import (N_LINGUISTIC, Featurizer, NormalizationParams,
                       TfIdfModel, _pack_grams, _unpack)
from .tree import DecisionTreeModel, TreeNode

PAYLOAD_SCHEMA = "flowdpi/payload-logistic/1"
TREE_SCHEMA = "flowdpi/encrypted-tree/1"


class ModelFormatError(ValueError):
    """Model file does not match the expected schema."""


class ModelReadError(Exception):
    """Model file cannot be read: missing, a directory, not permitted."""


def featurizer_to_dict(f: Featurizer) -> dict:
    return {
        "vocabulary": _unpack(f.tfidf.grams),
        "idf": f.tfidf.idf.tolist(),
        "l_min": list(f.norm.l_min),
        "l_max": list(f.norm.l_max),
        "n_docs": f.tfidf.n_docs,
    }


def featurizer_from_dict(obj: dict) -> Featurizer:
    """Featurizer from its saved form; every field is type-checked and a
    malformed one raises ``ValueError`` with the reason."""
    where = "featurizer: "
    vocabulary = _typed(obj, "vocabulary", list, where)
    if not {str}.issuperset(map(type, vocabulary)):
        raise ValueError(f"{where}'vocabulary' must hold only strings")
    for i, gram in enumerate(vocabulary):
        if len(gram) != 3:
            raise ValueError(f"{where}'vocabulary'[{i}] is not a tri-gram: "
                             f"{gram!r}")
    if len(set(vocabulary)) != len(vocabulary):
        raise ValueError(f"{where}'vocabulary' holds a repeated tri-gram")
    idf = _numbers(obj, "idf", where, len(vocabulary))
    tfidf = TfIdfModel(_pack_grams(vocabulary),
                       np.array([float(v) for v in idf], dtype=float),
                       _typed(obj, "n_docs", int, where))
    norm = NormalizationParams(
        tuple(float(v) for v in _numbers(obj, "l_min", where, N_LINGUISTIC)),
        tuple(float(v) for v in _numbers(obj, "l_max", where, N_LINGUISTIC)))
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
    try:
        featurizer = featurizer_from_dict(_typed(doc, "featurizer", dict))
        model = LogisticModel(np.array(_numbers(doc, "weights"), dtype=float),
                              float(_typed(doc, "bias", _NUMBER)),
                              float(_typed(doc, "lambda", _NUMBER)))
        if model.dim != featurizer.dim:
            raise ValueError(
                f"weight dimension {model.dim} does not match featurizer "
                f"dimension {featurizer.dim}")
    except (ValueError, OverflowError) as exc:   # e.g. a 400-digit bias
        raise ModelFormatError(f"{path}: {exc}") from exc
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


_KIND_NAMES = {int: "an integer", _NUMBER: "a number", list: "a list",
               dict: "an object"}


def _typed(obj: dict, key: str, kinds, where: str = ""):
    """``obj[key]``, which must be of the JSON type ``kinds`` names: int
    (an integer), ``_NUMBER`` (a finite number), list or dict (an object).
    JSON true/false are neither integer nor number."""
    if key not in obj:
        raise ValueError(f"{where}missing '{key}'")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(
            f"{where}'{key}' must be {_KIND_NAMES[kinds]}: {value!r}")
    if kinds is _NUMBER and not math.isfinite(value):
        raise ValueError(f"{where}'{key}' must be finite: {value!r}")
    return value


def _numbers(obj: dict, key: str, where: str = "",
             length: int | None = None) -> list:
    """``obj[key]``, which must be a list of finite JSON numbers, of
    ``length`` entries when that is given."""
    values = _typed(obj, key, list, where)
    if length is not None and len(values) != length:
        raise ValueError(f"{where}'{key}' must hold {length} numbers, "
                         f"has {len(values)}")
    for i, v in enumerate(values):
        if type(v) is not int and type(v) is not float:
            raise ValueError(f"{where}'{key}'[{i}] must be a number: {v!r}")
        if not math.isfinite(v):
            raise ValueError(f"{where}'{key}'[{i}] must be finite: {v!r}")
    return values


def _read_json(path) -> Any:
    try:
        with open(path, encoding="utf-8") as fp:
            return json.load(fp)
    except OSError as exc:
        raise ModelReadError(f"{path}: cannot read model file: "
                             f"{exc.strerror or exc}") from exc
    # bad JSON, bad UTF-8, a 5,000-digit number, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: {json_reason(exc)}") from exc


def peek_schema(path) -> str:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "schema" not in doc:
        raise ModelFormatError(f"{path}: not a model file")
    return str(doc["schema"])


def _load_schema(path, expected: str) -> dict[str, Any]:
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("schema") != expected:
        raise ModelFormatError(
            f"{path}: expected schema {expected!r}, "
            f"found {doc.get('schema') if isinstance(doc, dict) else None!r}")
    return doc
