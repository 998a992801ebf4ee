"""Adaptive deep packet inspection toolkit.

Blacklist-based early detection per flow, linear-prediction adaptive
packet sampling, tri-gram TF-IDF payload classification with logistic
regression, and decision-tree classification of encrypted-flow metadata.
"""

from .blacklist import Blacklist, check_flow, load_blacklist
from .engine import Engine, EngineConfig, EngineReport
from .flows import (FlowKey, LabeledPayload, PacketRecord, Verdict,
                    VerdictKind, VerdictReason, canonicalize_flow_key)
from .sampler import AdaptiveSampler, SamplerConfig
from .textfeat import Featurizer, fit_featurizer, tokenize

__all__ = [
    "AdaptiveSampler",
    "Blacklist",
    "Engine",
    "EngineConfig",
    "EngineReport",
    "Featurizer",
    "FlowKey",
    "LabeledPayload",
    "PacketRecord",
    "SamplerConfig",
    "Verdict",
    "VerdictKind",
    "VerdictReason",
    "canonicalize_flow_key",
    "check_flow",
    "fit_featurizer",
    "load_blacklist",
    "tokenize",
]

__version__ = "0.1.0"
