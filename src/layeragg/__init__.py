"""Layered MDS client codes for hierarchical gradient aggregation.

Edges encode their gradient into per-layer MDS codewords spread over
helper subsets, helpers forward erasure-aware group sums, and the master
reconstructs the exact gradient sum while the library accounts for both
communication costs as exact rationals.
"""

from .aggregate import (
    AggregatedMessage,
    LayerAggregationPlan,
    RoundPlan,
    aggregate_helper,
    plan_layer,
)
from .client import (
    CodewordArray,
    LayerMap,
    SchemeParams,
    encode_client,
    partition_gradient,
)
from .erasure import enumerate_all, sample_uniform, worst_case_pattern
from .errors import (
    CapExceededError,
    ConfigurationError,
    CorruptionError,
    InsufficientDataError,
    ProtocolError,
)
from .gf import GF
from .master import (
    AverageCost,
    CostReport,
    WorstCaseCost,
    cost_average,
    cost_realized,
    cost_worst_case,
    decode_global,
)
from .mds import MdsCode, decode_from, encode, make_generator
from .sim import (
    Scenario,
    TradeoffTable,
    VerificationReport,
    run_round,
    run_scenario,
    sweep_nu,
    verify_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatedMessage",
    "AverageCost",
    "CapExceededError",
    "CodewordArray",
    "ConfigurationError",
    "CorruptionError",
    "CostReport",
    "GF",
    "InsufficientDataError",
    "LayerAggregationPlan",
    "LayerMap",
    "MdsCode",
    "ProtocolError",
    "RoundPlan",
    "Scenario",
    "SchemeParams",
    "TradeoffTable",
    "VerificationReport",
    "WorstCaseCost",
    "aggregate_helper",
    "cost_average",
    "cost_realized",
    "cost_worst_case",
    "decode_from",
    "decode_global",
    "encode",
    "encode_client",
    "enumerate_all",
    "make_generator",
    "partition_gradient",
    "plan_layer",
    "run_round",
    "run_scenario",
    "sample_uniform",
    "sweep_nu",
    "verify_scheme",
    "worst_case_pattern",
]
