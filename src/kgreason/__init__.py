"""Knowledge-graph rule mining and multi-hop reasoning data synthesis.

The package turns a tab-separated fact list into filtered inference
rules, balanced fact pools, verbalized question/answer samples with
optional trial-and-error reasoning traces, and an evaluation harness for
model outputs over those samples.
"""

from .errors import (
    ClientError,
    DataError,
    IngestError,
    KgReasonError,
    TemplateError,
    UnknownSymbolError,
    UsageError,
)
from .kg import KnowledgeGraph, Triple
from .rules import Rule, RuleInstance, RuleStats
from .seeding import derive_seed

__version__ = "0.1.0"

__all__ = [
    "ClientError",
    "DataError",
    "IngestError",
    "KgReasonError",
    "KnowledgeGraph",
    "Rule",
    "RuleInstance",
    "RuleStats",
    "TemplateError",
    "Triple",
    "UnknownSymbolError",
    "UsageError",
    "derive_seed",
    "__version__",
]
