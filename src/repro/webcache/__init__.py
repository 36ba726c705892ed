"""Web cache consistency as timed consistency (Section 4 of the paper)."""

from repro.webcache.documents import (
    DocumentVersion,
    ModificationProcess,
    doc_name,
)
from repro.webcache.harness import (
    WebExperimentResult,
    compare_policies,
    run_web_experiment,
)
from repro.webcache.origin import OriginServer
from repro.webcache.policies import (
    AdaptiveTTL,
    CachePolicy,
    FixedTTL,
    PiggybackTTL,
    PollEveryTime,
    ServerInvalidation,
    WebCacheEntry,
    WebCacheStats,
)
from repro.webcache.proxy import WebCache

__all__ = [
    "AdaptiveTTL",
    "CachePolicy",
    "DocumentVersion",
    "FixedTTL",
    "ModificationProcess",
    "OriginServer",
    "PiggybackTTL",
    "PollEveryTime",
    "ServerInvalidation",
    "WebCache",
    "WebCacheEntry",
    "WebCacheStats",
    "WebExperimentResult",
    "compare_policies",
    "doc_name",
    "run_web_experiment",
]
