"""Lifetime-based consistency protocols (Section 5 of the paper)."""

from repro.engine import messages
from repro.engine.stats import ClientStats
from repro.engine.versions import CacheEntry, LogicalVersion, PhysicalVersion
from repro.protocol.cache_client import (
    CausalCacheClient,
    StalenessAction,
    TimedCacheClient,
)
from repro.protocol.cluster import VARIANTS, Cluster
from repro.protocol.server import (
    CausalServer,
    ObjectDirectory,
    PhysicalServer,
    PushPolicy,
)

__all__ = [
    "CacheEntry",
    "CausalCacheClient",
    "CausalServer",
    "ClientStats",
    "Cluster",
    "LogicalVersion",
    "ObjectDirectory",
    "PhysicalServer",
    "PhysicalVersion",
    "PushPolicy",
    "StalenessAction",
    "TimedCacheClient",
    "VARIANTS",
    "messages",
]
