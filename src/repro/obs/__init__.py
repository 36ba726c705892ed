"""repro.obs — unified observability for every runtime layer.

The metrics core (:mod:`repro.obs.metrics`), the timed-consistency
instruments (:mod:`repro.obs.instruments`), the Prometheus/HTTP
exposition (:mod:`repro.obs.expo`), and the pull-model bridges over the
existing stat structs (:mod:`repro.obs.bridge`).  See
docs/OBSERVABILITY.md for the metric catalogue, label conventions, and
the on-time-ratio semantics relative to the paper's Definitions 1–2.
"""

from repro.obs.bridge import (
    bind_client_stats,
    bind_net_server,
    bind_placement_stats,
    bind_router_stats,
)
from repro.obs.expo import (
    MetricsServer,
    render_prometheus,
    scrape,
    snapshot_rows,
)
from repro.obs.instruments import (
    DEFAULT_WINDOW,
    ClusterInstruments,
    OnTimeRatio,
    OnTimeVerdict,
    PipelineInstruments,
    StoreInstruments,
    TimedInstruments,
    VisibilityLag,
)
from repro.obs.metrics import (
    MetricError,
    Registry,
    diff_snapshots,
    exponential_buckets,
    family,
    load_snapshot,
)

__all__ = [
    "ClusterInstruments",
    "DEFAULT_WINDOW",
    "MetricError",
    "MetricsServer",
    "OnTimeRatio",
    "OnTimeVerdict",
    "PipelineInstruments",
    "Registry",
    "StoreInstruments",
    "TimedInstruments",
    "VisibilityLag",
    "bind_client_stats",
    "bind_net_server",
    "bind_placement_stats",
    "bind_router_stats",
    "diff_snapshots",
    "exponential_buckets",
    "family",
    "load_snapshot",
    "render_prometheus",
    "scrape",
    "snapshot_rows",
]
