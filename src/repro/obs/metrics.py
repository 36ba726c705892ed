"""A dependency-free metrics core: counters, gauges, histograms, registry.

One substrate for every runtime layer (TCP servers, ring routers, the
store, the cluster agents, the load generator), shaped after the
Prometheus data model but built from scratch:

* counters, gauges and histograms — the kinds of a :class:`Metric`
  family, made by :meth:`Registry.counter` / :meth:`Registry.gauge` /
  :meth:`Registry.histogram`, each with optional labels; histograms
  take exponential (or custom) buckets and keep cumulative counts, sum
  and count for latency/lag distributions;
* :class:`Registry` — one run's family store: get-or-create accessors,
  *collector* registration (pull-model bridges over the existing stat
  structs, see :mod:`repro.obs.bridge`), JSON-able
  :meth:`Registry.snapshot` and :func:`diff_snapshots`.  There is no
  process-wide registry: a component exports only into the registry it
  is handed, so one run's counts never leak into the next run in the
  same process.

Every exported number has one source, by one of two update models:

* **push** — an event calls ``child.inc()`` / ``child.observe()`` on a
  pre-bound label child (one dict lookup at bind time, an attribute add
  per event afterwards).  Only for a number that exists only at the
  event: latency samples, verdicts, state transitions;
* **pull** — a *collector* registered with the registry (or a gauge
  bound with :meth:`Metric.set_function`) reads a count the component
  already keeps (``ClientStats``, ``PlacementStats``, a WAL's record
  count) only at scrape/snapshot time, so the component keeps its
  native ``int`` arithmetic and no second copy of the count exists.

Metric names follow ``repro_<layer>_<quantity>_<unit>`` (see
docs/OBSERVABILITY.md for the catalogue and label conventions).
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"
KINDS = (COUNTER, GAUGE, HISTOGRAM)


class MetricError(ValueError):
    """Misuse of the metrics API (bad name, kind clash, label mismatch)."""


def exponential_buckets(
    start: float = 0.0001, factor: float = 2.0, count: int = 16
) -> Tuple[float, ...]:
    """Upper bounds ``start, start*factor, ...`` (``count`` finite edges).

    The default spans 0.1 ms .. ~3.3 s, which covers localhost RTTs,
    visibility lags around sub-second deltas, and checker wall times.
    A terminal ``+inf`` bucket is implicit in every histogram.
    """
    if start <= 0:
        raise MetricError(f"bucket start must be positive, got {start}")
    if factor <= 1.0:
        raise MetricError(f"bucket factor must be > 1, got {factor}")
    if count < 1:
        raise MetricError(f"bucket count must be >= 1, got {count}")
    return tuple(start * factor ** i for i in range(count))


def _label_key(
    label_names: Tuple[str, ...], labels: Dict[str, str]
) -> Tuple[str, ...]:
    if set(labels) != set(label_names):
        raise MetricError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _CounterChild:
    """One label combination of a counter; ``inc`` is the hot path."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counters only go up, got {amount}")
        self.value += amount


class _GaugeChild:
    """One label combination of a gauge; optionally callback-backed."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the gauge from ``fn()`` at scrape time (pull model)."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class _HistogramChild:
    """One label combination of a histogram."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # + the +inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "_HistogramChild") -> None:
        """Fold ``other``'s observations into this child, in place.

        Both children must share the same bucket bounds — merging is
        then *exact* at bucket granularity (elementwise count sums), so
        a quantile of the merged child equals the quantile of one child
        that had seen every observation.  The only error is the one all
        bucketed quantiles carry: :meth:`quantile` returns the upper
        bound of the bucket holding the q-th observation, so the
        estimate is never below the true value and overshoots it by at
        most one bucket's relative width (for
        :func:`exponential_buckets` with growth ``factor``, true <=
        estimate <= true * factor).  Merging adds no error on top.
        """
        if other.bounds != self.bounds:
            raise MetricError(
                f"cannot merge histograms with different bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} buckets)"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.sum += other.sum
        self.count += other.count

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket boundaries (upper bound of
        the bucket holding the q-th observation; +inf maps to the last
        finite bound for readability)."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            if running >= target:
                return bound
        return self.bounds[-1] if self.bounds else math.inf


_CHILD_FACTORIES = {
    COUNTER: lambda metric: _CounterChild(),
    GAUGE: lambda metric: _GaugeChild(),
    HISTOGRAM: lambda metric: _HistogramChild(metric.buckets),
}


class Metric:
    """One named family: a kind, help text, label names, and children."""

    __slots__ = ("name", "kind", "help", "label_names", "buckets", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        if kind not in KINDS:
            raise MetricError(f"kind must be one of {KINDS}, got {kind!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        if buckets is not None and kind != HISTOGRAM:
            raise MetricError(f"buckets are only for histograms, not {kind}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        if kind == HISTOGRAM:
            bounds = tuple(buckets) if buckets is not None else exponential_buckets()
            if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
                raise MetricError(f"bucket bounds must be strictly increasing: {bounds}")
            self.buckets: Tuple[float, ...] = bounds
        else:
            self.buckets = ()
        self._children: Dict[Tuple[str, ...], Any] = {}

    def labels(self, **labels: Any) -> Any:
        """The child for one label combination (created on first use).

        Bind once, call ``inc``/``set``/``observe`` on the child in the
        hot path — the lookup cost is paid here, not per event.
        """
        key = _label_key(self.label_names, {k: str(v) for k, v in labels.items()})
        child = self._children.get(key)
        if child is None:
            child = _CHILD_FACTORIES[self.kind](self)
            self._children[key] = child
        return child

    @property
    def _default(self) -> Any:
        """The unlabeled child (only valid when the family has no labels)."""
        if self.label_names:
            raise MetricError(
                f"{self.name} has labels {self.label_names}; use .labels()"
            )
        return self.labels()

    # Unlabeled conveniences -------------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def set(self, value: float) -> None:
        self._default.set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._default.set_function(fn)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    @property
    def value(self) -> float:
        return self._default.value

    # Introspection ----------------------------------------------------------

    def samples(self) -> List[Dict[str, Any]]:
        """JSON-able samples, one per label combination."""
        out = []
        for key in sorted(self._children):
            child = self._children[key]
            labels = dict(zip(self.label_names, key))
            if self.kind == HISTOGRAM:
                out.append({
                    "labels": labels,
                    "buckets": [
                        [bound, count] for bound, count in child.cumulative()
                    ],
                    "sum": child.sum,
                    "count": child.count,
                })
            else:
                out.append({"labels": labels, "value": child.value})
        return out


def family(
    name: str,
    kind: str,
    help: str = "",
    samples: Iterable[Tuple[Dict[str, str], float]] = (),
) -> Dict[str, Any]:
    """Build a collector-produced family (counter/gauge samples only).

    Collectors return lists of these dicts — the same shape
    :meth:`Metric.samples` produces, so exposition code treats direct
    metrics and collected families identically.
    """
    if kind not in (COUNTER, GAUGE):
        raise MetricError(f"collectors may only emit counter/gauge, not {kind}")
    return {
        "name": name,
        "kind": kind,
        "help": help,
        "samples": [
            {"labels": dict(labels), "value": float(value)}
            for labels, value in samples
        ],
    }


Collector = Callable[[], Iterable[Dict[str, Any]]]


class Registry:
    """The metric families of one run (one deployment, one soak).

    ``counter``/``gauge``/``histogram`` are get-or-create: a second call
    with the same name returns the existing family (kind and label names
    must agree), so independent components share one family and
    differentiate by labels.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Collector] = []

    # Creation ---------------------------------------------------------------

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise MetricError(
                    f"{name} already registered as {existing.kind}, not {kind}"
                )
            if existing.label_names != tuple(label_names):
                raise MetricError(
                    f"{name} already registered with labels "
                    f"{existing.label_names}, not {tuple(label_names)}"
                )
            return existing
        metric = Metric(name, kind, help, label_names, buckets)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Metric:
        return self._get_or_create(name, COUNTER, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Metric:
        return self._get_or_create(name, GAUGE, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Metric:
        return self._get_or_create(name, HISTOGRAM, help, labels, buckets)

    def register_collector(self, collector: Collector) -> Collector:
        """Register a pull-model bridge; see :mod:`repro.obs.bridge`."""
        self._collectors.append(collector)
        return collector

    # Access -----------------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # Collection -------------------------------------------------------------

    def collect(self) -> List[Dict[str, Any]]:
        """Every family as a JSON-able dict: direct metrics first (name
        order), then collector output in registration order.  Collector
        families with a name already emitted are merged sample-wise."""
        families: List[Dict[str, Any]] = []
        index: Dict[str, int] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            index[name] = len(families)
            families.append({
                "name": metric.name,
                "kind": metric.kind,
                "help": metric.help,
                "samples": metric.samples(),
            })
        for collector in self._collectors:
            for fam in collector():
                at = index.get(fam["name"])
                if at is None:
                    index[fam["name"]] = len(families)
                    families.append(dict(fam))
                else:
                    families[at]["samples"] = (
                        list(families[at]["samples"]) + list(fam["samples"])
                    )
        return families

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able point-in-time capture of every family."""
        return {"version": 1, "metrics": self.collect()}

    def save(self, path: str) -> None:
        """Persist :meth:`snapshot` atomically (tmp + rename), so a
        scraper or a crash mid-save never observes a torn JSON file."""
        from repro.core.io import atomic_write_json

        atomic_write_json(path, self.snapshot(), fsync=False)


def _sample_key(sample: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(sample.get("labels", {}).items()))


def diff_snapshots(
    before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, Any]:
    """``after - before`` for counters and histogram counts/sums; gauges
    report the after value.  Samples absent from ``before`` count from
    zero; families absent from ``after`` are dropped."""
    before_index: Dict[Tuple[str, Tuple], Dict[str, Any]] = {}
    for fam in before.get("metrics", ()):
        for sample in fam["samples"]:
            before_index[(fam["name"], _sample_key(sample))] = sample
    out: List[Dict[str, Any]] = []
    for fam in after.get("metrics", ()):
        samples = []
        for sample in fam["samples"]:
            base = before_index.get((fam["name"], _sample_key(sample)))
            diffed = json.loads(json.dumps(sample))
            if base is not None and fam["kind"] == COUNTER:
                diffed["value"] = sample["value"] - base["value"]
            elif base is not None and fam["kind"] == HISTOGRAM:
                diffed["sum"] = sample["sum"] - base["sum"]
                diffed["count"] = sample["count"] - base["count"]
                diffed["buckets"] = [
                    [a_bound, a_count - b_count]
                    for (a_bound, a_count), (_b, b_count)
                    in zip(sample["buckets"], base["buckets"])
                ]
            samples.append(diffed)
        out.append({
            "name": fam["name"], "kind": fam["kind"],
            "help": fam.get("help", ""), "samples": samples,
        })
    return {"version": 1, "metrics": out}


def load_snapshot(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    if not isinstance(snapshot, dict) or "metrics" not in snapshot:
        raise MetricError(f"{path} is not a registry snapshot")
    return snapshot
