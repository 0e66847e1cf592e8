"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately tiny and dependency-free: metric families hold
labelled children keyed by label-value tuples, histograms use fixed bucket
bounds (so merging and rendering stay O(buckets)), and the whole registry
renders to the Prometheus text exposition format (version 0.0.4) for
``GET /v1/metrics``.

Two publishing styles coexist:

- *push*: hot-path call sites increment counters / observe histograms
  directly (gateway request counters, distrib phase timings);
- *pull*: collector callables registered with
  :meth:`MetricsRegistry.register_collector` run at scrape time and load
  absolute values from existing stats snapshots (``ServerStats``,
  ``AdmissionController``), so the serving hot path is untouched.

``REPRO_OBS=0`` is the global kill switch (see :func:`obs_enabled`); it is
read at component construction time so two stacks with different settings
can coexist in one process (``tests/soak/gateway_soak.py`` relies on this
to compare a traced and an untraced gateway).
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "obs_enabled",
]

#: Falsy spellings accepted by the ``REPRO_OBS`` kill switch.
_FALSY = frozenset({"0", "false", "off", "no", ""})

#: Shared latency bucket bounds (milliseconds) used by the request-latency
#: histograms in ``ServerStats`` and the gateway; fixed so percentile
#: estimates and exposition stay comparable across components.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


def obs_enabled(default: bool = True) -> bool:
    """Return whether observability instrumentation is enabled.

    Controlled by the ``REPRO_OBS`` environment variable (same convention as
    ``REPRO_FUSED`` / ``REPRO_BACKEND``): unset means *enabled*; ``0`` /
    ``false`` / ``off`` / ``no`` disable.  Components read this once at
    construction, never per request.
    """

    raw = os.environ.get("REPRO_OBS")
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSY


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""

    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class Counter:
    """Monotonic counter child.

    ``set_total`` exists for pull-model collectors that load an absolute
    running total from a stats snapshot at scrape time; push-model call
    sites use ``inc`` only.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Instantaneous-value child."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram child with percentile estimation.

    Buckets follow Prometheus ``le`` semantics: bucket *i* counts
    observations ``<= bounds[i]``, plus an implicit ``+Inf`` overflow
    bucket.  :meth:`percentile` linearly interpolates within the winning
    bucket; values landing in the overflow bucket report the tracked
    maximum (exact for the common "one straggler" case, an upper bound
    otherwise).
    """

    __slots__ = ("_bounds", "_counts", "_count", "_lock", "_max", "_sum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing slot is +Inf
        self._sum = 0.0
        self._count = 0
        self._max = 0.0
        self._lock = threading.Lock()

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    def load(
        self,
        counts: Sequence[int],
        total_sum: float,
        total_count: int,
        max_value: float = 0.0,
    ) -> None:
        """Overwrite state from an external snapshot (pull collectors)."""

        if len(counts) != len(self._counts):
            raise ValueError(
                f"expected {len(self._counts)} bucket counts, got {len(counts)}"
            )
        with self._lock:
            self._counts = [int(c) for c in counts]
            self._sum = float(total_sum)
            self._count = int(total_count)
            self._max = float(max_value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    def mean(self) -> float | None:
        with self._lock:
            if self._count == 0:
                return None
            return self._sum / self._count

    def percentile(self, q: float) -> float | None:
        """Estimate the q-th percentile (``0 <= q <= 100``) from buckets."""

        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        with self._lock:
            count = self._count
            if count == 0:
                return None
            counts = list(self._counts)
            max_value = self._max
        target = (q / 100.0) * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                if index == len(self._bounds):
                    return max_value  # overflow bucket: report tracked max
                upper = self._bounds[index]
                lower = self._bounds[index - 1] if index else 0.0
                if bucket_count == 0:
                    return upper
                fraction = (target - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return max_value

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "bounds": list(self._bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "max": self._max,
            }


class _MetricFamily:
    """A named metric with labelled children of a single type."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _make_child(self) -> object:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self._buckets or DEFAULT_LATENCY_BUCKETS_MS)

    def labels(self, **labels: str):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    # Unlabelled families behave as their single default child.
    def _default(self):
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def set_total(self, value: float) -> None:
        self._default().set_total(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def load(self, *args, **kwargs) -> None:
        self._default().load(*args, **kwargs)

    def percentile(self, q: float) -> float | None:
        return self._default().percentile(q)

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def value(self) -> float:
        return self._default().value

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def render(self, lines: List[str]) -> None:
        children = self.children()
        if not children:
            return
        lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key, child in children:
            base_labels = _format_labels(self.labelnames, key)
            if self.kind in ("counter", "gauge"):
                lines.append(f"{self.name}{base_labels} {_format_value(child.value)}")
                continue
            snap = child.snapshot()
            cumulative = 0
            bucket_names = self.labelnames + ("le",)
            for bound, count in zip(snap["bounds"], snap["counts"]):
                cumulative += count
                labels = _format_labels(bucket_names, key + (_format_value(bound),))
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            cumulative += snap["counts"][-1]
            labels = _format_labels(bucket_names, key + ("+Inf",))
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
            lines.append(
                f"{self.name}_sum{base_labels} {_format_value(snap['sum'])}"
            )
            lines.append(f"{self.name}_count{base_labels} {snap['count']}")


class MetricsRegistry:
    """A named collection of metric families with scrape-time collectors."""

    def __init__(self) -> None:
        self._families: Dict[str, _MetricFamily] = {}
        self._collectors: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> _MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {name} already registered as {family.kind}"
                    )
                if family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name} already registered with labels "
                        f"{family.labelnames}"
                    )
                return family
            family = _MetricFamily(name, help_text, kind, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> _MetricFamily:
        return self._family(name, help_text, "counter", labelnames)

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> _MetricFamily:
        return self._family(name, help_text, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> _MetricFamily:
        return self._family(name, help_text, "histogram", labelnames, buckets)

    def register_collector(self, collector: Callable[[], None]) -> None:
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def unregister_collector(self, collector: Callable[[], None]) -> None:
        with self._lock:
            if collector in self._collectors:
                self._collectors.remove(collector)

    def collect(self) -> None:
        """Run registered collectors (refreshes pull-model families)."""

        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()

    def render(self) -> str:
        """Render the Prometheus text exposition (families sorted by name)."""

        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        lines: List[str] = []
        for family in families:
            family.render(lines)
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Machine-readable dump (name -> {kind, children})."""

        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        out: Dict[str, Dict[str, object]] = {}
        for family in families:
            children = {}
            for key, child in family.children():
                label_key = ",".join(
                    f"{n}={v}" for n, v in zip(family.labelnames, key)
                )
                if family.kind == "histogram":
                    children[label_key] = child.snapshot()
                else:
                    children[label_key] = child.value
            out[family.name] = {"kind": family.kind, "children": children}
        return out


_DEFAULT_REGISTRY: MetricsRegistry | None = None
_DEFAULT_LOCK = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-global registry (used by distrib when none is injected)."""

    global _DEFAULT_REGISTRY
    with _DEFAULT_LOCK:
        if _DEFAULT_REGISTRY is None:
            _DEFAULT_REGISTRY = MetricsRegistry()
        return _DEFAULT_REGISTRY
