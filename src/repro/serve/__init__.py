"""Online serving subsystem: micro-batching, admission control, SLO metrics.

The batch runtime (:mod:`repro.runtime`) answers "how fast can we chew
through a corpus"; this package answers "how many concurrent users can we
serve under a latency budget". It layers a request-level
:class:`ServingEngine` on the same scheduler and resilience machinery:

* ``submit(request) -> Future`` with typed load shedding
  (:class:`~repro.runtime.errors.OverloadedError`) and two priority
  classes (``interactive`` ahead of ``bulk``);
* a dynamic micro-batcher that coalesces concurrently pending requests
  (flush on ``max_batch_tokens`` or ``max_wait_ms``) — results stay
  bitwise-identical to sequential single calls thanks to the PR 1
  width-invariance guarantee;
* per-stage retries/circuit breakers via
  :func:`repro.runtime.resilience.run_stage`, with a fallback-extractor
  degradation ladder and a bounded request quarantine;
* SLO metrics: p50/p95/p99 latency histograms, queue-wait vs. compute
  split, throughput and rejection counts via ``metrics_snapshot()``.

One engine is the unit of scale: it serves with ``num_workers`` threads
over one shared model. Above it sits the fleet tier
(:mod:`repro.serve.fleet`), a :class:`FleetRouter` over N engine
replicas for availability, not capacity: per-replica health ejection,
at-least-once failover when a replica dies mid-flight, and blue-green
model hot-swap (:meth:`FleetRouter.swap_model`).

See DESIGN.md section "Online serving" and the README "Serving" and
"Fleet serving" sections.
"""

from repro.serve.admission import PRIORITIES, AdmissionController
from repro.serve.engine import (
    KIND_DETECT,
    KIND_EXTRACT,
    STATUS_DEGRADED,
    STATUS_OK,
    ServeRequest,
    ServeResult,
    ServingConfig,
    ServingEngine,
)
from repro.serve.fleet import (
    FleetConfig,
    FleetRouter,
    Replica,
    SwapReport,
)
from repro.serve.loadgen import (
    LoadLevel,
    build_demo_backend,
    build_request_texts,
    build_swappable_extractor,
    run_load_level,
)
from repro.serve.metrics import (
    LatencyHistogram,
    SloMetrics,
    fleet_cache_view,
    merge_counters,
)
from repro.serve.router import (
    ROUTING_POLICIES,
    LeastLoadedPolicy,
    ReplicaHealth,
    RoundRobinPolicy,
    RoutingPolicy,
    TokenCostAwarePolicy,
    make_policy,
)

__all__ = [
    "AdmissionController",
    "FleetConfig",
    "FleetRouter",
    "KIND_DETECT",
    "KIND_EXTRACT",
    "LatencyHistogram",
    "LeastLoadedPolicy",
    "LoadLevel",
    "PRIORITIES",
    "ROUTING_POLICIES",
    "Replica",
    "ReplicaHealth",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "STATUS_DEGRADED",
    "STATUS_OK",
    "ServeRequest",
    "ServeResult",
    "ServingConfig",
    "ServingEngine",
    "SloMetrics",
    "SwapReport",
    "TokenCostAwarePolicy",
    "build_demo_backend",
    "build_request_texts",
    "build_swappable_extractor",
    "fleet_cache_view",
    "make_policy",
    "merge_counters",
    "run_load_level",
]
