"""Fleet router tests: policies, health, failover basics, aggregation.

Everything here drives cheap deterministic stub backends so routing
decisions and failure handling are exact; the heavier end-to-end chaos
and hot-swap properties live in ``test_fleet_chaos.py`` and
``test_hot_swap.py``.
"""

import threading
import time

import pytest

from repro.runtime.errors import (
    InputError,
    OverloadedError,
    ReplicaCrashError,
)
from repro.serve.engine import ServingConfig
from repro.serve.fleet import FleetConfig, FleetRouter
from repro.serve.router import (
    DEAD,
    EJECTED,
    HEALTHY,
    PROBATION,
    ROUTING_POLICIES,
    LeastLoadedPolicy,
    ReplicaHealth,
    RoundRobinPolicy,
    TokenCostAwarePolicy,
    make_policy,
)
from tests.serve.conftest import RecordingExtractor

pytestmark = [pytest.mark.serve, pytest.mark.fleet]


def make_fleet(extractor, detector=None, *, replicas=2, **kwargs):
    config = FleetConfig(
        replicas=replicas,
        engine=ServingConfig(
            num_workers=1, max_wait_ms=0.0, queue_depth=128
        ),
        **kwargs.pop("fleet", {}),
    )
    return FleetRouter(
        detector=detector, extractor=extractor, config=config, **kwargs
    )


class FakeReplica:
    def __init__(self, replica_id, load=0, tokens=0):
        self.replica_id = replica_id
        self._load = load
        self._tokens = tokens

    def load(self):
        return self._load

    def outstanding_tokens(self):
        return self._tokens


class TestRoutingPolicies:
    def test_registry_and_factory(self):
        assert set(ROUTING_POLICIES) == {
            "round-robin",
            "least-loaded",
            "token-cost",
        }
        for name in ROUTING_POLICIES:
            assert make_policy(name).name == name
        with pytest.raises(ValueError):
            make_policy("hash-ring")

    def test_round_robin_cycles_in_id_order(self):
        policy = RoundRobinPolicy()
        replicas = [FakeReplica("r2"), FakeReplica("r0"), FakeReplica("r1")]
        picks = [policy.select(replicas, 1).replica_id for _ in range(6)]
        assert picks == ["r0", "r1", "r2", "r0", "r1", "r2"]

    def test_least_loaded_picks_min_with_id_tiebreak(self):
        policy = LeastLoadedPolicy()
        replicas = [
            FakeReplica("r0", load=3),
            FakeReplica("r1", load=1),
            FakeReplica("r2", load=1),
        ]
        assert policy.select(replicas, 1).replica_id == "r1"

    def test_token_cost_ignores_request_count(self):
        policy = TokenCostAwarePolicy()
        replicas = [
            FakeReplica("r0", load=1, tokens=500),
            FakeReplica("r1", load=3, tokens=30),
        ]
        # r1 holds more requests but far fewer outstanding tokens.
        assert policy.select(replicas, 10).replica_id == "r1"


class TestReplicaHealth:
    def test_ejects_after_consecutive_failures(self):
        clock = [0.0]
        health = ReplicaHealth(
            failure_threshold=3,
            readmission_seconds=10.0,
            clock=lambda: clock[0],
        )
        assert health.state == HEALTHY
        for _ in range(2):
            health.record_failure()
        assert health.admissible()  # two strikes: still in
        health.record_failure()
        assert health.state == EJECTED
        assert not health.admissible()

    def test_probation_readmits_then_reejects_on_failure(self):
        clock = [0.0]
        health = ReplicaHealth(
            failure_threshold=1,
            readmission_seconds=5.0,
            clock=lambda: clock[0],
        )
        health.record_failure()
        assert not health.admissible()
        clock[0] = 6.0
        assert health.admissible()  # the probation trial
        assert health.state == PROBATION
        health.record_failure()
        assert health.state == EJECTED

    def test_probation_success_restores_health(self):
        clock = [0.0]
        health = ReplicaHealth(
            failure_threshold=1,
            readmission_seconds=5.0,
            clock=lambda: clock[0],
        )
        health.record_failure()
        clock[0] = 6.0
        assert health.admissible()
        health.record_success()
        assert health.state == HEALTHY

    def test_dead_is_terminal(self):
        health = ReplicaHealth(failure_threshold=3)
        health.mark_dead()
        assert health.state == DEAD
        assert not health.admissible()
        health.record_success()
        assert health.state == DEAD


class TestFleetBasics:
    def test_needs_a_backend_and_valid_config(self):
        with pytest.raises(ValueError):
            FleetRouter()
        with pytest.raises(ValueError):
            FleetConfig(replicas=0)
        with pytest.raises(ValueError):
            FleetConfig(policy="least-loaded", max_redispatch=0)
        with pytest.raises(ValueError):
            FleetRouter(
                extractor=RecordingExtractor(),
                config=FleetConfig(policy="nope"),
            )

    def test_serves_requests_across_replicas(self, recording_extractor):
        router = make_fleet(recording_extractor, replicas=3)
        with router:
            futures = [
                router.submit(kind="extract", texts=f"request {i}")
                for i in range(9)
            ]
            results = [f.result(timeout=10.0) for f in futures]
        assert all(result.status == "ok" for result in results)
        snap = router.metrics_snapshot()
        assert snap["router"]["counters"]["completed"] == 9
        assert snap["router"]["replicas"] == 3
        assert snap["fleet"]["counters"]["completed"] == 9

    def test_round_robin_spreads_across_replica_engines(
        self, recording_extractor
    ):
        router = make_fleet(
            recording_extractor,
            replicas=3,
            fleet={"policy": "round-robin"},
        )
        # Submit before start: requests queue at their routed replica, so
        # the spread is exact regardless of worker timing.
        futures = [
            router.submit(kind="extract", texts=f"request {i}")
            for i in range(6)
        ]
        with router:
            for future in futures:
                assert future.result(timeout=10.0).status == "ok"
        snap = router.metrics_snapshot()
        per_replica = [
            replica["counters"].get("completed", 0)
            for replica in snap["replicas"].values()
        ]
        assert sorted(per_replica) == [2, 2, 2]

    def test_rejects_kind_without_backend(self, recording_extractor):
        router = make_fleet(recording_extractor)
        with pytest.raises(InputError):
            router.submit(kind="detect", texts="score me")

    def test_sheds_when_no_admissible_replica(self, recording_extractor):
        router = make_fleet(recording_extractor, replicas=2)
        with router:
            router.kill_replica("r000")
            router.kill_replica("r001")
            with pytest.raises(OverloadedError):
                router.submit(kind="extract", texts="nowhere to go")
        assert router.metrics_snapshot()["router"]["counters"]["rejected"] >= 1

    def test_kill_replica_unknown_or_dead_returns_false(
        self, recording_extractor
    ):
        router = make_fleet(recording_extractor)
        with router:
            assert router.kill_replica("r999") is False
            assert router.kill_replica("r000") is True
            assert router.kill_replica("r000") is False

    def test_failover_redispatches_killed_replicas_queue(self):
        slow = RecordingExtractor(delay=0.01)
        router = make_fleet(slow, replicas=2)
        with router:
            futures = [
                router.submit(kind="extract", texts=f"request {i}")
                for i in range(10)
            ]
            victim = router.live_replicas()[0]
            assert router.kill_replica(victim)
            results = [f.result(timeout=20.0) for f in futures]
        assert all(result.status == "ok" for result in results)
        snap = router.metrics_snapshot()
        assert snap["router"]["counters"].get("failed", 0) == 0
        assert snap["router"]["health"][victim] == DEAD

    def test_failover_gives_up_after_max_redispatch(self):
        class AlwaysCrash:
            def extract_batch(self, texts):
                raise ReplicaCrashError("simulated wipeout", stage="extract")

        router = make_fleet(
            AlwaysCrash(), replicas=2, fleet={"max_redispatch": 2}
        )
        with router:
            future = router.submit(kind="extract", texts="doomed")
            with pytest.raises(ReplicaCrashError):
                future.result(timeout=10.0)
        counters = router.metrics_snapshot()["router"]["counters"]
        assert counters["failover.exhausted"] == 1
        assert counters["failover.redispatched"] == 2


class TestFleetCacheAggregation:
    def test_fleet_wide_cache_stats_merge_replica_stores(self, demo_backend):
        detector, extractor = demo_backend
        router = FleetRouter(
            detector=detector,
            extractor=extractor,
            config=FleetConfig(
                replicas=2,
                policy="round-robin",
                engine=ServingConfig(
                    num_workers=1,
                    max_wait_ms=0.0,
                    queue_depth=128,
                    result_cache_capacity=32,
                ),
            ),
        )
        text = "Reduce emissions 30% by 2030."
        with router:
            # Round-robin sends the repeats to *different* replicas: each
            # replica's first sight is a miss even though the fleet has
            # seen the text before — the per-engine hit rate undercounts.
            for _ in range(4):
                router.submit(kind="extract", texts=text).result(timeout=30.0)
        snap = router.metrics_snapshot()
        fleet_cache = snap["fleet"]["cache"]
        by_priority = fleet_cache["by_priority"]["interactive"]
        assert by_priority["hits"] == 2
        assert by_priority["misses"] == 2
        assert by_priority["hit_rate"] == pytest.approx(0.5)
        assert fleet_cache["store"]["insertions"] == 2
        assert fleet_cache["store"]["hit_rate"] == pytest.approx(0.5)
        # Each individual replica saw 1 miss then 1 hit.
        for replica in snap["replicas"].values():
            assert replica["cache"]["by_priority"]["interactive"]["hits"] == 1

    def test_merge_counters_is_additive(self):
        from repro.serve.metrics import merge_counters

        merged = merge_counters(
            [{"completed": 3.0, "failed": 1.0}, {"completed": 2.0}]
        )
        assert merged == {"completed": 5.0, "failed": 1.0}


class TestFleetLifecycle:
    def test_shutdown_drains_every_replica(self, recording_extractor):
        router = make_fleet(recording_extractor, replicas=2)
        router.start()
        futures = [
            router.submit(kind="extract", texts=f"request {i}")
            for i in range(4)
        ]
        router.shutdown()
        for future in futures:
            assert future.result(timeout=0).status == "ok"
        with pytest.raises(RuntimeError):
            router.start()

    def test_context_manager_aborts_on_error(self, recording_extractor):
        router = make_fleet(recording_extractor)
        with pytest.raises(RuntimeError):
            with router:
                raise RuntimeError("caller blew up")
        # Abort shutdown: the fleet is stopped either way.
        with pytest.raises(OverloadedError):
            router.submit(kind="extract", texts="after stop")
