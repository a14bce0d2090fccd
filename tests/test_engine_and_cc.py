"""Engine lifecycle and CC-mechanism behaviour tests.

These tests drive the engine with hand-crafted concurrent transaction
schedules (via the simulation environment) and with the micro workloads, and
assert both functional outcomes and the isolation oracle.
"""

import random

import pytest

from repro.cc.base import CC_REGISTRY
from repro.cc.locks import EXCLUSIVE, SHARED, LockTable
from repro.cc.timestamps import BatchManager, TimestampOracle
from repro.core.config import Configuration, leaf, monolithic, node
from repro.core.engine import EngineOptions
from repro.core.transaction import Transaction, TransactionStatus
from repro.errors import ConfigurationError, TransactionAborted
from repro.isolation import check_engine
from repro.sim.environment import Environment
from tests.conftest import build_engine, run_transactions


def micro_requests(workload, count, seed=3):
    rng = workload.make_rng(seed)
    requests = []
    for _ in range(count):
        requests.append(workload.next_transaction(rng))
    return requests


def acquire(locks, txn, key, mode):
    """Coroutine: what a lock-based CC's hook does with ``LockTable.request``
    — queue (and maybe abort) only when the lock cannot be granted now."""
    wait = locks.request(txn, key, mode)
    if wait is not None:
        yield from wait


def waiting(locks, key):
    """Requests queued for ``key``."""
    record = locks._locks.get(key)
    return len(record.queue) if record and record.queue else 0


class TestLockTable:
    def _txn(self, txn_id):
        return Transaction(txn_id=txn_id, txn_type="t")

    def test_shared_locks_are_compatible(self, env):
        locks = LockTable(env)
        a, b = self._txn(1), self._txn(2)
        assert locks.request(a, "k", SHARED) is None
        assert locks.request(b, "k", SHARED) is None

    def test_exclusive_conflicts(self, env):
        locks = LockTable(env)
        a, b = self._txn(1), self._txn(2)
        assert locks.request(a, "k", EXCLUSIVE) is None
        assert locks.request(b, "k", SHARED) is not None

    def test_same_group_never_conflicts(self, env):
        locks = LockTable(env, same_group=lambda x, y: True)
        a, b = self._txn(1), self._txn(2)
        assert locks.request(a, "k", EXCLUSIVE) is None
        assert locks.request(b, "k", EXCLUSIVE) is None

    def test_release_grants_waiter(self, env):
        locks = LockTable(env, timeout=10)
        a, b = self._txn(1), self._txn(2)
        order = []

        def holder():
            yield from acquire(locks, a, "k", EXCLUSIVE)
            yield env.timeout(1)
            order.append(("release", env.now))
            locks.release_all(a)

        def waiter():
            yield env.timeout(0.1)
            yield from acquire(locks, b, "k", EXCLUSIVE)
            order.append(("acquired", env.now))

        env.process(holder())
        env.process(waiter())
        env.run()
        assert order == [("release", 1.0), ("acquired", 1.0)]
        assert b.dependencies == {1}

    def test_lock_timeout_aborts(self, env):
        locks = LockTable(env, timeout=0.5)
        a, b = self._txn(1), self._txn(2)
        outcome = []

        def holder():
            yield from acquire(locks, a, "k", EXCLUSIVE)
            yield env.timeout(10)

        def waiter():
            yield env.timeout(0.1)
            try:
                yield from acquire(locks, b, "k", EXCLUSIVE)
            except TransactionAborted as aborted:
                outcome.append(aborted.reason)

        env.process(holder())
        env.process(waiter())
        env.run(until=5)
        assert outcome == ["deadlock-timeout"]
        assert locks.timeout_count == 1

    def test_cancel_waits_removes_queued_request(self, env):
        locks = LockTable(env, timeout=10)
        a, b = self._txn(1), self._txn(2)

        def holder():
            yield from acquire(locks, a, "k", EXCLUSIVE)
            yield env.timeout(2)
            locks.release_all(a)

        def waiter():
            yield env.timeout(0.1)
            yield from acquire(locks, b, "k", EXCLUSIVE)

        env.process(holder())
        env.process(waiter())
        env.run(until=1)
        b.status = TransactionStatus.ABORTED
        locks.cancel_waits(b)
        assert waiting(locks, "k") == 0

    def _abort(self, locks, txn):
        """What a lock-based CC's ``finish`` does for an aborted member."""
        txn.status = TransactionStatus.ABORTED
        locks.cancel_waits(txn)
        locks.release_all(txn)

    def test_an_aborted_lone_waiter_leaves_no_record_behind(self, env):
        """By ``deadlock-timeout`` and by ``wait-deadlock``: once the holder
        has released too, the table has no record for the key."""
        locks = LockTable(env, timeout=0.5)
        a, b, c, d = (self._txn(txn_id) for txn_id in (1, 2, 3, 4))
        # The wait-for walk only follows transactions it knows as active.
        locks.waits.active.update({txn.txn_id: txn for txn in (a, b, c, d)})
        reasons = []

        def waiter(txn, key, delay):
            yield env.timeout(delay)
            try:
                yield from acquire(locks, txn, key, EXCLUSIVE)
            except TransactionAborted as aborted:
                reasons.append((aborted.reason, env.now))
                self._abort(locks, txn)

        # a holds "k"; b waits for it alone and runs into the deadline.
        assert locks.request(a, "k", SHARED) is None
        env.process(waiter(b, "k", 0.1))
        env.run(until=1)
        assert reasons == [("deadlock-timeout", 0.6)]
        assert locks.holders("k") == {a: SHARED} and waiting(locks, "k") == 0
        locks.release_all(a)
        assert locks._locks == {}

        # c holds "x" and waits for "y"; d holds "y" and asks for "x".
        assert locks.request(c, "x", EXCLUSIVE) is None
        assert locks.request(d, "y", EXCLUSIVE) is None
        env.process(waiter(c, "y", 0.0))
        env.process(waiter(d, "x", 0.1))
        env.run(until=2)
        assert reasons[1:] == [("wait-deadlock", 1.1)]
        assert locks.holders("y") == {c: EXCLUSIVE} and set(locks._locks) == {"x", "y"}
        locks.release_all(c)
        assert locks._locks == {} and locks._waiting_keys == {}

    def test_a_late_abort_leaves_the_next_holders_record_alone(self, env):
        """A waiter flagged aborted from outside (forced reconfiguration) is
        popped by the release that meets it; its own deadline fires later
        and must drop neither a missing record nor somebody else's."""
        locks = LockTable(env, timeout=0.5)
        a, b, c = self._txn(1), self._txn(2), self._txn(3)
        reasons = []

        def waiter():
            try:
                yield from acquire(locks, b, "k", EXCLUSIVE)
            except TransactionAborted as aborted:
                reasons.append(aborted.reason)

        assert locks.request(a, "k", EXCLUSIVE) is None
        env.process(waiter())
        env.run(until=0.2)
        b.status = TransactionStatus.ABORTED
        locks.release_all(a)
        assert locks._locks == {}
        assert locks.request(c, "k", EXCLUSIVE) is None
        env.run(until=1)
        assert reasons == ["deadlock-timeout"]
        assert locks.holders("k") == {c: EXCLUSIVE}

    @pytest.mark.parametrize("leaves_by", ["deadline", "cancel_waits"])
    def test_a_compatible_waiter_behind_a_leaving_head_is_granted(self, env, leaves_by):
        """a holds "k" shared, b queues for it exclusive, c shared behind b.
        Once b leaves the queue, c is compatible with a: it is granted then,
        not left to run into its own deadline at 0.7."""
        locks = LockTable(env, timeout=0.5)
        a, b, c = self._txn(1), self._txn(2), self._txn(3)
        outcomes = {}

        def waiter(txn, mode, delay):
            yield env.timeout(delay)
            try:
                yield from acquire(locks, txn, "k", mode)
                outcomes[txn.txn_id] = ("granted", env.now)
            except TransactionAborted as aborted:
                outcomes[txn.txn_id] = (aborted.reason, env.now)

        assert locks.request(a, "k", SHARED) is None
        env.process(waiter(b, EXCLUSIVE, 0.1))
        env.process(waiter(c, SHARED, 0.2))
        if leaves_by == "cancel_waits":
            env.run(until=0.3)
            self._abort(locks, b)
        env.run(until=1)
        left_at = 0.3 if leaves_by == "cancel_waits" else 0.6
        assert outcomes == {2: ("deadlock-timeout", 0.6), 3: ("granted", left_at)}
        assert locks.holders("k") == {a: SHARED, c: SHARED}
        assert waiting(locks, "k") == 0

    def test_upgrade_for_single_holder(self, env):
        locks = LockTable(env)
        a = self._txn(1)
        assert locks.request(a, "k", SHARED) is None
        assert locks.request(a, "k", EXCLUSIVE) is None
        assert locks.holders("k")[a] == EXCLUSIVE


class TestTimestamps:
    def test_oracle_monotonic(self):
        oracle = TimestampOracle()
        values = [oracle.next() for _ in range(5)]
        assert values == sorted(values)
        assert oracle.next() == values[-1] + 1

    def test_batch_manager_shares_timestamp_within_batch(self):
        manager = BatchManager(TimestampOracle(), batch_size=3)
        batch_a, ts_a, flags_a = manager.admit("g1", 1)
        batch_b, ts_b, flags_b = manager.admit("g1", 2)
        assert batch_a == batch_b
        assert ts_a == ts_b
        assert flags_a is flags_b

    def test_batch_rotates_after_size(self):
        manager = BatchManager(TimestampOracle(), batch_size=2)
        first = manager.admit("g1", 1)[0]
        manager.admit("g1", 2)
        third = manager.admit("g1", 3)[0]
        assert third != first

    def test_different_groups_get_different_batches(self):
        manager = BatchManager(TimestampOracle(), batch_size=10)
        batch_a = manager.admit("g1", 1)[0]
        batch_b = manager.admit("g2", 2)[0]
        assert batch_a != batch_b

    def test_last_member_finishing_forces_new_batch(self):
        manager = BatchManager(TimestampOracle(), batch_size=10)
        first = manager.admit("g1", 1)[0]
        manager.discard(first, 1)
        second = manager.admit("g1", 2)[0]
        assert second != first


class TestRegistry:
    def test_all_paper_mechanisms_registered(self):
        for name in ("2pl", "rp", "ssi", "tso", "none", "occ"):
            assert name in CC_REGISTRY

    def test_unknown_mechanism_rejected(self, env, noconflict_workload):
        with pytest.raises(ConfigurationError):
            build_engine(
                env,
                noconflict_workload,
                monolithic("nonexistent", sorted(noconflict_workload.transaction_types())),
            )


class TestEngineLifecycle:
    def test_commit_updates_store_and_stats(self, env, noconflict_workload):
        engine = build_engine(
            env, noconflict_workload, monolithic("2pl", ("write_only",))
        )
        outcomes, _ = run_transactions(env, engine, [("write_only", {"ids": [1, 2, 3, 4]})])
        txn = outcomes[0]
        assert txn.committed
        assert engine.stats.commits == 1
        assert engine.store.latest_committed(("payload", 2)).value == {"value": 2}

    def test_unknown_transaction_type_rejected(self, env, noconflict_workload):
        engine = build_engine(
            env, noconflict_workload, monolithic("2pl", ("write_only",))
        )
        with pytest.raises(ConfigurationError):
            engine.begin("not_registered")

    def test_configuration_must_cover_all_types(self, env, micro_workload):
        with pytest.raises(ConfigurationError):
            build_engine(env, micro_workload, monolithic("2pl", ("group_a_update",)))

    @pytest.mark.parametrize("tree", ["ssi/(none,2pl)", "mono-2pl"])
    def test_a_read_only_type_that_writes_fails_loudly(self, tree):
        """A read-only route's one write hook refuses the write before any
        CC sees it — the read-only-optimised SSI root's hooks no longer look
        at writes at all."""
        from tests.test_cc_conformance import CONFORMANCE_TREES, ConformanceWorkload

        env = Environment()
        engine = build_engine(env, ConformanceWorkload(), CONFORMANCE_TREES[tree]())
        route = engine._routes["reader"]
        assert route.read_only and len(route.write_hooks) == 1
        assert not engine._routes["alpha"].read_only
        reader = env.process(
            engine.execute_transaction("reader", {"ops": [("r", 1), ("w", 3, 7)]})
        )
        with pytest.raises(ConfigurationError, match="'reader' is declared read-only"):
            env.run(until=reader)
        key = ("rows", 3)
        assert engine.store.uncommitted_versions(key) == []
        assert engine.store.latest_committed(key).value == {"v": 3}

    def test_user_abort_rolls_back(self, env, tiny_tpcc):
        from repro.harness.configs import WORKLOAD_CONFIGURATIONS

        engine = build_engine(env, tiny_tpcc, WORKLOAD_CONFIGURATIONS["tpcc"]["2pl"]())

        def aborting_client():
            txn = engine.begin("payment", {"w_id": 1, "d_id": 1, "c_w_id": 1,
                                           "c_d_id": 1, "c_id": 1, "h_amount": 5.0})
            yield from engine.perform_write(txn, ("warehouse", 1), {"w_ytd": 99.0})
            engine._finish_abort(txn, "user-abort")
            return txn

        process = env.process(aborting_client())
        txn = env.run(until=process)
        assert txn.status is TransactionStatus.ABORTED
        assert engine.store.latest_committed(("warehouse", 1)).value["w_ytd"] == 0.0
        assert engine.store.uncommitted_versions(("warehouse", 1)) == []

    def test_concurrent_counter_increments_are_serializable(self, env, micro_workload):
        engine = build_engine(
            env,
            micro_workload,
            monolithic("2pl", sorted(micro_workload.transaction_types())),
        )
        count = 30
        requests = [
            ("group_a_update", {"shared_id": 0, "local_id": 0, "cold_ids": [i % 50 for i in range(5)]})
            for i in range(count)
        ]
        outcomes, _ = run_transactions(env, engine, requests)
        committed = [t for t in outcomes if isinstance(t, object) and getattr(t, "committed", False)]
        final = engine.store.latest_committed(("shared", 0)).value["value"]
        assert final == len(committed)
        report = check_engine(engine)
        assert report.ok, report.describe()
        assert report.num_transactions > 0

    @pytest.mark.parametrize("cc", ["2pl", "ssi", "rp", "tso", "occ"])
    def test_every_mechanism_produces_serializable_histories(self, cc, micro_workload):
        env = Environment()
        engine = build_engine(
            env,
            micro_workload,
            monolithic(cc, sorted(micro_workload.transaction_types())),
            options=EngineOptions(charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4),
        )
        requests = micro_requests(micro_workload, 60, seed=5)
        outcomes, _ = run_transactions(env, engine, requests)
        assert engine.stats.commits > 0
        report = check_engine(engine)
        assert report.ok, f"{cc}: {report.describe()}"
        assert report.num_transactions > 0

    @pytest.mark.parametrize(
        "config_name", ["2pl", "ssi", "two-layer", "three-layer"]
    )
    def test_hierarchies_produce_serializable_histories(
        self, config_name, micro_configs
    ):
        from repro.workloads.micro import CrossGroupConflictWorkload

        env = Environment()
        read_only = config_name == "three-layer"
        workload = CrossGroupConflictWorkload(
            shared_rows=5, cold_rows=50, read_only_second_group=read_only
        )
        engine = build_engine(
            env,
            workload,
            micro_configs[config_name]
            if not read_only
            else micro_configs["three-layer"],
            options=EngineOptions(charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4),
        )
        requests = micro_requests(workload, 80, seed=11)
        run_transactions(env, engine, requests)
        assert engine.stats.commits > 0
        report = check_engine(engine)
        assert report.ok, f"{config_name}: {report.describe()}"
        assert report.num_transactions > 0

    def test_read_your_own_writes(self, env, tiny_tpcc):
        from repro.harness.configs import tpcc_tebaldi_3layer

        engine = build_engine(env, tiny_tpcc, tpcc_tebaldi_3layer())
        outcomes, _ = run_transactions(
            env,
            engine,
            [("new_order", {"w_id": 1, "d_id": 1, "c_id": 1, "items": [(1, 1, 2), (2, 1, 1)]})],
        )
        txn = outcomes[0]
        assert txn.committed
        order_key = ("orders", (1, 1, txn.result["o_id"]))
        assert engine.store.latest_committed(order_key) is not None

    def test_ssi_aborts_on_write_write_conflict(self, env, micro_workload):
        engine = build_engine(
            env,
            micro_workload,
            monolithic("ssi", sorted(micro_workload.transaction_types())),
            options=EngineOptions(charge_costs=True),
        )
        # Two clients updating the same shared row concurrently: SSI's
        # first-updater-wins rule must abort one of them.
        args = {"shared_id": 0, "local_id": 0, "cold_ids": [1, 2, 3, 4, 5]}
        outcomes, _ = run_transactions(
            env,
            engine,
            [("group_a_update", args), ("group_a_update", dict(args))],
        )
        aborted = [o for o in outcomes if isinstance(o, TransactionAborted)]
        assert len(aborted) == 1
        assert "ssi" in aborted[0].reason

    def test_2pl_blocks_instead_of_aborting(self, env, micro_workload):
        engine = build_engine(
            env,
            micro_workload,
            monolithic("2pl", sorted(micro_workload.transaction_types())),
            options=EngineOptions(charge_costs=True),
        )
        args = {"shared_id": 0, "local_id": 0, "cold_ids": [1, 2, 3, 4, 5]}
        outcomes, _ = run_transactions(
            env,
            engine,
            [("group_a_update", args), ("group_a_update", dict(args))],
        )
        assert all(getattr(o, "committed", False) for o in outcomes)
        assert engine.store.latest_committed(("shared", 0)).value["value"] == 2

    def test_rp_exposes_intermediate_state_in_group(self, env):
        """Under RP the second writer reads the first writer's step-committed value."""
        from repro.workloads.micro import CrossGroupConflictWorkload

        workload = CrossGroupConflictWorkload(shared_rows=1, cold_rows=50)
        engine = build_engine(
            env,
            workload,
            monolithic("rp", sorted(workload.transaction_types())),
            options=EngineOptions(charge_costs=True),
        )
        args = {"shared_id": 0, "local_id": 0, "cold_ids": [1, 2, 3, 4, 5]}
        outcomes, _ = run_transactions(
            env,
            engine,
            [("group_a_update", args), ("group_b_update", dict(args))],
        )
        committed = [o for o in outcomes if getattr(o, "committed", False)]
        assert len(committed) == 2
        assert engine.store.latest_committed(("shared", 0)).value["value"] == 2
        report = check_engine(engine)
        assert report.ok and report.num_transactions == 2

    def test_durability_logs_written_when_enabled(self, env, noconflict_workload):
        options = EngineOptions(charge_costs=False)
        options.durability.enabled = True
        options.durability.asynchronous = False
        engine = build_engine(
            env, noconflict_workload, monolithic("2pl", ("write_only",)), options=options
        )
        outcomes, _ = run_transactions(env, engine, [("write_only", {"ids": [1, 2]})])
        assert outcomes[0].committed
        assert any(log.records() for log in engine.durability.logs)
        recovery = engine.durability.recover()
        assert outcomes[0].txn_id in recovery.recovered_transactions


class TestPartitionByInstance:
    def test_partitioned_leaf_creates_one_instance_per_value(self, env):
        from repro.workloads.seats import SEATSWorkload
        from repro.harness.configs import seats_3layer

        workload = SEATSWorkload(flights=4, seats_per_flight=50, customers=50)
        engine = build_engine(env, workload, seats_3layer(per_flight=True))
        requests = [
            ("new_reservation", {"f_id": 1, "c_id": 1, "seat": 1, "price": 10.0}),
            ("new_reservation", {"f_id": 2, "c_id": 2, "seat": 1, "price": 10.0}),
            ("new_reservation", {"f_id": 2, "c_id": 3, "seat": 2, "price": 10.0}),
        ]
        outcomes, _ = run_transactions(env, engine, requests)
        assert all(getattr(o, "committed", False) for o in outcomes)
        tso_nodes = [n for n in engine.nodes if n.spec.cc == "tso"]
        assert len(tso_nodes) == 1
        assert tso_nodes[0].cc is None
        assert len(tso_nodes[0].instances) == 2  # flights 1 and 2


class TestReconfiguration:
    def _engine(self, env, micro_workload):
        config = Configuration(
            node("ssi", leaf("none", "group_b_read"), leaf("2pl", "group_a_update")),
            name="initial",
        )
        from repro.workloads.micro import CrossGroupConflictWorkload

        workload = CrossGroupConflictWorkload(
            shared_rows=5, cold_rows=50, read_only_second_group=True
        )
        return workload, build_engine(env, workload, config)

    def test_partial_restart_swaps_configuration(self, env, micro_workload):
        workload, engine = self._engine(env, micro_workload)
        new_config = Configuration(
            node("ssi", leaf("none", "group_b_read"), leaf("rp", "group_a_update")),
            name="after",
        )

        def reconfigure():
            yield from engine.reconfigure_partial_restart(new_config)

        process = env.process(reconfigure())
        env.run(until=process)
        assert engine.configuration.name == "after"
        assert engine.configuration.leaf_for("group_a_update").cc == "rp"

    def test_online_update_swaps_only_changed_subtree(self, env, micro_workload):
        workload, engine = self._engine(env, micro_workload)
        old_root_cc = engine.root.cc
        new_config = Configuration(
            node("ssi", leaf("none", "group_b_read"), leaf("rp", "group_a_update")),
            name="after-online",
        )

        def reconfigure():
            yield from engine.reconfigure_online(new_config)

        process = env.process(reconfigure())
        env.run(until=process)
        assert engine.configuration.name == "after-online"
        # The root node object is preserved (only the changed leaf is swapped).
        assert engine.root.cc is old_root_cc
        assert engine.configuration.leaf_for("group_a_update").cc == "rp"

    def test_online_update_identical_configuration_is_noop(self, env, micro_workload):
        workload, engine = self._engine(env, micro_workload)
        same = engine.configuration.clone(name="same")

        def reconfigure():
            yield from engine.reconfigure_online(same)

        process = env.process(reconfigure())
        env.run(until=process)
        assert engine.configuration.name == "same"

    PROTOCOLS = ("reconfigure_online", "reconfigure_partial_restart")

    def _reconfigure(self, env, engine, protocol, new_config):
        env.run(until=env.process(getattr(engine, protocol)(new_config)))
        assert engine.configuration is new_config

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_root_params_only_change_is_applied(self, env, micro_workload, protocol):
        """``signature()`` leaves params out: the online protocol used to
        adopt such a configuration and keep the old mechanism instances."""
        workload, engine = self._engine(env, micro_workload)
        assert engine.root.cc.batches.batch_size == 16
        new_config = engine.configuration.clone(name="smaller-batches")
        new_config.root.params["batch_size"] = 4
        self._reconfigure(env, engine, protocol, new_config)
        assert engine.root.cc.batches.batch_size == 4

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_leaf_params_only_change_is_applied(self, env, micro_workload, protocol):
        workload, engine = self._engine(env, micro_workload)
        old_root_cc = engine.root.cc
        new_config = engine.configuration.clone(name="short-timeout")
        new_config.leaf_for("group_a_update").params["lock_timeout"] = 0.125
        self._reconfigure(env, engine, protocol, new_config)
        assert engine.root.children[1].cc.locks.timeout == 0.125
        # Online, only the differing leaf is drained and spliced.
        assert (engine.root.cc is old_root_cc) == (protocol == "reconfigure_online")

    def test_online_update_sees_a_swapped_instance_key(self, env, micro_workload):
        workload, engine = self._engine(env, micro_workload)
        by_shared = engine.configuration.clone(name="by-shared")
        by_shared.leaf_for("group_a_update").instance_key = lambda args: args["shared_id"]
        self._reconfigure(env, engine, "reconfigure_online", by_shared)
        by_local = by_shared.clone(name="by-local")
        by_local.leaf_for("group_a_update").instance_key = lambda args: args["local_id"]
        assert by_local.signature() == by_shared.signature()
        old_instances = engine.root.children[1].instances
        self._reconfigure(env, engine, "reconfigure_online", by_local)
        assert engine.root.children[1].instances is not old_instances
        assert engine.root.children[1].spec.instance_key is by_local.root.children[1].instance_key

    def test_online_update_drains_every_type_under_the_spliced_subtree(
        self, env, micro_workload
    ):
        """The changed node is internal and its leaf is not: the leaf's
        type still runs through the replaced instance and must drain."""
        config = Configuration(
            node("2pl", node("2pl", leaf("2pl", "group_a_update")), leaf("rp", "group_b_update"))
        )
        engine = build_engine(env, micro_workload, config, options=EngineOptions())
        new_config = config.clone(name="short-timeout")
        new_config.root.children[0].params["lock_timeout"] = 0.125
        finished = {}

        def in_flight():
            yield from engine.execute_transaction(
                "group_a_update", {"shared_id": 0, "local_id": 0, "cold_ids": [1, 2, 3]}
            )
            finished["txn"] = env.now

        def reconfigure():
            yield from engine.reconfigure_online(new_config)
            finished["reconfiguration"] = env.now

        env.process(in_flight())
        env.process(reconfigure())
        env.run()
        assert 0 < finished["txn"] <= finished["reconfiguration"]
        assert engine.root.children[0].cc.locks.timeout == 0.125

    def test_transactions_work_after_reconfiguration(self, env, micro_workload):
        workload, engine = self._engine(env, micro_workload)
        new_config = Configuration(
            node("ssi", leaf("none", "group_b_read"), leaf("rp", "group_a_update")),
            name="after",
        )

        def scenario():
            yield from engine.reconfigure_online(new_config)
            txn = yield from engine.execute_transaction(
                "group_a_update",
                {"shared_id": 0, "local_id": 0, "cold_ids": [1, 2, 3, 4, 5]},
            )
            return txn

        process = env.process(scenario())
        txn = env.run(until=process)
        assert txn.committed


def batch_micro_workload():
    """Tiny declarable workload for deterministic-batch unit tests.

    ``declared_write`` promises exactly the key it writes; ``rogue_write``
    under-declares (promises one key, writes two), which the batch mechanism
    must catch at execution time; ``plain_read`` is read-only.
    """
    from repro.analysis.profiles import TransactionProfile, TransactionType
    from repro.storage.tables import Catalog, Table, TableSchema
    from repro.workloads.base import Workload

    class BatchMicro(Workload):
        name = "batch-micro"

        def build_catalog(self):
            table = Table(TableSchema(name="rows", key_columns=("id",)))
            for pk in range(8):
                table.insert((pk,), {"value": 0})
            return Catalog([table])

        def _declared(self, ctx, pk):
            yield from ctx.update(
                "rows", pk, updates={"value": lambda v: (v or 0) + 1}
            )
            return True

        def _rogue(self, ctx, pk):
            yield from ctx.update(
                "rows", pk, updates={"value": lambda v: (v or 0) + 1}
            )
            # Not in the declared write set: must abort, never install.
            yield from ctx.update(
                "rows", pk + 1, updates={"value": lambda v: (v or 0) + 1}
            )
            return True

        def _read(self, ctx, pk):
            row = yield from ctx.read("rows", pk)
            return (row or {}).get("value", 0)

        def build_transaction_types(self):
            promised = lambda args: (("rows", args["pk"]),)  # noqa: E731
            return {
                "declared_write": TransactionType(
                    name="declared_write",
                    procedure=self._declared,
                    profile=TransactionProfile(
                        name="declared_write",
                        accesses=(("rows", "w"),),
                        promise_keys=promised,
                    ),
                ),
                "rogue_write": TransactionType(
                    name="rogue_write",
                    procedure=self._rogue,
                    profile=TransactionProfile(
                        name="rogue_write",
                        accesses=(("rows", "w"), ("rows", "w")),
                        promise_keys=promised,
                    ),
                ),
                "plain_read": TransactionType(
                    name="plain_read",
                    procedure=self._read,
                    profile=TransactionProfile(
                        name="plain_read",
                        accesses=(("rows", "r"),),
                        read_only=True,
                    ),
                ),
            }

        def generate_args(self, rng, txn_type):
            return {"pk": rng.randrange(4)}

    return BatchMicro()


class TestDeterministicBatch:
    """Deterministic batch execution: config validation and runtime guards."""

    ALL_TYPES = ("declared_write", "rogue_write", "plain_read")

    def test_registered(self):
        assert "batch" in CC_REGISTRY
        assert CC_REGISTRY["batch"].supports_partitioning is False

    def test_bad_params_rejected(self, env):
        with pytest.raises(ConfigurationError, match="batch_size"):
            build_engine(
                env,
                batch_micro_workload(),
                monolithic("batch", self.ALL_TYPES, params={"batch_size": 0}),
            )

    def test_undeclared_write_aborts_cleanly(self, env):
        workload = batch_micro_workload()
        engine = build_engine(
            env,
            workload,
            monolithic("batch", self.ALL_TYPES, params={"batch_window": 0.001}),
        )
        # A declared write in the same batch commits, so the oracle below
        # has a history to check.
        outcomes, _ = run_transactions(
            env, engine, [("rogue_write", {"pk": 2}), ("declared_write", {"pk": 0})]
        )
        aborted = next(o for o in outcomes if isinstance(o, TransactionAborted))
        assert aborted.reason == "batch-undeclared-write"
        # The declared first write never became visible.
        assert engine.store.latest_committed(("rows", 2)).value["value"] == 0
        assert engine.store.uncommitted_versions(("rows", 2)) == []
        report = check_engine(engine)
        assert report.ok and report.num_transactions == 1

    def test_contended_writes_all_commit_in_one_order(self, env):
        workload = batch_micro_workload()
        engine = build_engine(
            env,
            workload,
            monolithic("batch", self.ALL_TYPES, params={"batch_size": 4}),
        )
        count = 12
        requests = [("declared_write", {"pk": 0}) for _ in range(count)]
        outcomes, _ = run_transactions(env, engine, requests)
        assert all(getattr(txn, "committed", False) for txn in outcomes)
        assert engine.stats.commits == count
        assert engine.stats.aborts == 0
        assert engine.store.latest_committed(("rows", 0)).value["value"] == count
        cc = engine.root.cc
        assert cc.batches_sealed >= count // 4
        # Every member of a batch conflicts with all its predecessors here.
        assert cc.graph_edges > 0
        report = check_engine(engine)
        assert report.ok and report.num_transactions == count

    def test_state_lookups_per_commit_do_not_grow_with_members_in_flight(
        self, monkeypatch
    ):
        """Complexity guard, by exact count: the leaf answers its questions
        from indexes, so what one commit costs in per-transaction state
        lookups is flat in the members in flight (scanning them cost 37.5 /
        183.7 / 1,313.2 lookups per commit at 16 / 64 / 128 members)."""
        from repro.harness import configs
        from repro.harness.runner import BenchmarkRunner
        from tests.test_retention import _zipf

        lookups = [0]
        state_for = Transaction.state_for

        def counted(txn, node_id, factory=dict):
            lookups[0] += 1
            return state_for(txn, node_id, factory)

        monkeypatch.setattr(Transaction, "state_for", counted)
        commits, per_commit = [], []
        for inflight in (1, 4, 8):
            runner = BenchmarkRunner(
                _zipf(),
                monolithic(
                    "batch",
                    configs.YCSB_TRANSACTIONS,
                    params={"batch_size": 16, "max_inflight_batches": inflight},
                ),
                seed=7,
            )
            lookups[0] = 0
            try:
                runner.run(16 * inflight, duration=0.1, warmup=0.0)
            finally:
                runner.stop()
            commits.append(runner.engine.stats.commits)
            per_commit.append(lookups[0] / commits[-1])
        # The schedule is pinned too: the indexes left it as the scans had it
        # (1,598 / 5,808 / 8,017); targeted wakes resume same-instant waiters
        # in another order, so other arrivals seal together.
        assert commits == [1616, 5840, 7983]
        assert per_commit[2] <= 1.5 * per_commit[0], per_commit
