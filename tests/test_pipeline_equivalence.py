"""The batched admin write path and the store commit it relies on.

Every administrator mutation runs its enclave work in one ``call_batch``
crossing and pushes its metadata in one atomic ``CloudStore.commit``.
That is observationally the same as applying the batch's puts and
``ignore_missing`` deletes one request at a time — the property
:class:`TestBatchCommitMatchesSingleOps` checks on both store backends,
so the cloud bytes, versions and event streams the admin leaves behind
do not depend on the batching.

Also pins each mutation's outcome for the members (one common key, or
revocation), the crossing/request footprint the batching buys, and the
sparse-partition-id ``load_group_from_cloud`` path.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud import CloudBatch, CloudStore, FileCloudStore
from repro.core.admin import GroupAdministrator
from repro.errors import RevokedError
from tests.conftest import make_system


def run_script(script, seed="equiv", capacity=3, auto_repartition=True,
               system_bound=64):
    system = make_system(seed, capacity=capacity,
                         auto_repartition=auto_repartition,
                         system_bound=system_bound)
    script(system)
    return system


def assert_common_key(system, users, group_id="g"):
    """Every listed member derives the same, present group key."""
    keys = set()
    for user in users:
        client = system.make_client(group_id, user)
        client.sync()
        keys.add(client.current_group_key())
    assert len(keys) == 1
    assert None not in keys


class TestByteIdenticalCloudState:
    def test_create_group_multiple_partitions(self):
        members = [f"u{i}" for i in range(8)]
        system = run_script(lambda s: s.admin.create_group("g", members))
        assert_common_key(system, members)

    def test_add_user_existing_and_fresh_partition(self):
        def script(system):
            system.admin.create_group("g", ["a", "b"])
            system.admin.add_user("g", "c")   # joins the open partition
            system.admin.add_user("g", "d")   # fills it? capacity=3: fresh
            system.admin.add_user("g", "e")   # existing again

        assert_common_key(run_script(script), ["a", "b", "c", "d", "e"])

    def test_add_users_fill_then_spill(self):
        joiners = [f"j{i}" for i in range(7)]

        def script(system):
            system.admin.create_group("g", ["a", "b"])
            system.admin.add_users("g", joiners)

        assert_common_key(run_script(script), ["a", "b"] + joiners)

    def test_remove_user_host_survives(self):
        def script(system):
            system.admin.create_group("g", ["a", "b", "c"])
            system.admin.remove_user("g", "b")

        assert_common_key(run_script(script), ["a", "c"])

    def test_remove_user_host_empties(self):
        def script(system):
            system.admin.create_group("g", ["a", "b", "c"])
            system.admin.remove_user("g", "b")

        system = run_script(script, capacity=1, auto_repartition=False)
        assert_common_key(system, ["a", "c"])

    def test_remove_last_member(self):
        def script(system):
            system.admin.create_group("g", ["solo"])
            system.admin.remove_user("g", "solo")

        client = run_script(script).make_client("g", "solo")
        client.sync()
        with pytest.raises(RevokedError):
            client.current_group_key()

    def test_rekey(self):
        members = [f"u{i}" for i in range(6)]

        def script(system):
            system.admin.create_group("g", members)
            system.admin.rekey("g")

        assert_common_key(run_script(script), members)

    def test_delete_then_recreate(self):
        def script(system):
            system.admin.create_group("g", ["a", "b", "c", "d"])
            system.admin.delete_group("g")
            system.admin.create_group("g", ["x", "y"])

        assert_common_key(run_script(script), ["x", "y"])

    def test_churn_script(self):
        """A longer mixed sequence, including auto-repartitioning."""
        def script(system):
            admin = system.admin
            admin.create_group("g", [f"u{i}" for i in range(9)])
            admin.add_users("g", [f"n{i}" for i in range(5)])
            for user in ("u1", "u4", "n0", "u8"):
                admin.remove_user("g", user)
            admin.rekey("g")
            admin.add_user("g", "late")
            admin.create_group("h", ["other"])

        survivors = ([f"u{i}" for i in range(9) if i not in (1, 4, 8)]
                     + [f"n{i}" for i in range(1, 5)] + ["late"])
        system = run_script(script)
        assert_common_key(system, survivors)
        # Every byte the admin counts as pushed is a put payload the store
        # received.  The record count is pinned: batching must not change
        # how many partition records a script writes.
        assert (system.admin.metrics.bytes_pushed
                == system.cloud.metrics.bytes_in)
        assert system.admin.metrics.partitions_written == 32


PATHS = ["/g/descriptor", "/g/p0", "/g/p1", "/g/sealed-gk", "/h/p0"]

#: One admin-shaped batch: unconditional puts and ``ignore_missing``
#: deletes, optionally led by a conditional descriptor put.
batch_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(PATHS),
                  st.binary(max_size=8)),
        st.tuples(st.just("delete"), st.sampled_from(PATHS)),
    ),
    min_size=1, max_size=8,
)


def _make_store(backend, tmp_path_factory):
    if backend == "memory":
        return CloudStore()
    return FileCloudStore(tmp_path_factory.mktemp("store"))


def _observe(store):
    """Objects with versions, and every directory event in order."""
    objects = {obj.path: (obj.data, obj.version)
               for obj in store.adversary_view()}
    events = []
    for directory in ("/g", "/h"):
        polled, _ = store.poll_dir(directory)
        events.extend((e.sequence, e.path, e.kind, e.version)
                      for e in polled)
    return objects, sorted(events)


class TestBatchCommitMatchesSingleOps:
    """One ``commit`` of puts and ``ignore_missing`` deletes, with no
    conflict, equals applying the same operations one request at a time
    with ``put``, ``exists`` and ``delete``."""

    @pytest.mark.parametrize("backend", ["memory", "file"])
    @given(prior=batch_ops, ops=batch_ops, conditional=st.booleans(),
           descriptor=st.binary(max_size=8))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_commit_equals_one_by_one(self, tmp_path_factory, backend,
                                      prior, ops, conditional, descriptor):
        batched = _make_store(backend, tmp_path_factory)
        single = _make_store(backend, tmp_path_factory)
        for store in (batched, single):
            for op in prior:
                if op[0] == "put":
                    store.put(op[1], op[2])
                elif store.exists(op[1]):
                    store.delete(op[1])

        batch = CloudBatch()
        if conditional:
            expected = (single.get(PATHS[0]).version
                        if single.exists(PATHS[0]) else 0)
            batch.put(PATHS[0], descriptor, expected_version=expected)
            single.put(PATHS[0], descriptor, expected_version=expected)
        for op in ops:
            if op[0] == "put":
                batch.put(op[1], op[2])
                single.put(op[1], op[2])
            else:
                batch.delete(op[1], ignore_missing=True)
                if single.exists(op[1]):
                    single.delete(op[1])
        batched.commit(batch)

        assert _observe(batched) == _observe(single)


class TestCrossingAndRequestFootprint:
    """The point of the batching: one crossing + one commit per mutation,
    regardless of how many partitions it touches."""

    def _fan_out(self):
        # capacity=1 -> every member is their own partition.
        system = make_system("footprint", capacity=1, system_bound=4,
                             auto_repartition=False)
        system.admin.create_group("g", [f"u{i}" for i in range(6)])
        return system

    def test_rekey_is_one_crossing_one_commit(self):
        system = self._fan_out()
        meter = system.enclave.meter
        metrics = system.cloud.metrics
        crossings = meter.crossings
        requests = metrics.requests
        commits = metrics.batch_commits
        system.admin.rekey("g")
        assert meter.crossings - crossings == 1
        assert metrics.requests - requests == 1
        assert metrics.batch_commits - commits == 1

    def test_add_users_batch_is_one_crossing_one_commit(self):
        system = make_system("footprint-add", capacity=2, system_bound=4)
        system.admin.create_group("g", ["a", "b"])
        meter = system.enclave.meter
        metrics = system.cloud.metrics
        crossings = meter.crossings
        requests = metrics.requests
        commits = metrics.batch_commits
        system.admin.add_users("g", [f"n{i}" for i in range(6)])
        assert meter.crossings - crossings == 1
        assert metrics.requests - requests == 1
        assert metrics.batch_commits - commits == 1

    def test_delete_group_is_one_commit(self):
        system = self._fan_out()
        metrics = system.cloud.metrics
        requests = metrics.requests
        commits = metrics.batch_commits
        system.admin.delete_group("g")
        assert metrics.requests - requests == 1
        assert metrics.batch_commits - commits == 1
        assert not any("/g/" in obj.path or obj.path.endswith("/g")
                       for obj in system.cloud.adversary_view())


class TestLoadFromCloudSparseIds:
    """After deletions, partition ids on the cloud are sparse; a takeover
    administrator must rebuild the exact table, not a renumbered one."""

    def _sparse_world(self):
        system = make_system("sparse", capacity=1, system_bound=4,
                             auto_repartition=False)
        system.admin.create_group("g", ["a", "b", "c"])
        system.admin.remove_user("g", "b")   # drops partition 1
        return system

    def _takeover_admin(self, system):
        return GroupAdministrator(
            enclave=system.enclave,
            cloud=system.cloud,
            signing_key=system.admin._signing_key,
            partition_capacity=1,
            rng=system.rng,
            auto_repartition=False,
        )

    def test_reload_preserves_sparse_partition_ids(self):
        system = self._sparse_world()
        original = system.admin.group_state("g")
        assert sorted(original.records) == [0, 2]

        admin2 = self._takeover_admin(system)
        state = admin2.load_group_from_cloud("g")
        assert sorted(state.records) == [0, 2]
        assert state.epoch == original.epoch
        assert state.descriptor_version == original.descriptor_version
        assert {pid: tuple(r.members) for pid, r in state.records.items()} \
            == {pid: tuple(r.members) for pid, r in original.records.items()}
        assert state.sealed_group_key == original.sealed_group_key

    def test_new_partition_ids_continue_after_gap(self):
        system = self._sparse_world()
        admin2 = self._takeover_admin(system)
        admin2.load_group_from_cloud("g")
        admin2.add_user("g", "d")
        state = admin2.group_state("g")
        # The freed id 1 is not reused blindly past the stored ids.
        assert sorted(state.records) == [0, 2, 3]
        client = system.make_client("g", "d")
        client.sync()
        assert client.current_group_key() is not None
