"""The parallel execution engine (repro.par) and its wiring.

The engine's contract is that worker count changes wall-clock only:
groups, re-keys and removals must be byte-identical under any worker
count, per-task randomness streams must be independent, and a poisoned
pool must never be reused.  The wNAF fixed-base tables it leans on are
checked against naive scalar multiplication.
"""

from __future__ import annotations

import pytest

import repro
from repro.crypto.rng import DeterministicRng
from repro.ec import FixedBaseWnaf, wnaf_digits
from repro.errors import ParallelError, ValidationError
from repro.par import ENV_WORKERS, WorkerPool, derive_seed, resolve_workers
from repro.par.streams import task_rng


# ---------------------------------------------------------------------------
# resolve_workers / stream derivation
# ---------------------------------------------------------------------------

def test_resolve_workers_explicit_and_default(monkeypatch):
    monkeypatch.delenv(ENV_WORKERS, raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3


def test_resolve_workers_env_fallback(monkeypatch):
    monkeypatch.setenv(ENV_WORKERS, "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(5) == 5  # explicit wins over the environment


@pytest.mark.parametrize("bad", [0, -1, "two", 1.5, True])
def test_resolve_workers_rejects_invalid(monkeypatch, bad):
    monkeypatch.delenv(ENV_WORKERS, raising=False)
    with pytest.raises(ParallelError):
        resolve_workers(bad)


def test_resolve_workers_rejects_bad_env(monkeypatch):
    monkeypatch.setenv(ENV_WORKERS, "lots")
    with pytest.raises(ParallelError):
        resolve_workers(None)


def test_derive_seed_independence():
    parent = b"p" * 32
    seeds = {derive_seed(parent, i) for i in range(64)}
    assert len(seeds) == 64                       # distinct per index
    assert derive_seed(parent, 0) == derive_seed(parent, 0)  # stable
    assert derive_seed(parent, 0) != derive_seed(parent, 0, "rekey")
    assert derive_seed(parent, 0) != derive_seed(b"q" * 32, 0)
    with pytest.raises(ValidationError):
        derive_seed(parent, -1)


def test_task_rng_streams_are_independent():
    parent = b"p" * 32
    a = task_rng(parent, 0).random_bytes(64)
    b = task_rng(parent, 1).random_bytes(64)
    assert a != b
    # re-derivation replays the identical stream
    assert task_rng(parent, 0).random_bytes(64) == a


# ---------------------------------------------------------------------------
# WorkerPool
# ---------------------------------------------------------------------------

def _square(x):
    return x * x


def _explode(x):
    raise RuntimeError(f"task {x} failed")


def test_pool_serial_and_parallel_agree():
    with WorkerPool(1) as serial, WorkerPool(2) as parallel:
        tasks = list(range(25))
        assert serial.run(_square, tasks) == parallel.run(_square, tasks)
        assert serial.run(_square, []) == []


def test_pool_shutdown_on_exception():
    pool = WorkerPool(2)
    try:
        assert pool.run(_square, [1, 2, 3]) == [1, 4, 9]
        assert pool.started
        with pytest.raises(RuntimeError):
            pool.run(_explode, [1])
        # the poisoned pool was torn down, and a fresh one works
        assert not pool.started
        assert pool.run(_square, [4]) == [16]
        snapshot = pool.registry.snapshot()
        assert snapshot["par.failures"] == 1
    finally:
        pool.close()


def test_pool_serial_failure_counts_without_pool():
    pool = WorkerPool(1)
    with pytest.raises(RuntimeError):
        pool.run(_explode, [1])
    assert pool.registry.snapshot()["par.failures"] == 1
    assert not pool.started


def test_pool_warm_starts_workers():
    with WorkerPool(2) as pool:
        assert pool.warm() == 2
        assert pool.started
    assert not pool.started


def test_pool_metrics():
    with WorkerPool(1) as pool:
        pool.run(_square, [1, 2, 3])
        pool.run(_square, [4])
        snapshot = pool.registry.snapshot()
        assert snapshot["par.tasks"] == 4
        assert snapshot["par.dispatches"] == 2
        assert snapshot["par.workers"] == 1


# ---------------------------------------------------------------------------
# Serial vs parallel byte-equivalence of group operations
# ---------------------------------------------------------------------------

def _build_system(workers):
    return repro.quickstart_system(
        partition_capacity=4, params="toy64",
        rng=DeterministicRng(b"par-equivalence"), workers=workers,
    )


def _cloud_bytes(system):
    return {obj.path: obj.data for obj in system.cloud.adversary_view()}


@pytest.fixture(scope="module")
def equivalence_runs():
    """The same operation sequence under serial and 2-worker engines."""
    systems = [_build_system(1), _build_system(2)]
    snapshots = []
    for system in systems:
        admin = system.admin
        admin.create_group("g", [f"user{i}" for i in range(10)])
        admin.rekey("g")
        admin.remove_user("g", "user3")
        admin.add_user("g", "late-joiner")
        admin.repartition("g")
        snapshots.append(_cloud_bytes(system))
    yield systems, snapshots
    for system in systems:
        system.close()


def test_group_operations_byte_identical(equivalence_runs):
    _, (serial, parallel) = equivalence_runs
    assert serial.keys() == parallel.keys()
    assert serial == parallel


def test_parallel_system_serves_clients(equivalence_runs):
    (serial_sys, parallel_sys), _ = equivalence_runs
    a = serial_sys.make_client("g", "user5")
    b = parallel_sys.make_client("g", "user5")
    a.sync(), b.sync()
    assert a.current_group_key() == b.current_group_key()


def test_parallel_engine_metrics(equivalence_runs):
    (_, parallel_sys), _ = equivalence_runs
    metrics = parallel_sys.telemetry()["metrics"]
    assert metrics["par.workers"] == 2
    assert metrics["par.tasks"] > 0
    assert metrics["par.failures"] == 0


def test_set_workers_runtime_switch():
    system = _build_system(1)
    try:
        assert system.workers == 1
        assert system.set_workers(2) == 2
        assert system.workers == 2
        system.admin.create_group("g", [f"u{i}" for i in range(6)])
        assert system.telemetry()["metrics"]["par.workers"] == 2
        with pytest.raises(ParallelError):
            system.set_workers(0)
    finally:
        system.close()


def test_client_prewarm_hints_parallel_equivalence():
    system = _build_system(1)
    try:
        admin = system.admin
        admin.create_group("g", [f"u{i}" for i in range(10)])
        state = admin.group_state("g")
        member_sets = [tuple(r.members) for r in state.records.values()]

        warmed = system.make_client("g", "u1")
        warmed.workers = 2
        added = warmed.prewarm_hints(member_sets)
        assert added == 1  # only u1's own partition qualifies
        assert warmed.prewarm_hints(member_sets) == 0  # idempotent

        cold = system.make_client("g", "u1")
        warmed.sync(), cold.sync()
        assert warmed.current_group_key() == cold.current_group_key()
        # the prewarmed client never ran an inline expansion
        assert warmed.expansion_count == 0
        assert cold.expansion_count == 1
        warmed.close()
    finally:
        system.close()


# ---------------------------------------------------------------------------
# Fixed-base wNAF correctness
# ---------------------------------------------------------------------------

def test_wnaf_digits_recoding():
    for k in [0, 1, 2, 3, 31, 32, 255, 2**64 - 1, 12345678901234567890]:
        digits = wnaf_digits(k)
        value = sum(d * (1 << i) for i, d in enumerate(digits))
        assert value == k, f"wNAF recoding of {k} does not sum back"
        assert all(d == 0 or d % 2 != 0 for d in digits)
        assert all(abs(d) < 16 for d in digits)


def test_fixed_base_wnaf_matches_naive(group):
    curve = group.curve
    base = group.g1
    table = FixedBaseWnaf(curve, base.point._jac(), bits=group.q.bit_length())
    for k in [0, 1, 2, 3, group.q - 1, group.q // 2, 0xDEADBEEF]:
        expected = base.point * k
        got = curve._to_affine(table.mul(k))
        assert got == expected, f"wNAF mul mismatch at k={k}"


def test_g1_precomputation_matches_ladder(group):
    g = group.g1
    h = g ** group.hash_to_scalar("base", domain=b"t")
    plain = [h ** k for k in [0, 1, 5, group.q - 1]]
    h.enable_precomputation()
    fast = [h ** k for k in [0, 1, 5, group.q - 1]]
    assert plain == fast


def test_gt_precomputation_matches_pow(group):
    gt = group.pair(group.g1, group.g1)
    plain = [gt ** k for k in [0, 1, 7, group.q - 1]]
    gt.enable_precomputation()
    fast = [gt ** k for k in [0, 1, 7, group.q - 1]]
    assert plain == fast


def test_setup_builds_public_key_tables(group):
    from repro import ibbe
    msk, pk = ibbe.setup(group, m=3, rng=DeterministicRng("tables"))
    assert all(base._wnaf_table is not None for base in (pk.w, pk.v, pk.h))
    assert msk.g._wnaf_table is None


def test_precomputation_metrics(group):
    from repro.ec import precomp_registry
    before = precomp_registry.snapshot().get("ec.precomp.hits", 0)
    g = group.g1
    h = g ** 7
    h.enable_precomputation()
    _ = h ** 12345
    after = precomp_registry.snapshot()["ec.precomp.hits"]
    assert after > before


def _precomp_delta(fn):
    from repro.ec import precomp_registry
    before = precomp_registry.snapshot()
    fn()
    after = precomp_registry.snapshot()
    return (after["ec.precomp.hits"] - before["ec.precomp.hits"],
            after["ec.precomp.misses"] - before["ec.precomp.misses"])


def test_membership_ops_use_public_key_tables():
    """Exact table accounting of a group build, a revocation and a join.

    Building a partition raises only table bases (``C3 = h^∏``,
    ``C2 = h^(∏·k)``, ``w^-k``, ``v^k``).  ``remove_user`` re-keys every
    partition: one table hit each for ``w^-k`` and ``v^k`` and one miss
    for the variable base ``C3^k``, plus the hosting partition's
    ``C3^(1/(γ+H(u)))`` miss.  Every admin signature is one hit on the
    P-256 generator table.  ``add_user`` into a partition with room is
    two misses (``C2``, ``C3`` raised to ``γ+H(u)``).  Losing the tables
    again turns the hits into misses.
    """
    system = _build_system(1)
    try:
        admin = system.admin
        # 3 partitions × (h, h, w, v) + 4 signatures, no misses.
        assert _precomp_delta(lambda: admin.create_group(
            "g", [f"u{i}" for i in range(10)])) == (3 * 4 + 4, 0)
        assert len(admin.group_state("g").records) == 3
        # 3 partitions × (w, v) + 4 signatures (3 records, 1 descriptor).
        assert _precomp_delta(lambda: admin.remove_user("g", "u3")) == (
            3 * 2 + 4, 3 + 1)
        # 2 signatures (the record and the descriptor).
        assert _precomp_delta(lambda: admin.add_user("g", "new")) == (2, 2)
    finally:
        system.close()


def _kernel_keys():
    """Every IbbePublicKey reachable from repro.par.kernels' globals."""
    from repro.ibbe import IbbePublicKey
    from repro.par import kernels

    found, stack = [], list(vars(kernels).values())
    while stack:
        obj = stack.pop()
        if isinstance(obj, IbbePublicKey):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return found


@pytest.mark.parametrize("teardown", ["system_close", "enclave_destroy"])
def test_closed_system_key_not_retained_by_kernels(teardown):
    system = _build_system(1)
    system.admin.create_group("g", [f"u{i}" for i in range(6)])
    key = system.public_key.encode()
    assert any(pk.encode() == key for pk in _kernel_keys())
    if teardown == "system_close":
        system.close()
    else:
        system.enclave.destroy()
    assert not any(pk.encode() == key for pk in _kernel_keys())
