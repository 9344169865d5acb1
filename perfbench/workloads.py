"""The benchmark's seeded workloads, driven through the public API.

Every workload is a closed loop in one process: one administrator waits
for each reply, and member clients are driven in turn.  The op stream is
generated here from the seed (``random.Random``), never by
``repro.workloads``, so later refactors of the library cannot change the
inputs.  Deployments run at the paper's ``std160`` parameters.

A run brings the deployment up ``SETUPS`` times (``setup_s`` is the
median), runs the last one for ``--seconds`` seconds, checks the outputs
outside the timed window, and reports the end-to-end metrics, with times
scaled to a reference host speed (:class:`HostSpeed`).  A traced
run (``trace=True``) replays the same op stream on a second, identical
deployment with the per-layer shims of :mod:`layers` installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers

#: Deployment bring-ups per run; ``setup_s`` reports their median.
SETUPS = 3

#: The ``.tail`` percentile.  Fixed rather than derived from the sample
#: count, so that a faster tree is not judged on a higher percentile; at
#: 75 most windows leave at least ten samples beyond it.
TAIL_PCT = 75

#: The end-to-end metrics every workload reports (the gated set).  The
#: member-side ``key_refresh_ms`` / ``sync_noop_ms`` and
#: ``failed_ops_ratio`` are printed but not gated: ``admin-churn`` has no
#: members, and the failure ratio is 0 on a healthy tree.
END_TO_END = {
    "setup_s": "s",
    "remove_ms.p50": "ms",
    "remove_ms.tail": "ms",
    "add_ms.p50": "ms",
    "add_ms.tail": "ms",
    "admin_ops_per_s": "ops/s",
    "bytes_written_per_op": "B/op",
    "meta_bytes_per_member": "B",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Spec:
    """One workload: deployment shape and op mix."""

    name: str
    capacity: int
    groups: Tuple[int, ...]
    #: (op kind, count per block); kinds: remove, add, add_users, sync.
    #: The stream deals shuffled blocks, so every seed runs the same mix
    #: and only the order, groups and users vary.
    mix: Tuple[Tuple[str, int], ...]
    #: "none", "partition" (one resident per partition, all resident
    #: clients sync after every membership op) or "group" (one resident
    #: per group, synced by "sync" ops).
    residents: str
    #: Group choice for membership ops: "size" (weighted) or "uniform".
    pick: str = "size"
    workers: int = 1
    remote: bool = False
    #: Workloads with the same stream key draw the same op stream and
    #: deployment keys.
    stream: str = ""
    #: Listed in BENCHMARK.json.  ``admin-churn-par`` is not: a fourth
    #: workload would not fit the driver's time budget at 25-s windows.
    gated: bool = True


SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec(
        name="admin-churn",
        capacity=100, groups=(2000, 500, 125),
        mix=(("remove", 9), ("add", 9), ("add_users", 2)),
        residents="none"),
    Spec(
        name="member-refresh",
        capacity=100, groups=(400,),
        mix=(("remove", 2), ("add", 1)),
        residents="partition"),
    Spec(
        name="remote-mixed",
        capacity=16, groups=tuple(8 + (56 * i) // 23 for i in range(24)),
        mix=(("sync", 3), ("remove", 1), ("add", 1)),
        residents="group", pick="uniform", remote=True),
    Spec(
        name="admin-churn-par",
        capacity=100, groups=(2000, 500, 125),
        mix=(("remove", 9), ("add", 9), ("add_users", 2)),
        residents="none", workers=2, stream="admin-churn", gated=False),
)}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(samples: List[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def store_digest(store) -> str:
    """SHA-256 over every stored object's path and content."""
    digest = hashlib.sha256()
    for obj in sorted(store.adversary_view(), key=lambda o: o.path):
        digest.update(obj.path.encode("utf-8") + b"\x00")
        digest.update(hashlib.sha256(obj.data).digest())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostSpeed:
    """How fast the host runs right now, from a fixed big-integer loop.

    The shared 2-core host switches between a fast and a slow phase about
    1.4x apart, every few seconds and over minutes, and whole runs land in
    one regime or the other.  Every timed call is preceded by one probe
    of a fixed loop (160-bit modular squaring, the arithmetic the crypto
    layers spend their time in).  Gated times are scaled by
    ``REFERENCE_S`` / (median of the last ``WINDOW`` probes): they read as
    the time on a host where the loop takes ``REFERENCE_S``, its usual
    time between ops here.  The probe runs no library code, so a change
    to the library moves the scaled time as much as the raw one; raw
    times are printed alongside.
    """

    LOOP = 2000
    MODULUS = (1 << 160) - 47
    REFERENCE_S = 0.0013
    WINDOW = 5

    def __init__(self) -> None:
        self.recent: deque = deque(maxlen=self.WINDOW)

    def probe(self) -> None:
        x = 0x123456789ABCDEF123456789ABCDEF12345678
        start = time.perf_counter()
        for _ in range(self.LOOP):
            x = x * x % self.MODULUS
        self.recent.append(time.perf_counter() - start)

    def scale(self, seconds: float) -> float:
        return seconds * self.REFERENCE_S / statistics.median(self.recent)


# ---------------------------------------------------------------------------
# Deployment
# ---------------------------------------------------------------------------

class StoreServer:
    """A ``repro serve`` subprocess over a file-backed store."""

    def __init__(self, root: Path, cloud_dir: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cloud_dir = cloud_dir
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--cloud",
             str(cloud_dir), "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, cwd=str(root))
        line = self.proc.stdout.readline()
        if not line.startswith("serving "):
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = line.split()[1]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cloud_dir, ignore_errors=True)


class Deployment:
    """One brought-up system, its membership model and resident clients."""

    def __init__(self, spec: Spec, seed: int, root: Path,
                 scratch: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.root = root
        self.scratch = scratch
        self.server: Optional[StoreServer] = None
        self.system = None
        self.store = None
        #: group id -> members in insertion order (the benchmark's model)
        self.members: Dict[str, List[str]] = {}
        #: group id -> resident clients
        self.residents: Dict[str, List[Any]] = {}
        #: group id -> the key its residents last derived
        self.keys: Dict[str, bytes] = {}
        #: groups with a removal their resident has not synced yet
        self.removed: set = set()
        self.setup_s = 0.0

    def bring_up(self, index: int) -> "Deployment":
        from repro import quickstart_system
        from repro.crypto import DeterministicRng

        spec = self.spec
        if spec.remote:
            from repro.net import RemoteCloudStore
            cloud_dir = self.scratch / f"cloud-{os.getpid()}-{index}"
            shutil.rmtree(cloud_dir, ignore_errors=True)
            self.server = StoreServer(self.root, cloud_dir)
        start = time.perf_counter()
        system = quickstart_system(
            partition_capacity=spec.capacity, params="std160",
            rng=DeterministicRng(
                f"perfbench:{spec.stream or spec.name}:{self.seed}"),
            workers=spec.workers)
        self.system = system
        if spec.remote:
            self.store = RemoteCloudStore(self.server.url)
            system.cloud = self.store
            system.admin.cloud = self.store
        else:
            self.store = system.cloud
        if spec.workers > 1:
            system.admin.warm_enclave_workers()
        for number, size in enumerate(spec.groups):
            group = f"g{number}"
            users = [f"{group}-u{i}" for i in range(size)]
            system.admin.create_group(group, users)
            self.members[group] = users
        for group in self.members:
            self.residents[group] = [
                system.make_client(group, user)
                for user in self._resident_users(group)]
            for client in self.residents[group]:
                client.sync()
                self.keys[group] = client.current_group_key()
        self.setup_s = time.perf_counter() - start
        return self

    def _resident_users(self, group: str) -> List[str]:
        if self.spec.residents == "none":
            return []
        table = self.system.admin.group_state(group).table
        pids = table.partition_ids
        if self.spec.residents == "group":
            pids = pids[:1]
        return [table.members_of(pid)[0] for pid in pids]

    def resident_ids(self, group: str) -> set:
        return {client.identity for client in self.residents[group]}

    def live_members(self) -> int:
        return sum(len(users) for users in self.members.values())

    def counters(self) -> Dict[str, float]:
        """Registry counters the metrics are deltas of."""
        out: Dict[str, float] = {}
        out.update(self.system.enclave.meter.registry.counters_snapshot())
        out.update(self.system.admin.metrics.registry.counters_snapshot())
        out.update(self.store.metrics.registry.counters_snapshot())
        for name in ("client.decrypts", "client.expansions"):
            out[name] = sum(c.registry.counters_snapshot().get(name, 0)
                            for clients in self.residents.values()
                            for c in clients)
        epc = self.system.device.epc.stats
        out["sgx.epc.page_faults"] = epc.page_faults
        out["sgx.epc.peak_allocated_bytes"] = epc.peak_allocated_bytes
        return out

    def server_slo(self) -> Dict[str, Any]:
        if self.server is None:
            return {}
        return self.store.server_stats().get("slo", {})

    def close(self) -> None:
        if self.system is not None:
            self.system.close()
        if self.spec.remote and self.store is not None:
            self.store.close()
        if self.server is not None:
            self.server.stop()


# ---------------------------------------------------------------------------
# The op stream and the closed loop
# ---------------------------------------------------------------------------

class OpStream:
    """Seeded ops drawn against the benchmark's membership model."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random(f"{spec.stream or spec.name}:{seed}")
        self.kinds = self._deal([kind for kind, count in spec.mix
                                 for _ in range(count)])
        self.groups: List[str] = []
        self.fresh = 0

    def _deal(self, block: List[str]):
        while True:
            self.rng.shuffle(block)
            yield from block

    def _pick_group(self, dep: Deployment, candidates: List[str]) -> str:
        """Deal groups from shuffled blocks: weighted by current size
        (twenty picks a block) or each group once (uniform)."""
        if not self.groups:
            sizes = {g: len(dep.members[g]) for g in sorted(dep.members)}
            if self.spec.pick == "size":
                total = sum(sizes.values())
                self.groups = [g for g, n in sizes.items()
                               for _ in range(max(1, round(20 * n / total)))]
            else:
                self.groups = list(sizes)
            self.rng.shuffle(self.groups)
        group = self.groups.pop()
        return group if group in candidates else self.rng.choice(candidates)

    def _new_user(self, group: str) -> str:
        self.fresh += 1
        return f"{group}-n{self.fresh}"

    def next(self, dep: Deployment) -> Tuple[str, str, Any]:
        kind = next(self.kinds)
        groups = sorted(dep.members)
        if kind == "sync":
            return kind, self.rng.choice(groups), None
        if kind == "remove":
            # Keep residents (they drive the read path) and never empty a
            # group; fall back to an add when no group has a candidate.
            groups = [g for g in groups
                      if len(dep.members[g]) > len(dep.residents[g]) + 1]
            if not groups:
                kind = "add"
                groups = sorted(dep.members)
        group = self._pick_group(dep, groups)
        if kind == "remove":
            residents = dep.resident_ids(group)
            while True:
                user = self.rng.choice(dep.members[group])
                if user not in residents:
                    return kind, group, user
        if kind == "add":
            return kind, group, self._new_user(group)
        return kind, group, [self._new_user(group) for _ in range(16)]


class Window:
    """Samples and outcome of one timed window."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {
            "remove": [], "add": [], "add_users": [], "refresh": [],
            "noop": []}
        #: Key refreshes that re-expanded the member set (hint misses).
        self.misses = 0
        #: Set by the traced run: busy seconds of the ``ATTRIBUTED``
        #: metrics spent inside each kind of member refresh.
        self.recorder: Optional[layers.Recorder] = None
        self.inside: Dict[str, Dict[str, float]] = {}
        #: Unscaled samples, printed beside the scaled ones.
        self.raw: Dict[str, List[float]] = {k: [] for k in self.samples}
        self.host = HostSpeed()
        #: Scaled and raw timed loop seconds.
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.membership_ops = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)

    def timed(self, fn) -> float:
        """Run ``fn`` after a host-speed probe; return seconds taken."""
        self.host.probe()
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def record(self, kind: str, elapsed: float) -> None:
        scaled = self.host.scale(elapsed)
        self.samples[kind].append(scaled)
        self.raw[kind].append(elapsed)
        self.busy_s += scaled
        self.raw_busy_s += elapsed


#: Metrics whose time inside member refreshes the traced run attributes.
ATTRIBUTED = ("ec.msm", "mathutils.poly", "pairing.pair", "net.rpc")


def _refresh(window: Window, client) -> bytes:
    """One member's sync + key derivation, classified as a key refresh
    (it decrypted) or a no-op sync (it did not)."""
    decrypts, expansions = client.decrypt_count, client.expansion_count
    busy = dict(window.recorder.busy) if window.recorder else {}
    key: List[bytes] = []
    elapsed = window.timed(lambda: (client.sync(),
                                    key.append(client.current_group_key())))
    kind = "refresh" if client.decrypt_count > decrypts else "noop"
    window.record(kind, elapsed)
    if client.expansion_count > expansions:
        window.misses += 1
        kind = "refresh_miss"
    if window.recorder is not None:
        inside = window.inside.setdefault(kind, {"total": 0.0})
        inside["total"] += elapsed
        for metric in ATTRIBUTED:
            inside[metric] = (inside.get(metric, 0.0)
                              + window.recorder.busy.get(metric, 0.0)
                              - busy.get(metric, 0.0))
    return key[0]


def _check_key(dep: Deployment, window: Window, group: str, key: bytes,
               removed: bool) -> None:
    """A removal must change the group key; an add must not."""
    if removed:
        window.check(key != dep.keys[group],
                     f"{group}: key unchanged after a removal")
    else:
        window.check(key == dep.keys[group],
                     f"{group}: key changed without a removal")
    dep.keys[group] = key


def _apply(dep: Deployment, window: Window, op) -> None:
    kind, group, arg = op
    admin = dep.system.admin
    if kind == "sync":
        key = _refresh(window, dep.residents[group][0])
        _check_key(dep, window, group, key, group in dep.removed)
        dep.removed.discard(group)
        return
    call = {"remove": admin.remove_user, "add": admin.add_user,
            "add_users": admin.add_users}[kind]
    window.record(kind, window.timed(lambda: call(group, arg)))
    window.membership_ops += 1
    if kind == "remove":
        dep.members[group].remove(arg)
        dep.removed.add(group)
    elif kind == "add":
        dep.members[group].append(arg)
    else:
        dep.members[group].extend(arg)
    window.check(sorted(admin.members(group)) == sorted(dep.members[group]),
                 f"{group}: admin membership diverged from the model "
                 f"after {kind}")
    if dep.spec.residents == "partition":
        keys = [_refresh(window, client)
                for client in dep.residents[group]]
        window.check(len(set(keys)) == 1,
                     f"{group}: residents derived different keys")
        _check_key(dep, window, group, keys[0], kind == "remove")
        dep.removed.discard(group)


def run_window(dep: Deployment, stream: OpStream, seconds: float,
               ops: Optional[int] = None,
               recorder: Optional[layers.Recorder] = None) -> Window:
    """Run ops until ``seconds`` have passed (or exactly ``ops`` ops)."""
    from repro.errors import ReproError

    window = Window()
    window.recorder = recorder
    deadline = time.perf_counter() + seconds
    while (window.attempted < ops if ops is not None
           else time.perf_counter() < deadline):
        op = stream.next(dep)
        window.attempted += 1
        try:
            _apply(dep, window, op)
        except ReproError as exc:
            window.failed += 1
            window.check(False, f"{op[0]} {op[1]} failed: {exc!r}")
    return window


#: Groups (in sorted order) that get the key and revocation end checks.
CHECKED_GROUPS = 3


def final_checks(dep: Deployment, window: Window) -> None:
    """Outside the window: membership matches the model in every group;
    in the first ``CHECKED_GROUPS`` groups one member derives the group
    key, is revoked, and its next sync + key derivation must raise
    ``RevokedError``."""
    from repro.errors import RevokedError

    admin = dep.system.admin
    # A fresh client would otherwise replay and verify the whole event
    # history of the window; after compaction it loads the snapshot.
    dep.store.compact()
    for group, users in sorted(dep.members.items()):
        window.check(sorted(admin.members(group)) == sorted(users),
                     f"{group}: admin membership diverged from the model")
    for group, users in sorted(dep.members.items())[:CHECKED_GROUPS]:
        residents = dep.residents[group]
        if residents:
            client = residents[0]
        else:
            client = dep.system.make_client(group, users[0])
        client.sync()
        key = client.current_group_key()
        if residents:
            _check_key(dep, window, group, key, group in dep.removed)
        admin.remove_user(group, client.identity)
        dep.members[group].remove(client.identity)
        client.sync()
        try:
            client.current_group_key()
            window.check(False, f"{group}: revoked member derived a key")
        except RevokedError:
            pass


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _deltas(after: Dict[str, float], before: Dict[str, float]):
    """Counter deltas over a window; high-water marks stay absolute."""
    return {name: value if name.endswith(".peak_allocated_bytes")
            else value - before.get(name, 0)
            for name, value in after.items()}


def _summary(window: Window, dep: Deployment, counts: Dict[str, float],
             setup_s: float, raw_setup_s: float) -> Dict[str, Any]:
    """End-to-end metrics: ``name -> (value, unit, note)``.  Times are
    scaled to the reference host speed (:class:`HostSpeed`); the notes
    give the raw values."""
    out: Dict[str, Any] = {"setup_s": (
        setup_s, "s", f"median of {SETUPS} raw={raw_setup_s:.6g}")}
    for kind, metric in (("remove", "remove_ms"), ("add", "add_ms"),
                         ("refresh", "key_refresh_ms"),
                         ("noop", "sync_noop_ms")):
        samples = [s * 1000.0 for s in window.samples[kind]]
        raw = [s * 1000.0 for s in window.raw[kind]]
        if not samples:
            continue
        beyond = len(samples) * (100 - TAIL_PCT) / 100.0
        note = f"n={len(samples)} raw={percentile(raw, 50):.6g}"
        if kind == "refresh":
            note += f" hint misses={window.misses}"
        out[f"{metric}.p50"] = (percentile(samples, 50), "ms", note)
        out[f"{metric}.tail"] = (
            percentile(samples, TAIL_PCT), "ms",
            f"p{TAIL_PCT} n={len(samples)} beyond={beyond:.0f} "
            f"raw={percentile(raw, TAIL_PCT):.6g}")
    ops = max(window.membership_ops, 1)
    out["admin_ops_per_s"] = (
        window.membership_ops / window.busy_s if window.busy_s else 0.0,
        "ops/s", f"n={window.membership_ops} over {window.busy_s:.2f} s "
        f"raw={window.membership_ops / max(window.raw_busy_s, 1e-9):.6g}")
    out["bytes_written_per_op"] = (counts.get("cloud.bytes_in", 0) / ops,
                                   "B/op", f"n={window.membership_ops}")
    members = dep.live_members()
    out["meta_bytes_per_member"] = (
        dep.store.total_stored_bytes("/") / members, "B",
        f"members={members}")
    out["failed_ops_ratio"] = (window.failed / max(window.attempted, 1),
                               "ratio", f"n={window.attempted}")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB", "")
    return out


def run(spec: Spec, seed: int, seconds: float, root: Path, scratch: Path,
        trace: bool = False, ops: Optional[int] = None,
        setups: int = SETUPS) -> Dict[str, Any]:
    """One benchmark run; returns the result the CLI prints."""
    scratch.mkdir(parents=True, exist_ok=True)
    if trace:
        return _run_traced(spec, seed, seconds, root, scratch, ops)
    host = HostSpeed()
    raw: List[float] = []
    scaled: List[float] = []
    dep: Optional[Deployment] = None
    try:
        for index in range(setups):
            if dep is not None:
                dep.close()
            # Scale each bring-up by probes taken just around it.
            for _ in range(2):
                host.probe()
            dep = Deployment(spec, seed, root, scratch).bring_up(index)
            for _ in range(3):
                host.probe()
            raw.append(dep.setup_s)
            scaled.append(host.scale(dep.setup_s))
        stream = OpStream(spec, seed)
        before = dep.counters()
        window = run_window(dep, stream, seconds, ops)
        counts = _deltas(dep.counters(), before)
        metrics = _summary(window, dep, counts, statistics.median(scaled),
                           statistics.median(raw))
        digest = store_digest(dep.store)
        final_checks(dep, window)
    finally:
        if dep is not None:
            dep.close()
    return {"window": window, "metrics": metrics, "counts": counts,
            "digest": digest}


def _run_traced(spec: Spec, seed: int, seconds: float, root: Path,
                scratch: Path, ops: Optional[int]) -> Dict[str, Any]:
    """Untraced reference window, then the same ops traced on an
    identical deployment; reports per-layer metrics and the overhead."""
    reference = Deployment(spec, seed, root, scratch)
    try:
        reference.bring_up(0)
        ref_window = run_window(reference, OpStream(spec, seed),
                                seconds / 2, ops)
    finally:
        reference.close()
    dep = Deployment(spec, seed, root, scratch)
    try:
        dep.bring_up(1)
        # Read the server's stats outside the counted window: the stats
        # reply itself varies in size.
        slo_before = dep.server_slo()
        before = dep.counters()
        with layers.Instrumentation() as recorder:
            window = run_window(dep, OpStream(spec, seed), 0,
                                ref_window.attempted, recorder)
        counts = _deltas(dep.counters(), before)
        slo_after = dep.server_slo()
        digest = store_digest(dep.store)
        final_checks(dep, window)
    finally:
        dep.close()
    window.problems.extend(ref_window.problems)
    # Host-scaled, so that a host phase change between the two windows
    # does not read as tracing overhead.
    overhead = window.busy_s / ref_window.busy_s - 1.0
    metrics = per_layer_metrics(recorder, counts, slo_before, slo_after,
                                overhead, window.inside)
    return {"window": window, "metrics": metrics, "counts": counts,
            "digest": digest, "recorder": recorder,
            "table": layers.layer_table(recorder, window.raw_busy_s)}


def per_layer_metrics(recorder, counts, slo_before, slo_after, overhead,
                      inside) -> Dict[str, Any]:
    """The ``per_layer`` metrics: ``name -> (value, unit, note)``."""
    out: Dict[str, Any] = {}

    def share(kind: str, metrics: Tuple[str, ...]) -> float:
        spent = inside.get(kind, {})
        total = spent.get("total", 0.0)
        if not total:
            return 0.0
        return sum(spent.get(m, 0.0) for m in metrics) / total

    def timed(metric: str, calls: bool = True) -> None:
        if calls:
            out[f"{metric}.calls"] = (recorder.calls.get(metric, 0),
                                      "count", "")
        out[f"{metric}.s"] = (recorder.busy.get(metric, 0.0), "s", "")

    for metric in ("ec.msm", "ec.mul", "ec.decode", "pairing.gt_pow",
                   "pairing.pair", "mathutils.poly", "ibbe.prepare",
                   "ibbe.decrypt", "crypto.ecdsa_sign",
                   "crypto.ecdsa_verify", "metadata.sign",
                   "metadata.verify", "crypto.gcm", "par.run",
                   "cloud.commit", "cloud.read", "net.rpc"):
        timed(metric, calls=metric != "net.rpc")
    rpc_s = recorder.busy.get("net.rpc", 0.0)
    out["ec.msm.points"] = (recorder.extra.get("ec.msm.points", 0),
                            "count", "")
    out["metadata.bytes_signed"] = (recorder.extra.get("metadata.sign.bytes",
                                                       0), "B", "")
    out["par.tasks"] = (recorder.extra.get("par.run.tasks", 0), "count", "")
    for name in ("sgx.crossings", "sgx.ecalls", "sgx.epc.page_faults",
                 "net.rpc.requests", "client.decrypts"):
        out[name] = (counts.get(name, 0), "count", "")
    for name in ("sgx.epc.peak_allocated_bytes", "cloud.bytes_in",
                 "cloud.bytes_out", "net.rpc.bytes_sent",
                 "net.rpc.bytes_received"):
        out[name] = (counts.get(name, 0), "B", "")
    out["sgx.call.s"] = (recorder.busy.get("sgx.call", 0.0), "s", "")
    out["sgx.call.self_s"] = (recorder.self_s.get("sgx.call", 0.0), "s", "")
    out["admin.op.self_s"] = (recorder.self_s.get("admin.op", 0.0), "s", "")
    out["client.sync.self_s"] = (recorder.self_s.get("client.sync", 0.0),
                                 "s", "")
    hits, misses = (counts.get("admin.cache_hits", 0),
                    counts.get("admin.cache_misses", 0))
    out["admin.cache.lookups"] = (hits + misses, "count", "")
    out["admin.cache.hit_ratio"] = (hits / (hits + misses)
                                    if hits + misses else 0.0, "ratio", "")
    decrypts = counts.get("client.decrypts", 0)
    out["client.hint.hit_ratio"] = (
        (decrypts - counts.get("client.expansions", 0)) / decrypts
        if decrypts else 0.0, "ratio", "")
    # Server time: per-method request deltas times the method's p50 (the
    # server exposes quantiles, not sums), so transport is an estimate.
    server_s = 0.0
    methods_after = slo_after.get("methods", {})
    for method, stats in methods_after.items():
        done = stats["count"] - slo_before.get("methods", {}).get(
            method, {}).get("count", 0)
        server_s += done * stats["p50_ms"] / 1000.0
    out["net.server.handler_ms.p50"] = (
        slo_after.get("all", {}).get("p50_ms", 0.0), "ms", "")
    out["net.transport.s"] = (max(rpc_s - server_s, 0.0), "s",
                              "rpc minus per-method p50 server time")
    for layer in layers.LAYERS:
        out[f"{layer}.self_s"] = (recorder.layer_self.get(layer, 0.0),
                                  "s", "")
    out["refresh_miss.kernel_share"] = (
        share("refresh_miss", ("ec.msm", "mathutils.poly", "pairing.pair")),
        "ratio", "MSM + poly + pairing time inside hint-miss refreshes")
    out["sync_noop.rpc_share"] = (share("noop", ("net.rpc",)), "ratio",
                                  "RPC time inside no-op syncs")
    out["trace.overhead_ratio"] = (overhead, "ratio",
                                   "traced / untraced window time - 1")
    return out


def write_trace(path: Path, spec: Spec, seed: int,
                result: Dict[str, Any]) -> None:
    """Write the traced run's spans and per-layer table as JSON."""
    recorder = result["recorder"]
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": spec.name, "seed": seed,
        "columns": ["metric", "layer", "start_s", "duration_s", "self_s",
                    "depth"],
        "spans": recorder.spans,
        "layer_self_s": dict(recorder.layer_self),
        "table": result["table"],
        "metrics": {name: value for name, (value, _, _) in
                    result["metrics"].items()},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
