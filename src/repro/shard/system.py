"""Sharded multi-enclave deployment with kill-any-shard failover.

:class:`ShardedSystem` runs ``N`` complete enclave instances — each with
its own :class:`~repro.sgx.SgxDevice`, EPC, monotonic counters and
sealed master-secret copy — against one shared cloud store, and
partitions groups across them by rendezvous hash
(:class:`~repro.shard.ring.ShardRing`).  The three pillars:

**Provisioning.**  Shard 0 runs IBBE system setup; every other shard
receives the master secret through the MAGE-style mutual-attestation
exchange of :func:`repro.sgx.provision_master_secret` — no Auditor/CA,
each enclave checks the peer's IAS-signed report against the pinned IAS
key in its *measured* configuration and requires the peer's measurement
to equal its own.  Each shard then holds the MSK sealed under its own
device fuse key, so it can restart without repeating the migration.

**Routing.**  Admin operations and client syncs for a group go to the
shard that owns it.  One :class:`~repro.shard.rng.GroupRoutedRng` is
shared by every device, enclave and administrator, and each routed
operation runs inside ``rng.scoped("group:<id>")`` — which makes a
group's cloud bytes a pure function of the master seed, the group id
and the group's own operation sequence.  ``ShardedSystem(N)`` is
therefore *byte-identical per group* to the single-enclave deployment
(``ShardedSystem(1)``, whose one shard is a plain
:class:`repro.System`) for every ``N``, placement and interleaving.
All shards share one admin signing key (ECDSA nonces are RFC 6979
deterministic, so signatures don't depend on which shard signs).

**Failover.**  :meth:`kill_shard` destroys a shard's enclave in place
(EPC freed, secrets scrubbed); the device — and with it the monotonic
counters guarding sealed-blob freshness — survives, as on real
hardware.  The router detects the dead shard on the next routed
operation (or an explicit :meth:`health` probe) and respawns it:
:meth:`repro.System.restart_enclave` reloads the measured
configuration, unseals the MSK, and rolls the administrator's cached
group state forward from the cloud journal; then the shard
*re-attests* to a live peer (retried through a
:class:`~repro.faults.RetryPolicy`, since injected ``attest.fail``
faults raise the retryable
:class:`~repro.errors.TransientAttestationError`) before serving a
single operation.  Respawn consumes only control-scope randomness, so
a post-failover group continues byte-for-byte where it left off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Dict, List, Optional

from repro.cloud import CloudStore, LatencyModel
from repro.core import GroupClient
from repro.crypto import ecdsa
from repro.errors import EnclaveError, ValidationError
from repro.faults.retry import RetryPolicy
from repro.obs import MetricSource, telemetry_snapshot
from repro.pairing import PairingGroup, preset
from repro.sgx import (
    IntelAttestationService,
    SgxDevice,
    mutual_attest,
    provision_master_secret,
)
from repro.shard.ring import ShardRing
from repro.shard.rng import GroupRoutedRng


@dataclass
class Shard:
    """One enclave instance of a sharded deployment.

    ``system`` is a full single-enclave :class:`repro.System` (with the
    Auditor-specific fields unset — shard trust comes from mutual
    attestation, not a CA), so the shard inherits the whole restart
    machinery.  ``attested`` gates serving: a shard that has not
    completed its (re-)attestation handshake never sees an operation.
    """

    index: int
    shard_id: str
    system: Any                     # repro.System (import deferred; cycle)
    alive: bool = True
    attested: bool = False
    respawns: int = 0

    @property
    def enclave(self):
        return self.system.enclave

    @property
    def admin(self):
        return self.system.admin


class ShardedSystem:
    """``N`` mutually attested enclave shards over one cloud store."""

    def __init__(self, nshards: int = 2,
                 partition_capacity: int = 1000,
                 params: str = "std160",
                 seed: str = "shard",
                 latency: Optional[LatencyModel] = None,
                 auto_repartition: bool = True,
                 system_bound: Optional[int] = None,
                 workers: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if nshards < 1:
            raise ValidationError("nshards must be >= 1")
        from repro.par import resolve_workers

        self.seed = seed
        self.rng = GroupRoutedRng(seed)
        self.ring = ShardRing([f"shard-{i}" for i in range(nshards)])
        self.pairing_group = PairingGroup(preset(params))
        self.cloud = CloudStore(latency=latency)
        # The IAS is the deployment's only trust root.  Its report key is
        # pinned in every shard's *measured* configuration below; its own
        # randomness rides a dedicated stream so IAS identity generation
        # never perturbs group bytes.
        self.ias = IntelAttestationService(rng=self.rng.stream("ias"))
        # One signing key for every shard's administrator: clients verify
        # group metadata under a single key no matter which shard signed
        # it, and RFC 6979 nonces keep the signatures shard-independent.
        self._signing_key = ecdsa.generate_keypair(
            self.rng.stream("admin-signing"))
        self._partition_capacity = partition_capacity
        self._auto_repartition = auto_repartition
        self._workers = resolve_workers(workers)
        # Attestation handshakes consult the ambient fault injector at
        # several sites per attempt, so give the exchange more headroom
        # than cloud I/O gets: an exhausted handshake aborts deployment.
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=8, seed=f"shard:{seed}")
        self.public_key = None
        self.shards: List[Shard] = []
        self._user_keys: Dict[str, object] = {}
        self._clients: List[GroupClient] = []
        self._groups: Dict[str, int] = {}

        with self.rng.scoped("setup"):
            first = self._build_shard(0, system_bound or partition_capacity)
        first.attested = True    # setup shard is trusted by construction
        self.shards.append(first)
        self.public_key = first.system.public_key
        for index in range(1, nshards):
            shard = self._build_shard(index, None)
            self._provision_from(first, shard)
            self.shards.append(shard)

    # -- construction -----------------------------------------------------------

    def _enclave_config(self) -> Dict[str, Any]:
        # Identical across shards — measurement equality between peers is
        # a *precondition* of the mutual-attestation handshake.  The IAS
        # report key is pinned here, inside the measurement, so swapping
        # the verification root means running a different (rejectable)
        # build: the MAGE trust story.
        return {
            "pairing_group": self.pairing_group,
            "ias_report_key": self.ias.report_public_key.encode().hex(),
            "workers": self._workers,
        }

    def _build_shard(self, index: int, system_bound: Optional[int]) -> Shard:
        from repro import System
        from repro.core import GroupAdministrator
        from repro.enclave_app import IbbeEnclave

        # Deterministic per-shard device secret: fuse/attestation keys
        # (and hence device ids) are a function of (seed, index), never
        # of the shared rng — manufacturing draws no group bytes.
        secret = sha256(
            f"repro:shard-device:{self.seed}:{index}".encode()).digest()
        device = SgxDevice(rng=self.rng, device_secret=secret)
        self.ias.register_device(device.device_id,
                                 device.attestation_public_key)
        config = self._enclave_config()
        enclave = IbbeEnclave.load(device, config)
        if system_bound is not None:
            public_key, sealed_msk = enclave.call("setup_system",
                                                  system_bound)
        else:
            public_key, sealed_msk = self.public_key, b""
        admin = GroupAdministrator(
            enclave=enclave,
            cloud=self.cloud,
            signing_key=self._signing_key,
            partition_capacity=self._partition_capacity,
            rng=self.rng,
            auto_repartition=self._auto_repartition,
        )
        system = System(
            group=self.pairing_group, device=device, enclave=enclave,
            ias=self.ias, auditor=None, cloud=self.cloud, admin=admin,
            certificate=None, public_key=public_key, sealed_msk=sealed_msk,
            rng=self.rng, workers=self._workers, enclave_config=config,
        )
        return Shard(index=index, shard_id=f"shard-{index}", system=system)

    def _provision_from(self, source: Shard, target: Shard) -> None:
        """Migrate the MSK to ``target`` via mutual attestation, retrying
        the whole exchange on transient (injected) failures."""
        def attempt():
            return provision_master_secret(
                source.enclave, target.enclave, self.ias, self.public_key)

        target.system.sealed_msk = self.retry_policy.run(
            attempt, label=f"provision:{target.shard_id}")
        target.attested = True

    # -- routing ----------------------------------------------------------------

    @property
    def nshards(self) -> int:
        return len(self.shards)

    def owner(self, group_id: str) -> int:
        """Index of the shard owning ``group_id``."""
        return self.ring.owner(group_id)

    def _serving_shard(self, group_id: str) -> Shard:
        """The owning shard, respawned and re-attested if found dead.

        This is the failover path: detection happens on the routed
        operation itself, *before* the group scope is entered, so the
        recovery handshake's randomness stays in the control scope.
        """
        shard = self.shards[self.owner(group_id)]
        if not shard.alive:
            self.respawn_shard(shard.index)
        if not shard.attested:
            raise EnclaveError(
                f"{shard.shard_id} has not completed attestation")
        return shard

    # -- group operations (each runs in its group's rng scope) ------------------

    def create_group(self, group_id: str, members: List[str]):
        shard = self._serving_shard(group_id)
        with self.rng.scoped(f"group:{group_id}"):
            state = shard.admin.create_group(group_id, members)
        self._groups[group_id] = shard.index
        return state

    def add_user(self, group_id: str, identity: str):
        shard = self._serving_shard(group_id)
        with self.rng.scoped(f"group:{group_id}"):
            return shard.admin.add_user(group_id, identity)

    def add_users(self, group_id: str, identities: List[str]):
        shard = self._serving_shard(group_id)
        with self.rng.scoped(f"group:{group_id}"):
            return shard.admin.add_users(group_id, identities)

    def remove_user(self, group_id: str, identity: str):
        shard = self._serving_shard(group_id)
        with self.rng.scoped(f"group:{group_id}"):
            return shard.admin.remove_user(group_id, identity)

    def rekey(self, group_id: str) -> None:
        shard = self._serving_shard(group_id)
        with self.rng.scoped(f"group:{group_id}"):
            shard.admin.rekey(group_id)

    def delete_group(self, group_id: str) -> None:
        shard = self._serving_shard(group_id)
        with self.rng.scoped(f"group:{group_id}"):
            shard.admin.delete_group(group_id)
        self._groups.pop(group_id, None)

    def group_state(self, group_id: str):
        return self._serving_shard(group_id).admin.group_state(group_id)

    def group_ids(self) -> List[str]:
        return sorted(self._groups)

    # -- clients ----------------------------------------------------------------

    def user_key(self, identity: str):
        """Provision (and cache) a user's IBBE secret key.

        Extraction is deterministic in (MSK, identity), so any live
        shard gives the same key; the certificate-wrapped Fig. 3 channel
        belongs to the Auditor deployment, not the sharded one.
        """
        if identity not in self._user_keys:
            from repro import ibbe as _ibbe
            from repro.pairing.group import G1Element

            shard = next(s for s in self.shards if s.alive and s.attested)
            raw = shard.enclave.call("extract_user_key_raw", identity)
            self._user_keys[identity] = _ibbe.IbbeUserKey(
                identity=identity,
                element=G1Element.decode(self.pairing_group, raw),
            )
        return self._user_keys[identity]

    @property
    def verification_key(self):
        return self.shards[0].admin.verification_key

    def make_client(self, group_id: str, identity: str) -> GroupClient:
        """A client of ``group_id``; syncs hit the shared cloud store, so
        clients are oblivious to shard placement and failover."""
        client = GroupClient(
            group_id=group_id,
            identity=identity,
            user_key=self.user_key(identity),
            public_key=self.public_key,
            cloud=self.cloud,
            admin_verification_key=self.verification_key,
        )
        self._clients.append(client)
        return client

    # -- failure and recovery ---------------------------------------------------

    def kill_shard(self, index: int) -> None:
        """Crash a shard in place: its enclave is destroyed (EPC freed,
        secrets scrubbed) but its device — sealed blobs' fuse key and the
        monotonic counters — survives, as on a real machine."""
        shard = self.shards[index]
        shard.enclave.destroy()
        shard.alive = False
        shard.attested = False

    def respawn_shard(self, index: int) -> Shard:
        """Bring a dead shard back: restart the enclave from its measured
        config + sealed MSK, roll cached group state forward from the
        cloud journal, and re-attest to a live peer before serving."""
        shard = self.shards[index]
        shard.system.restart_enclave()
        shard.alive = True
        shard.respawns += 1
        peer = next(
            (s for s in self.shards
             if s.index != index and s.alive and s.attested), None)
        if peer is not None:
            self.retry_policy.run(
                lambda: mutual_attest(peer.enclave, shard.enclave, self.ias),
                label=f"reattest:{shard.shard_id}",
            )
        # With no live peer (or N=1) the sealed MSK is the trust anchor:
        # only the genuine measured build on this device can unseal it.
        shard.attested = True
        return shard

    # -- health -----------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Probe every shard (a cheap ecall) and report worst-of status:
        ``ok`` when all shards serve, ``degraded`` otherwise."""
        shards = []
        all_ok = True
        for shard in self.shards:
            probe_ok = True
            try:
                shard.enclave.call("get_public_key")
            except EnclaveError:
                probe_ok = False
            ok = probe_ok and shard.alive and shard.attested
            all_ok = all_ok and ok
            shards.append({
                "shard": shard.shard_id,
                "alive": shard.alive and probe_ok,
                "attested": shard.attested,
                "respawns": shard.respawns,
                "groups": sorted(g for g, i in self._groups.items()
                                 if i == shard.index),
            })
        return {"status": "ok" if all_ok else "degraded",
                "nshards": self.nshards, "shards": shards}

    # -- observability ----------------------------------------------------------

    def metric_sources(self) -> List[MetricSource]:
        """The shared cloud registry, every shard's enclave + admin
        registries, and each client's registry.  Names collide across
        shards (merged views keep the last shard's ``sgx.*`` numbers);
        use :meth:`total_crossings` for deployment-wide sums."""
        sources: List[MetricSource] = [self.cloud.metrics.registry]
        for shard in self.shards:
            sources.append(shard.enclave.meter.registry)
            sources.append(shard.admin.metrics.registry)
        sources.extend(client.registry for client in self._clients)
        return sources

    def total_crossings(self) -> int:
        """Enclave boundary crossings summed over all shards (the merge
        in :meth:`telemetry` overwrites same-named counters instead)."""
        return sum(shard.enclave.meter.crossings for shard in self.shards)

    def telemetry(self) -> Dict[str, Any]:
        return telemetry_snapshot(self.metric_sources())

    def close(self) -> None:
        for client in self._clients:
            closer = getattr(client, "close", None)
            if closer is not None:
                closer()
        self._clients.clear()
        for shard in self.shards:
            shard.enclave.destroy()
            shard.alive = False
