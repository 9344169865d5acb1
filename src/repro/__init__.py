"""IBBE-SGX — cryptographic group access control using trusted execution
environments.

A from-scratch Python reproduction of Contiu et al., DSN 2018.

Quickstart::

    from repro import quickstart_system

    system = quickstart_system(partition_capacity=4)
    admin, cloud = system.admin, system.cloud
    admin.create_group("team", ["alice", "bob", "carol"])
    alice = system.make_client("team", "alice")
    alice.sync()
    gk = alice.current_group_key()   # 32-byte shared group key

See the ``examples/`` directory for end-to-end scenarios and ``DESIGN.md``
for the architecture and experiment index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cloud import CloudStore, CloudStoreProtocol, LatencyModel
from repro.core import GroupAdministrator, GroupClient
from repro.crypto import DeterministicRng, Rng, SystemRng
from repro.crypto import ecdsa
from repro.enclave_app import IbbeEnclave
from repro.errors import ReproError
from repro.net import RemoteCloudStore, StoreServer, connect_store
from repro.obs import (
    MetricRegistry,
    MetricSource,
    Span,
    Tracer,
    merge_snapshots,
    telemetry_snapshot,
    tracer,
)
from repro.pairing import PairingGroup, preset, std160, toy64
from repro.sgx import (
    Auditor,
    IntelAttestationService,
    SgxDevice,
    provision_user_key,
    setup_trust,
)
from repro.shard import ShardedSystem

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "CloudStore",
    "CloudStoreProtocol",
    "RemoteCloudStore",
    "StoreServer",
    "connect_store",
    "LatencyModel",
    "GroupAdministrator",
    "GroupClient",
    "IbbeEnclave",
    "PairingGroup",
    "preset",
    "toy64",
    "std160",
    "SgxDevice",
    "IntelAttestationService",
    "Auditor",
    "System",
    "quickstart_system",
    "ShardedSystem",
    "MetricRegistry",
    "MetricSource",
    "Span",
    "Tracer",
    "merge_snapshots",
    "telemetry_snapshot",
    "tracer",
]


@dataclass
class System:
    """A fully wired IBBE-SGX deployment (device, enclave, trust chain,
    administrator, cloud) — the paper's Fig. 5 in one object.

    Convenience for examples, tests and benchmarks; production-style code
    can compose the parts directly.
    """

    group: PairingGroup
    device: SgxDevice
    enclave: IbbeEnclave
    ias: IntelAttestationService
    auditor: Auditor
    cloud: CloudStore
    admin: GroupAdministrator
    certificate: object
    public_key: object
    sealed_msk: bytes
    rng: Rng
    #: Parallel-engine worker count the enclave was configured with
    #: (``repro.par``; 1 = serial).  Results are byte-identical for any
    #: value — this changes wall-clock only.
    workers: int = 1
    #: The enclave's load-time configuration, kept so the deployment can
    #: survive a full enclave restart (:meth:`restart_enclave`).
    enclave_config: Optional[Dict[str, Any]] = None
    _user_keys: Dict[str, object] = field(default_factory=dict)
    _clients: List[GroupClient] = field(default_factory=list)

    def user_key(self, identity: str):
        """Provision (and cache) a user's IBBE secret key via the attested
        channel of Fig. 3."""
        if identity not in self._user_keys:
            from repro import ibbe as _ibbe
            from repro.pairing.group import G1Element

            raw = provision_user_key(
                self.enclave, self.certificate, self.auditor.ca_public_key,
                identity, self.rng,
            )
            self._user_keys[identity] = _ibbe.IbbeUserKey(
                identity=identity,
                element=G1Element.decode(self.group, raw),
            )
        return self._user_keys[identity]

    def make_client(self, group_id: str, identity: str) -> GroupClient:
        client = GroupClient(
            group_id=group_id,
            identity=identity,
            user_key=self.user_key(identity),
            public_key=self.public_key,
            cloud=self.cloud,
            admin_verification_key=self.admin.verification_key,
        )
        self._clients.append(client)
        return client

    # -- observability ----------------------------------------------------------

    def metric_sources(self) -> List[MetricSource]:
        """Every :class:`~repro.obs.MetricSource` in this deployment:
        the enclave's ``sgx.*`` meter, the cloud's ``cloud.*`` metrics,
        the administrator's ``admin.*`` registry (which includes its
        cache accounting) and each client's ``client.*`` registry."""
        sources: List[MetricSource] = [
            self.enclave.meter.registry,
            self.cloud.metrics.registry,
            self.admin.metrics.registry,
        ]
        from repro.ec import precomp_registry
        sources.append(precomp_registry)
        sources.extend(client.registry for client in self._clients)
        return sources

    def set_workers(self, workers: int) -> int:
        """Reconfigure the enclave's parallel-engine worker count at
        runtime (the pool restarts lazily).  Returns the new count."""
        count = self.enclave.call("set_workers", workers)
        self.workers = count
        return count

    def restart_enclave(self) -> None:
        """Full enclave restart: destroy → fresh load → unseal → reload.

        Models the recovery a real deployment runs after an enclave
        crash, host reboot, or migration (the seamless-restart story of
        ReplicaTEE): the running enclave is torn down, a new one is
        loaded with the *same measured configuration*, the sealed MSK is
        unsealed back into it, and the administrator's cached group
        state is rebuilt from cloud metadata.  Sealing and the attested
        identity key are bound to the measurement, not the instance, so
        the existing certificate remains valid and no re-attestation is
        needed.
        """
        from repro.errors import EnclaveError

        if self.enclave_config is None:
            raise EnclaveError(
                "this System does not carry its enclave configuration; "
                "build it via quickstart_system() to enable restarts"
            )
        group_ids = self.admin.cache.group_ids()
        self.enclave.destroy()
        enclave = IbbeEnclave.load(self.device, self.enclave_config)
        enclave.call("restore_system", self.sealed_msk, self.public_key)
        self.enclave = enclave
        self.admin.enclave = enclave
        for group_id in group_ids:
            self.admin.cache.drop(group_id)
            self.admin.load_group_from_cloud(group_id)

    def close(self) -> None:
        """Tear the deployment down: destroys the enclave, which shuts
        down its worker pool and scrubs tracked secrets.  Idempotent."""
        for client in self._clients:
            closer = getattr(client, "close", None)
            if closer is not None:
                closer()
        self.enclave.destroy()

    def telemetry(self) -> Dict[str, Any]:
        """Aggregated observability snapshot of the whole deployment.

        Returns ``{"metrics": {dotted name: value}, "trace": {...}}`` —
        the merged :meth:`metric_sources` plus a summary of the spans the
        global tracer has collected (empty unless tracing is enabled via
        ``repro.obs.enable()`` or ``REPRO_TELEMETRY=1``).  Client
        registries share the ``client.*`` names, so with several clients
        the merged view reflects the most recently created one; read
        ``client.registry`` directly for per-client numbers.
        """
        return telemetry_snapshot(self.metric_sources())

    def reset_metrics(self) -> None:
        """Zero every metric source (spans are left to the tracer)."""
        for source in self.metric_sources():
            source.reset()


def quickstart_system(partition_capacity: int = 1000,
                      params: str = "std160",
                      rng: Optional[Rng] = None,
                      latency: Optional[LatencyModel] = None,
                      auto_repartition: bool = True,
                      system_bound: Optional[int] = None,
                      pipeline: bool = True,
                      workers: Optional[int] = None) -> System:
    """Stand up a complete single-admin deployment.

    Performs manufacturing (device + IAS registration), enclave load,
    system setup (Fig. 6a), auditing and certification (Fig. 3), and wires
    an administrator to a fresh cloud store.

    ``system_bound`` is the enclave's maximal partition size ``m`` (the
    IBBE public key is linear in it); it defaults to ``partition_capacity``
    and must be raised at setup time if partitions may later grow (e.g.
    under the adaptive-sizing extension).

    ``pipeline`` selects the administrator's batched operation pipeline
    (one enclave crossing + one cloud commit per mutation, the default);
    ``pipeline=False`` replays the sequential call-per-ecall,
    request-per-object behaviour for comparison.

    ``workers`` configures the enclave's parallel engine (:mod:`repro.par`)
    for partition-independent work — ``None`` defers to ``REPRO_WORKERS``,
    else serial.  Any worker count produces byte-identical results.
    """
    rng = rng or SystemRng()
    pairing_group = PairingGroup(preset(params))
    device = SgxDevice(rng=rng)
    ias = IntelAttestationService(rng=rng)
    ias.register_device(device.device_id, device.attestation_public_key)
    auditor = Auditor(ias, rng=rng)
    # The CA key is pinned in the enclave configuration (hence in its
    # measurement): the enclave will release its master secret only to
    # peers certified under this exact CA (see core.multiadmin).
    from repro.par import resolve_workers
    worker_count = resolve_workers(workers)
    enclave_config = {
        "pairing_group": pairing_group,
        "ca_public_key": auditor.ca_public_key.encode().hex(),
        "workers": worker_count,
    }
    enclave = IbbeEnclave.load(device, enclave_config)
    auditor.approve_measurement(enclave.measurement)
    certificate = setup_trust(enclave, auditor)
    public_key, sealed_msk = enclave.call(
        "setup_system", system_bound or partition_capacity
    )
    cloud = CloudStore(latency=latency)
    admin = GroupAdministrator(
        enclave=enclave,
        cloud=cloud,
        signing_key=ecdsa.generate_keypair(rng),
        partition_capacity=partition_capacity,
        rng=rng,
        auto_repartition=auto_repartition,
        pipeline=pipeline,
    )
    return System(
        group=pairing_group, device=device, enclave=enclave, ias=ias,
        auditor=auditor, cloud=cloud, admin=admin, certificate=certificate,
        public_key=public_key, sealed_msk=sealed_msk, rng=rng,
        workers=worker_count, enclave_config=enclave_config,
    )
