"""The enclave abstraction and its trust boundary.

An :class:`Enclave` subclass is the unit of shielded code.  Methods marked
with the :func:`ecall` decorator are the *only* entry points callable from
untrusted code; everything else (attributes holding the master secret,
helper methods) is behind the boundary.

Dispatch is *typed*: every enclave class owns an :class:`EcallRegistry`
holding one :class:`EcallDescriptor` (name, handler, batchable flag) per
entry point.  Untrusted code reaches the enclave through two doors:

* :meth:`Enclave.call` — one ecall, one boundary crossing;
* :meth:`Enclave.call_batch` — N ecalls in **one** accounted crossing,
  the HotCalls-style amortization the paper's §III-B boundary-cost
  argument calls for.  Only descriptors marked ``batchable`` may ride in
  a batch, and the leak scanner still runs on every individual result.
  Within a batch, an argument may be a :class:`ResultRef` referencing an
  earlier call's result, so dependent calls (extend the ciphertext that
  call #0 just produced) need not bounce back across the boundary.

Each real-world ecall/ocall transition costs ~8k cycles (HotCalls); the
:class:`CrossingMeter` on every enclave counts crossings, logical
ecalls/ocalls and estimated cycles in one place for the benchmarks.

:meth:`Enclave.load` (ECREATE/EINIT) hands untrusted code an
:class:`EnclaveHandle` — a proxy exposing only the call doors, ocall
registration, lifecycle and the public identity/counters.  Direct
attribute access to anything else raises :class:`EnclaveError`,
approximating the hardware's memory isolation within the limits of a
single-process simulation.  Trusted-side tests may unwrap a handle with
:func:`trusted_view` (a simulation escape hatch, not part of the model).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.rng import Rng
from repro.errors import EnclaveError
from repro.obs.metrics import CounterField, MetricRegistry
from repro.obs.spans import span as _span
from repro.sgx.device import SgxDevice
from repro.sgx.measurement import measure_enclave
from repro.sgx.quote import REPORT_DATA_SIZE, Quote
from repro.sgx.sealing import POLICY_MRENCLAVE, seal, unseal

ECALL_CROSSING_CYCLES = 8_000  # HotCalls: ~8k cycles per enclave transition

_enclave_counter = itertools.count(1)


def ecall(func: Optional[Callable] = None, *,
          batchable: bool = False) -> Callable:
    """Mark a method as an enclave entry point.

    Supports both ``@ecall`` and ``@ecall(batchable=True)``.  Batchable
    entry points may be executed through :meth:`Enclave.call_batch`,
    amortizing the boundary crossing over many calls.
    """
    def mark(target: Callable) -> Callable:
        target.__is_ecall__ = True
        target.__ecall_batchable__ = batchable

        @functools.wraps(target)
        def wrapper(self, *args, **kwargs):
            return target(self, *args, **kwargs)

        wrapper.__is_ecall__ = True
        wrapper.__ecall_batchable__ = batchable
        return wrapper

    if func is None:
        return mark
    return mark(func)


@dataclass(frozen=True)
class EcallDescriptor:
    """Typed dispatch entry for one enclave entry point."""

    name: str
    handler: Callable[..., Any]
    batchable: bool = False


class EcallRegistry:
    """Per-enclave-class table of :class:`EcallDescriptor` entries.

    Built once per class (cached on the class object) by scanning for
    :func:`ecall`-decorated methods; replaces the historical string
    ``getattr`` dispatch so the set of entry points is an explicit,
    inspectable artifact of the trusted code.
    """

    def __init__(self, entries: Dict[str, EcallDescriptor]) -> None:
        self._entries = dict(entries)

    @classmethod
    def for_class(cls, enclave_cls: type) -> "EcallRegistry":
        cached = enclave_cls.__dict__.get("__ecall_registry__")
        if cached is not None:
            return cached
        entries: Dict[str, EcallDescriptor] = {}
        for name in dir(enclave_cls):
            member = getattr(enclave_cls, name, None)
            if callable(member) and getattr(member, "__is_ecall__", False):
                entries[name] = EcallDescriptor(
                    name=name,
                    handler=member,
                    batchable=getattr(member, "__ecall_batchable__", False),
                )
        registry = cls(entries)
        type.__setattr__(enclave_cls, "__ecall_registry__", registry)
        return registry

    def resolve(self, name: str) -> EcallDescriptor:
        descriptor = self._entries.get(name)
        if descriptor is None:
            raise EnclaveError(f"{name!r} is not a registered ecall")
        return descriptor

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class CrossingMeter:
    """Boundary-crossing accounting (ecalls, ocalls, estimated cycles).

    One crossing is one accounted enclave transition: a single
    :meth:`Enclave.call`, one whole :meth:`Enclave.call_batch`, or one
    ocall.  Benchmarks read crossings and cycle estimates from here
    instead of re-deriving them from per-call counters.

    The authoritative values live in a ``repro.obs``
    :class:`~repro.obs.MetricRegistry` under the ``sgx.*`` namespace; the
    meter's attributes read and write its counters, so call sites and
    the consolidated telemetry view stay in lockstep by construction.
    """

    crossings = CounterField("sgx.crossings")
    ecalls = CounterField("sgx.ecalls")
    ocalls = CounterField("sgx.ocalls")
    batches = CounterField("sgx.batches")

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        for name in ("sgx.crossings", "sgx.ecalls", "sgx.ocalls",
                     "sgx.batches"):
            self.registry.counter(name)
        self.registry.gauge(
            "sgx.estimated_cycles",
            lambda: self.crossings * ECALL_CROSSING_CYCLES,
        )

    def record_call(self) -> None:
        self.crossings += 1
        self.ecalls += 1

    def record_batch(self, n_calls: int) -> None:
        self.crossings += 1
        self.batches += 1
        self.ecalls += n_calls

    def record_ocall(self) -> None:
        self.crossings += 1
        self.ocalls += 1

    @property
    def estimated_cycles(self) -> int:
        return self.crossings * ECALL_CROSSING_CYCLES

    def reset(self) -> None:
        self.registry.reset()

    def __repr__(self) -> str:
        return (f"CrossingMeter(crossings={self.crossings}, "
                f"ecalls={self.ecalls}, ocalls={self.ocalls}, "
                f"batches={self.batches})")


@dataclass(frozen=True)
class ResultRef:
    """Placeholder argument inside a batch: 'the result of call #i'.

    ``attr`` optionally selects an attribute of that result (e.g. the
    ``ciphertext`` field of a partition blob), so a dependent call can be
    expressed without leaving the enclave between the two.
    """

    index: int
    attr: Optional[str] = None

    def resolve(self, results: Sequence[Any]) -> Any:
        if not 0 <= self.index < len(results):
            raise EnclaveError(
                f"batch argument references call #{self.index}, which has "
                "not executed yet"
            )
        value = results[self.index]
        if self.attr is not None:
            value = getattr(value, self.attr)
        return value


def resolve_batch_args(args: Iterable[Any],
                       results: Sequence[Any]) -> Tuple[Any, ...]:
    """Materialize :class:`ResultRef` placeholders against prior results."""
    return tuple(
        arg.resolve(results) if isinstance(arg, ResultRef) else arg
        for arg in args
    )


#: A batch entry: ``(name, args)`` or ``(name, args, kwargs)``.
BatchRequest = Tuple[Any, ...]


class Enclave:
    """Base class for shielded code units.

    Subclasses declare ``VERSION`` (part of the measurement) and implement
    ecalls.  Instantiate via :meth:`load`, which mimics ECREATE/EINIT and
    returns the untrusted-side :class:`EnclaveHandle`.
    """

    VERSION = "1.0"

    #: Config keys excluded from the measurement: runtime tuning knobs
    #: (worker counts) that change performance but
    #: never results.  Real MRENCLAVE likewise covers code and data pages,
    #: not launch-time thread configuration — and sealing policy demands
    #: it: data sealed by a deployment must remain unsealable after a
    #: restart with a different knob setting.
    UNMEASURED_CONFIG: frozenset = frozenset()

    def __init__(self, device: SgxDevice,
                 config: Optional[Dict[str, object]] = None) -> None:
        self.device = device
        self.config = dict(config or {})
        self.measurement = measure_enclave(
            type(self), self.VERSION,
            {k: v for k, v in self.config.items()
             if k not in self.UNMEASURED_CONFIG},
        )
        self.enclave_id = next(_enclave_counter)
        self.meter = CrossingMeter()
        self._secret_values: List[bytes] = []
        self._epc_regions: List[int] = []
        self._ocall_handlers: Dict[str, Callable[..., Any]] = {}
        self._initialized = False

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def load(cls, device: SgxDevice,
             config: Optional[Dict[str, object]] = None) -> "EnclaveHandle":
        """ECREATE + EINIT: construct, initialize, return the handle.

        The returned :class:`EnclaveHandle` is the untrusted-side view;
        only the boundary API is reachable through it.
        """
        enclave = cls(device, config)
        enclave._initialized = True
        enclave.on_load()
        return EnclaveHandle(enclave)

    def on_load(self) -> None:
        """Hook run after initialization (inside the boundary)."""

    def destroy(self) -> None:
        """EREMOVE: free EPC regions and wipe secrets."""
        for handle in self._epc_regions:
            self.device.epc.free(handle)
        self._epc_regions.clear()
        self._secret_values.clear()
        self._initialized = False

    # -- trusted-side services --------------------------------------------------

    @property
    def rng(self) -> Rng:
        """In-enclave randomness (RDRAND equivalent)."""
        return self.device.rng

    @property
    def registry(self) -> EcallRegistry:
        """This enclave class's typed ecall dispatch table."""
        return EcallRegistry.for_class(type(self))

    #: Leak-scanner window: only the most recent secrets are checked, so the
    #: per-ecall scan stays O(1) across long benchmark runs.
    MAX_TRACKED_SECRETS = 32

    def track_secret(self, value: bytes) -> bytes:
        """Register a byte string as secret for the leak scanner."""
        if value:
            self._secret_values.append(bytes(value))
            if len(self._secret_values) > self.MAX_TRACKED_SECRETS:
                del self._secret_values[0]
        return value

    def seal_data(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Seal to this enclave's identity (MRENCLAVE policy)."""
        return seal(
            self.device.sealing_root_key(), self.measurement, plaintext,
            self.rng, policy=POLICY_MRENCLAVE, aad=aad,
        )

    def unseal_data(self, blob: bytes, aad: bytes = b"") -> bytes:
        return unseal(
            self.device.sealing_root_key(), self.measurement, blob, aad=aad
        )

    def get_quote(self, report_data: bytes) -> Quote:
        """Ask the platform to sign a quote over this enclave's state."""
        padded = report_data.ljust(REPORT_DATA_SIZE, b"\x00")
        if len(padded) != REPORT_DATA_SIZE:
            raise EnclaveError("report data exceeds 64 bytes")
        return self.device.sign_quote(self.measurement, padded)

    def epc_allocate(self, nbytes: int) -> int:
        handle = self.device.epc.allocate(nbytes)
        self._epc_regions.append(handle)
        return handle

    def epc_touch(self, handle: int, nbytes: int, write: bool = False) -> None:
        self.device.epc.touch(handle, nbytes, write=write)

    def register_ocall(self, name: str, handler: Callable[..., Any]) -> None:
        """Untrusted side registers an ocall handler (e.g. persistence)."""
        self._ocall_handlers[name] = handler

    def ocall(self, name: str, *args: Any) -> Any:
        """Leave the enclave to run an untrusted service routine."""
        handler = self._ocall_handlers.get(name)
        if handler is None:
            raise EnclaveError(f"no ocall handler registered for {name!r}")
        self.meter.record_ocall()
        with _span("sgx.ocall", ocall=name):
            return handler(*args)

    # -- the boundary ------------------------------------------------------------

    def call(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke one ecall from untrusted code (one boundary crossing).

        Resolves the target through the typed registry, counts the
        crossing, and scans the return value for registered secrets.
        """
        self._require_initialized()
        descriptor = self.registry.resolve(name)
        self.meter.record_call()
        with _span("sgx.ecall", ecall=name):
            result = descriptor.handler(self, *args, **kwargs)
        self._scan_for_leaks(result, name)
        return result

    def call_batch(self, requests: Sequence[BatchRequest]) -> List[Any]:
        """Execute N batchable ecalls in ONE accounted boundary crossing.

        ``requests`` is a sequence of ``(name, args)`` or
        ``(name, args, kwargs)`` entries.  All targets are validated (and
        must be declared ``batchable``) before anything executes; the
        calls then run in order inside the boundary, each result passing
        through the leak scanner individually.  Positional arguments may
        be :class:`ResultRef` placeholders referencing earlier results.

        Returns the per-call results in request order.
        """
        self._require_initialized()
        ops: List[Tuple[EcallDescriptor, Tuple[Any, ...], Dict[str, Any]]] = []
        for request in requests:
            name, args, kwargs = _unpack_request(request)
            descriptor = self.registry.resolve(name)
            if not descriptor.batchable:
                raise EnclaveError(
                    f"ecall {name!r} is not batchable; invoke it through "
                    "call() instead"
                )
            ops.append((descriptor, args, kwargs))
        if not ops:
            return []
        self.meter.record_batch(len(ops))
        results: List[Any] = []
        with _span("sgx.batch", ops=len(ops)):
            for descriptor, args, kwargs in ops:
                resolved = resolve_batch_args(args, results)
                result = descriptor.handler(self, *resolved, **kwargs)
                self._scan_for_leaks(result, descriptor.name)
                results.append(result)
        return results

    def _require_initialized(self) -> None:
        if not self._initialized:
            raise EnclaveError("enclave is not initialized (or was destroyed)")

    def _scan_for_leaks(self, value: Any, ecall_name: str) -> None:
        """Assert no registered secret appears verbatim in an ecall result.

        A simulation-level guard, not a security mechanism: it catches
        programming mistakes where plaintext key material would leave the
        boundary, which is the property the zero-knowledge tests assert.
        """
        for blob in _iter_bytes(value):
            for secret in self._secret_values:
                if secret and secret in blob:
                    raise EnclaveError(
                        f"ecall {ecall_name!r} attempted to leak secret "
                        "material across the enclave boundary"
                    )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(id={self.enclave_id}, "
            f"measurement={self.measurement.hex()[:16]}…)"
        )


#: Attributes of the loaded enclave that untrusted code may reach.  The
#: boundary API (call doors, ocall registration, lifecycle) plus public,
#: non-secret identity and accounting data: the measurement is the
#: MRENCLAVE value attested in every quote, ``device``/``config`` are
#: untrusted-side inputs that the untrusted runtime supplied at load, and
#: the crossing meter exists precisely for untrusted benchmarks.
HANDLE_ATTRS = frozenset({
    "call", "call_batch", "register_ocall", "destroy",
    "measurement", "enclave_id", "device", "config",
    "meter", "registry",
})


class EnclaveHandle:
    """Untrusted-side proxy enforcing the documented enclave isolation.

    :meth:`Enclave.load` returns this instead of the enclave object, so
    untrusted code can only reach :data:`HANDLE_ATTRS` — notably the two
    call doors and the crossing meter.  Any other attribute access
    raises :class:`EnclaveError`, approximating EPC memory isolation.
    """

    __slots__ = ("_enclave",)

    def __init__(self, enclave: Enclave) -> None:
        object.__setattr__(self, "_enclave", enclave)

    def __getattr__(self, name: str) -> Any:
        if name in HANDLE_ATTRS:
            return getattr(object.__getattribute__(self, "_enclave"), name)
        raise EnclaveError(
            f"attribute {name!r} is behind the enclave boundary; untrusted "
            "code may only use call()/call_batch(), register_ocall(), "
            "destroy() and the public counters"
        )

    def __setattr__(self, name: str, value: Any) -> None:
        raise EnclaveError(
            "untrusted code cannot write enclave memory through the handle"
        )

    def __repr__(self) -> str:
        return f"EnclaveHandle({object.__getattribute__(self, '_enclave')!r})"


def trusted_view(enclave: Any) -> Enclave:
    """Unwrap an :class:`EnclaveHandle` to the in-boundary object.

    A simulation escape hatch for code standing *inside* the trust
    boundary (the enclave's own unit tests, white-box security assertions
    that inspect tracked secrets).  System code must never call this —
    doing so would model a physical memory-read attack SGX excludes.
    """
    if isinstance(enclave, EnclaveHandle):
        return object.__getattribute__(enclave, "_enclave")
    if isinstance(enclave, Enclave):
        return enclave
    raise EnclaveError(f"not an enclave or enclave handle: {enclave!r}")


def _unpack_request(request: BatchRequest) -> Tuple[str, Tuple[Any, ...],
                                                    Dict[str, Any]]:
    if not isinstance(request, (tuple, list)) or not request:
        raise EnclaveError(f"malformed batch request: {request!r}")
    name = request[0]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = {}
    if len(request) >= 2:
        args = tuple(request[1])
    if len(request) == 3:
        kwargs = dict(request[2])
    if len(request) > 3 or not isinstance(name, str):
        raise EnclaveError(f"malformed batch request: {request!r}")
    return name, args, kwargs


def _iter_bytes(value: Any):
    """Yield every bytes-like leaf in a nested result structure."""
    if isinstance(value, (bytes, bytearray)):
        yield bytes(value)
    elif isinstance(value, (list, tuple, set)):
        for item in value:
            yield from _iter_bytes(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _iter_bytes(item)
