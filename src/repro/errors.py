"""Exception hierarchy for the IBBE-SGX reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors such as
``TypeError``.

Wire mapping: each class carries a stable string :attr:`~ReproError.code`
(``"conflict"``, ``"not_found"``, ...) used by the network serving layer
(:mod:`repro.net`) to carry errors across the store protocol without
pickling exception objects.  Codes are part of the wire contract — they
never change once released, even if a class is renamed.  Use
:func:`error_code` to read the code of an exception instance and
:func:`error_for_code` to reconstruct the closest matching exception on
the receiving side (unknown codes degrade to plain :class:`ReproError`).

Argument-validation failures raise :class:`ValidationError`.
"""

from __future__ import annotations

from typing import Dict, Type


class ReproError(Exception):
    """Base class for all errors raised by this package."""

    #: Stable wire code (see the module docstring); subclasses override.
    code = "internal"


class ParameterError(ReproError):
    """Invalid or inconsistent cryptographic parameters."""

    code = "parameter"


class ValidationError(ReproError):
    """Invalid argument to a library API (non-crypto misuse)."""

    code = "validation"


class MathError(ReproError):
    """Number-theoretic operation failed (e.g. non-invertible element)."""

    code = "math"


class CurveError(ReproError):
    """A point is not on the expected curve or group operation failed."""

    code = "curve"


class PairingError(ReproError):
    """Pairing computation received degenerate or mismatched inputs."""

    code = "pairing"


class CryptoError(ReproError):
    """Symmetric or public-key primitive failure."""

    code = "crypto"


class AuthenticationError(CryptoError):
    """An authenticated decryption or signature verification failed."""

    code = "authentication"


class SchemeError(ReproError):
    """IBE/IBBE scheme misuse (wrong key, user not in broadcast set, ...)."""

    code = "scheme"


class EnclaveError(ReproError):
    """SGX substrate failure (sealing, measurement, boundary violation)."""

    code = "enclave"


class AttestationError(EnclaveError):
    """Attestation or provisioning protocol failure."""

    code = "attestation"


class SealingError(EnclaveError):
    """Sealed blob cannot be unsealed (wrong enclave, tampering, ...)."""

    code = "sealing"


class EPCError(EnclaveError):
    """Enclave Page Cache exhaustion or invalid page operation."""

    code = "epc"


class StorageError(ReproError):
    """Cloud storage substrate failure."""

    code = "storage"


class NotFoundError(StorageError):
    """Requested object or directory does not exist."""

    code = "not_found"


class UnavailableError(StorageError):
    """Transient storage outage: the request never reached the store and
    is safe to retry (the class :class:`~repro.faults.RetryPolicy`
    retries by default)."""

    code = "unavailable"


class StoreTimeoutError(UnavailableError):
    """A storage round trip timed out before completing.

    Injected only on *read* operations, where a retry is always safe; a
    timed-out write would leave the outcome ambiguous."""

    code = "timeout"


class TransientAttestationError(AttestationError, UnavailableError):
    """A *transient* attestation failure: the handshake never completed
    (an IAS round trip dropped, an injected ``attest_fail`` fault fired),
    so repeating the exchange from the top is always safe.

    Subclasses both :class:`AttestationError` (it *is* an attestation
    failure, so existing ``except AttestationError`` handlers see it)
    and :class:`UnavailableError` (the default ``retry_on`` tuple of
    :class:`~repro.faults.RetryPolicy` covers it, so mutual-attestation
    drivers retried through a policy absorb these automatically).
    """

    code = "attest_transient"


class ConflictError(StorageError):
    """Optimistic-concurrency version conflict on a storage object."""

    code = "conflict"


class WireError(StorageError):
    """Malformed traffic on the store network protocol (:mod:`repro.net`):
    oversized or truncated frames, invalid JSON, unknown methods."""

    code = "wire"


class ProtocolVersionError(WireError):
    """Client and server speak incompatible store-protocol versions."""

    code = "protocol_version"


class AccessControlError(ReproError):
    """Group access control system misuse (duplicate member, unknown group)."""

    code = "access_control"


class MembershipError(AccessControlError):
    """A membership operation references a user in an invalid state."""

    code = "membership"


class RevokedError(AccessControlError):
    """A revoked principal attempted an operation requiring membership."""

    code = "revoked"


class StaleMetadataError(AccessControlError):
    """The cloud served metadata older than previously observed — a
    rollback/freshness violation by the storage provider."""

    code = "stale_metadata"


class ParallelError(ReproError):
    """Misconfiguration or failure of the parallel execution engine
    (:mod:`repro.par`): invalid worker counts, dead worker pools."""

    code = "parallel"


class CrashError(ReproError):
    """Simulated process death at a named crash point (:mod:`repro.faults`).

    Raised by :func:`repro.faults.crash_point` when the active
    :class:`~repro.faults.FaultInjector` schedules a crash.  Nothing in
    the library catches it: it must unwind to the chaos driver, which
    models the recovery a freshly restarted process would run.
    """

    code = "crash"

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at {point!r}")
        self.point = point


# ---------------------------------------------------------------------------
# Wire code registry
# ---------------------------------------------------------------------------

def _build_code_registry() -> Dict[str, Type[ReproError]]:
    """``code -> class`` for every :class:`ReproError` subclass defined
    here.  Built from the classes themselves so a new error type cannot
    forget to be wire-mappable; duplicate codes are a programming error."""
    registry: Dict[str, Type[ReproError]] = {}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        existing = registry.get(cls.code)
        if existing is not None and not issubclass(cls, existing):
            raise RuntimeError(
                f"duplicate wire code {cls.code!r}: "
                f"{existing.__name__} vs {cls.__name__}"
            )
        # Prefer the most derived class only when codes genuinely
        # collide through inheritance (they should not); first wins.
        if cls.code not in registry:
            registry[cls.code] = cls
        stack.extend(cls.__subclasses__())
    return registry


CODE_REGISTRY: Dict[str, Type[ReproError]] = _build_code_registry()


def error_code(exc: BaseException) -> str:
    """The stable wire code for ``exc`` (``"internal"`` for anything that
    is not a :class:`ReproError`)."""
    if isinstance(exc, ReproError):
        return type(exc).code
    return ReproError.code


def error_for_code(code: str, message: str) -> ReproError:
    """Reconstruct the exception class registered for ``code``.

    Unknown codes (a newer server talking to an older client) degrade to
    a plain :class:`ReproError` carrying the code in its message, so the
    caller still sees the failure even if it cannot type-match it."""
    cls = CODE_REGISTRY.get(code)
    if cls is None:
        return ReproError(f"[{code}] {message}")
    try:
        return cls(message)
    except TypeError:  # pragma: no cover - defensive (odd __init__)
        return ReproError(f"[{code}] {message}")
