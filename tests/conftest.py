"""Shared fixtures.

Cryptographic setup is expensive, so pairing groups, IBBE systems and the
fully wired quickstart system are session-scoped.  Tests that mutate state
build their own instances from the cheap factories below.
"""

from __future__ import annotations

import pytest

from repro import ibbe, quickstart_system
from repro.crypto.rng import DeterministicRng
from repro.pairing import PairingGroup, toy64


@pytest.fixture(scope="session")
def group() -> PairingGroup:
    """Toy (insecure, fast) type-A pairing group."""
    return PairingGroup(toy64())


@pytest.fixture(scope="session")
def ibbe_system(group):
    """A shared IBBE system with bound m=8: (msk, pk)."""
    rng = DeterministicRng("conftest-ibbe")
    return ibbe.setup(group, m=8, rng=rng)


@pytest.fixture(scope="session")
def user_keys(group, ibbe_system):
    """Extracted user keys for a stable cast of identities."""
    msk, pk = ibbe_system
    cast = [f"user{i}" for i in range(8)] + ["mallory", "newcomer"]
    return {u: ibbe.extract(msk, pk, u) for u in cast}


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return DeterministicRng("per-test")


def make_system(seed: str = "sys", capacity: int = 4,
                auto_repartition: bool = True, system_bound: int = 16):
    """Factory for a full IBBE-SGX deployment on toy parameters."""
    return quickstart_system(
        partition_capacity=capacity,
        params="toy64",
        rng=DeterministicRng(seed),
        auto_repartition=auto_repartition,
        system_bound=max(system_bound, capacity),
    )


@pytest.fixture(scope="session")
def shared_system():
    """A session-scoped deployment for read-mostly tests.

    Tests performing membership mutations must create their own system via
    :func:`make_system` (exposed through the ``system_factory`` fixture).
    """
    return make_system("shared")


@pytest.fixture()
def system_factory():
    return make_system
