"""Ablation — the single cut that defines IBBE-SGX (§IV-B), plus the two
implementation optimizations this reproduction adds.

1. **MSK vs PK encryption**: having γ inside the enclave turns the O(n²)
   eq.-4 expansion into the O(n) eq.-3 product.  Head-to-head over the
   broadcast-set size.
2. **Incremental updates vs re-encryption**: A-E/A-F O(1) add/remove
   against the classic full re-encryption.
3. **Multi-exponentiation** (ours): interleaved multi-exp vs the
   PBC-style sequential exponentiations in PK-path assembly.
4. **Fixed-base precomputation** (ours): window tables for w/v/h, timed
   against variable-base exponentiation of the same bases.
"""

from __future__ import annotations

import pytest

from repro import ibbe
from repro.bench import format_seconds, time_call
from repro.crypto.rng import DeterministicRng
from repro.pairing.group import G1Element, GTElement

from conftest import scaled

SIZES = [32, 64, 128, 256]


@pytest.fixture(scope="module")
def setup_std(std_group):
    rng = DeterministicRng("ablation-msk")
    msk, pk = ibbe.setup(std_group, m=scaled(256), rng=rng)
    return msk, pk, rng


def test_msk_vs_pk_encryption(setup_std, sink, benchmark):
    msk, pk, rng = setup_std
    rows = []
    ratios = []
    for n in (scaled(s) for s in SIZES):
        members = [f"u{i}" for i in range(n)]
        _, t_pk = time_call(ibbe.encrypt_pk, pk, members, rng)
        _, t_msk = time_call(ibbe.encrypt_msk, msk, pk, members, rng)
        rows.append([n, format_seconds(t_pk), format_seconds(t_msk),
                     f"{t_pk / t_msk:.1f}x"])
        ratios.append((n, t_pk / t_msk))
    sink.table("Ablation: PK-path (classic IBBE) vs MSK-path (IBBE-SGX)",
               ["set size", "encrypt_pk", "encrypt_msk", "speedup"], rows)

    # The MSK path wins at every size, and its advantage grows with n
    # (constant #exps vs n exps + n² expansion).
    assert all(ratio > 2 for _, ratio in ratios)
    assert ratios[-1][1] > ratios[0][1]

    members = [f"u{i}" for i in range(scaled(64))]
    benchmark.pedantic(lambda: ibbe.encrypt_msk(msk, pk, members, rng),
                       rounds=1, iterations=1)


def test_incremental_vs_reencrypt(setup_std, sink, benchmark):
    msk, pk, rng = setup_std
    n = scaled(128)
    members = [f"u{i}" for i in range(n)]
    _, ct = ibbe.encrypt_msk(msk, pk, members, rng)

    _, t_add = time_call(ibbe.add_user_msk, msk, pk, ct, "new")
    _, t_remove = time_call(ibbe.remove_user_msk, msk, pk, ct,
                            members[0], rng)
    _, t_rekey = time_call(ibbe.rekey, pk, ct, rng)
    _, t_full_msk = time_call(ibbe.encrypt_msk, msk, pk, members, rng)
    _, t_full_pk = time_call(ibbe.reencrypt_pk, pk, members, rng)

    sink.table(
        f"Ablation: incremental updates vs re-encryption (n = {n})",
        ["operation", "latency"],
        [["add (A-E, O(1))", format_seconds(t_add)],
         ["remove (A-F, O(1))", format_seconds(t_remove)],
         ["rekey (A-G, O(1))", format_seconds(t_rekey)],
         ["re-encrypt via MSK (O(n))", format_seconds(t_full_msk)],
         ["re-encrypt via PK (O(n²))", format_seconds(t_full_pk)]],
    )
    assert t_add < t_full_pk
    assert t_remove < t_full_pk
    assert t_rekey < t_full_pk
    benchmark.pedantic(lambda: ibbe.add_user_msk(msk, pk, ct, "bench"),
                       rounds=1, iterations=1)


def test_multi_exp_optimization(setup_std, sink, benchmark):
    msk, pk, rng = setup_std
    n = scaled(128)
    members = [f"u{i}" for i in range(n)]
    _, t_seq = time_call(ibbe.encrypt_pk, pk, members, rng,
                         use_multi_exp=False)
    _, t_multi = time_call(ibbe.encrypt_pk, pk, members, rng,
                           use_multi_exp=True)
    sink.line(f"PK-path assembly (n={n}): sequential "
              f"{format_seconds(t_seq)}, multi-exp "
              f"{format_seconds(t_multi)} "
              f"({t_seq / t_multi:.1f}x)")
    assert t_multi < t_seq, "interleaved multi-exp must win"
    benchmark.pedantic(
        lambda: ibbe.encrypt_pk(pk, members, rng, use_multi_exp=True),
        rounds=1, iterations=1,
    )


def test_fixed_base_precomputation(std_group, sink, benchmark):
    """Table vs variable-base exponentiation of the same std160 bases.

    ``setup`` always builds the tables for ``h``, ``w`` and ``v``; a
    table-less copy of the same element runs the variable-base path
    (width-5 wNAF for G1, square-and-multiply for GT)."""
    rng = DeterministicRng("ablation-precomp")
    _, pk = ibbe.setup(std_group, m=4, rng=rng)
    scalars = [std_group.random_scalar(rng) for _ in range(10)]
    bases = (("G1 h", pk.h, G1Element(std_group, pk.h.point)),
             ("GT v", pk.v, GTElement(std_group, pk.v.raw)))
    for label, table, plain in bases:
        fast, t_table = time_call(lambda: [table ** k for k in scalars])
        slow, t_plain = time_call(lambda: [plain ** k for k in scalars])
        assert fast == slow, f"{label}: table result differs"
        speedup = t_plain / t_table
        sink.line(f"10× {label}^k: variable-base {format_seconds(t_plain)}, "
                  f"table {format_seconds(t_table)} ({speedup:.1f}x)")
        assert speedup > 1.2, f"{label}: the table must beat variable-base"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
