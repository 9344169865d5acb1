"""KDF stack against RFC 4231 (HMAC) and RFC 5869 (HKDF) vectors."""

import pytest

from repro.crypto.kdf import hkdf, hmac_sha256, mgf1, sha256
from repro.errors import ValidationError


class TestHmac:
    def test_rfc4231_case_1(self):
        key = bytes.fromhex("0b" * 20)
        out = hmac_sha256(key, b"Hi There")
        assert out.hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    def test_rfc4231_case_2(self):
        out = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert out.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

    def test_rfc4231_case_3(self):
        key = bytes.fromhex("aa" * 20)
        out = hmac_sha256(key, bytes.fromhex("dd" * 50))
        assert out.hex() == (
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        )

    def test_long_key_hashed(self):
        # RFC 4231 case 6: 131-byte key exceeds the block size.
        key = bytes.fromhex("aa" * 131)
        out = hmac_sha256(
            key, b"Test Using Larger Than Block-Size Key - Hash Key First"
        )
        assert out.hex() == (
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        )


class TestHkdf:
    def test_rfc5869_case_1(self):
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        okm = hkdf(ikm, 42, salt=salt, info=info)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_rfc5869_case_3_empty_salt_info(self):
        okm = hkdf(bytes.fromhex("0b" * 22), 42)
        assert okm.hex() == (
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )

    def test_length_enforced(self):
        assert len(hkdf(b"ikm", 100)) == 100
        with pytest.raises(ValidationError):
            hkdf(b"ikm", 255 * 32 + 1)

    def test_info_separates(self):
        assert hkdf(b"k", 32, info=b"a") != hkdf(b"k", 32, info=b"b")


class TestMgf1:
    def test_length(self):
        assert len(mgf1(b"seed", 100)) == 100

    def test_prefix_stability(self):
        assert mgf1(b"seed", 64)[:32] == mgf1(b"seed", 32)

    def test_seed_sensitivity(self):
        assert mgf1(b"a", 32) != mgf1(b"b", 32)


class TestSha256:
    def test_known(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
