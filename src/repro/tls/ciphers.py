"""Cipher-suite overhead models: plaintext size -> ciphertext size.

The attack's observable is the record length, which equals the plaintext
fragment size plus a cipher-suite-dependent expansion:

* AES-GCM in TLS 1.2 prepends an 8-byte explicit nonce and appends a 16-byte
  tag (+24 bytes, size-preserving otherwise);
* ChaCha20-Poly1305 appends only the 16-byte tag (+16 bytes);
* AES-CBC (TLS 1.2) pads the plaintext+MAC to a 16-byte boundary after adding
  a 16-byte IV and a 20-byte HMAC-SHA1 MAC, so the mapping is a step function;
* TLS 1.3 AEAD appends a 1-byte inner content type before encrypting and a
  16-byte tag (+17 bytes minimum, plus optional padding).

Only the *size* behaviour is modelled; "encryption" is a keyed byte whitening
that keeps ciphertext incompressible-looking in captures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import TLSError
from repro.utils.rng import _next_uint32_bytes

_EXPANSION_FN = Callable[[int], int]


def _gcm_tls12(plaintext_len: int) -> int:
    return plaintext_len + 8 + 16


def _chacha20_tls12(plaintext_len: int) -> int:
    return plaintext_len + 16


def _cbc_sha1_tls12(plaintext_len: int, block: int = 16, mac: int = 20, iv: int = 16) -> int:
    padded = plaintext_len + mac + 1  # at least one padding byte
    if padded % block:
        padded += block - (padded % block)
    return iv + padded


def _aead_tls13(plaintext_len: int) -> int:
    return plaintext_len + 1 + 16  # inner content type byte + tag


@dataclass(frozen=True)
class CipherSpec:
    """Size behaviour of one negotiated cipher suite."""

    name: str
    protocol: str
    _expansion: _EXPANSION_FN

    def ciphertext_length(self, plaintext_length: int) -> int:
        """Ciphertext bytes produced for a plaintext fragment of this size."""
        if plaintext_length <= 0:
            raise TLSError(
                f"plaintext length must be positive, got {plaintext_length}"
            )
        return self._expansion(plaintext_length)

    def overhead(self, plaintext_length: int = 1024) -> int:
        """Expansion in bytes at a representative plaintext size."""
        return self.ciphertext_length(plaintext_length) - plaintext_length

    def encrypt(self, plaintext: bytes, sequence_number: int, key_id: str) -> bytes:
        """Produce pseudo-ciphertext of the correct length.

        The bytes are a deterministic keystream seeded (via SHA-256) from
        ``(key_id, cipher, sequence number)`` XORed over the plaintext
        zero-padded to the ciphertext length -- not secure, but
        deterministic, length-correct and high-entropy, which is all the
        capture needs.  The keystream is the generator's
        ``integers(0, 256, dtype=np.uint8)`` byte stream, read at raw-draw
        speed through :func:`repro.utils.rng._next_uint32_bytes`, and the
        plaintext is XORed into it in place (past the plaintext, the zero
        padding leaves the keystream as it is).
        """
        if sequence_number < 0:
            raise TLSError("sequence number must be non-negative")
        target = self.ciphertext_length(len(plaintext))
        digest = hashlib.sha256(
            f"{key_id}:{self.name}:{sequence_number}".encode("utf-8")
        ).digest()
        seed = int.from_bytes(digest[:8], "big")
        keystream = _next_uint32_bytes(np.random.PCG64(seed), target)
        keystream[: len(plaintext)] ^= np.frombuffer(plaintext, dtype=np.uint8)
        return keystream.tobytes()


CIPHER_SUITES: dict[str, CipherSpec] = {
    "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256": CipherSpec(
        name="TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
        protocol="TLSv1.2",
        _expansion=_gcm_tls12,
    ),
    "TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256": CipherSpec(
        name="TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256",
        protocol="TLSv1.2",
        _expansion=_chacha20_tls12,
    ),
    "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA": CipherSpec(
        name="TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA",
        protocol="TLSv1.2",
        _expansion=_cbc_sha1_tls12,
    ),
    "TLS_AES_128_GCM_SHA256": CipherSpec(
        name="TLS_AES_128_GCM_SHA256",
        protocol="TLSv1.3",
        _expansion=_aead_tls13,
    ),
}

#: The suite Netflix-era stacks negotiated most often and the one the
#: Figure 2 calibration assumes.
DEFAULT_CIPHER_SUITE = "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"


def cipher_by_name(name: str) -> CipherSpec:
    """Look up a cipher suite by its IANA-style name."""
    try:
        return CIPHER_SUITES[name]
    except KeyError:
        raise TLSError(f"unknown cipher suite {name!r}") from None


def default_cipher() -> CipherSpec:
    """The calibration cipher suite (AES-128-GCM, TLS 1.2)."""
    return CIPHER_SUITES[DEFAULT_CIPHER_SUITE]
