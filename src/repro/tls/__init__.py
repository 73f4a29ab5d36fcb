"""TLS record-layer model.

The attack observes nothing but ciphertext, yet TLS exposes the *length* of
every record in its plaintext record header.  This package models exactly the
part of TLS that matters for that observation:

* :mod:`repro.tls.records` — record framing (content type, version, length),
  serialization and parsing of the 5-byte header;
* :mod:`repro.tls.ciphers` — ciphertext expansion per cipher suite (nonce,
  authentication tag, padding), i.e. the plaintext-to-record-length function;
* :mod:`repro.tls.handshake` — the handshake records at connection start, so
  captured traces begin the way real ones do;
* :mod:`repro.tls.session` — a send-side session that turns application
  payloads into records, optionally fragmenting at the 16 KiB plaintext limit.

Nothing here performs real cryptography: payload bytes are passed through a
keyed stream-cipher stand-in purely so ciphertext bytes look uniformly random
in captures; the security-relevant property being studied (length leakage) is
preserved exactly.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".records": "MAX_PLAINTEXT_FRAGMENT RECORD_HEADER_LENGTH ContentType TLSRecord"
            " parse_records",
        ".ciphers": "CipherSpec CIPHER_SUITES cipher_by_name",
        ".handshake": "simulate_handshake",
        ".session": "TLSSession",
    },
)
