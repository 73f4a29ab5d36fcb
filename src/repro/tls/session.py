"""Send-side TLS session: application payloads in, records out."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import TLSError
from repro.tls.ciphers import CipherSpec, default_cipher
from repro.tls.records import MAX_PLAINTEXT_FRAGMENT, ContentType, TLSRecord


@dataclass
class TLSSession:
    """One direction of an established TLS connection.

    Parameters
    ----------
    key_id:
        Identifier mixed into the pseudo-ciphertext so the two directions of
        a connection (and different connections) produce unrelated bytes.
    cipher:
        The negotiated cipher suite; defaults to the calibration suite
        (AES-128-GCM over TLS 1.2).
    version:
        The legacy version field stamped on outgoing records.
    """

    key_id: str
    cipher: CipherSpec = field(default_factory=default_cipher)
    version: int = 0x0303
    _sequence_number: int = field(default=0, init=False, repr=False)

    def protect(self, payload: bytes) -> list[TLSRecord]:
        """Encrypt one application payload into one or more records.

        Payloads longer than the TLS plaintext fragment limit (16 KiB) are
        split across consecutive records, exactly as real stacks do for large
        HTTP responses; each fragment gets its own sequence number.
        """
        if not payload:
            raise TLSError("cannot protect an empty payload")
        records: list[TLSRecord] = []
        for start in range(0, len(payload), MAX_PLAINTEXT_FRAGMENT):
            fragment = payload[start : start + MAX_PLAINTEXT_FRAGMENT]
            ciphertext = self.cipher.encrypt(
                fragment, self._sequence_number, self.key_id
            )
            records.append(
                TLSRecord(
                    content_type=ContentType.APPLICATION_DATA,
                    version=self.version,
                    ciphertext=ciphertext,
                )
            )
            self._sequence_number += 1
        return records
