"""Connection endpoints and five-tuples."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.exceptions import PacketError
from repro.net.headers import parse_ipv4

#: The viewer's address in simulated captures, and the attack's fallback
#: when neither the caller nor dataset metadata names one.
DEFAULT_CLIENT_IP = "192.168.1.23"


@dataclass(frozen=True)
class Endpoint:
    """An (IP address, TCP port) pair."""

    ip: str
    port: int

    def __post_init__(self) -> None:
        parse_ipv4(self.ip)  # validates format
        if not 0 < self.port <= 0xFFFF:
            raise PacketError(f"invalid port {self.port}")

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@dataclass(frozen=True)
class FiveTuple:
    """The classic connection identifier (protocol is implicitly TCP)."""

    client: Endpoint
    server: Endpoint

    @cached_property
    def key(self) -> str:
        """Canonical string form, client side first (formatted once per tuple)."""
        return f"{self.client}->{self.server}"

    def reversed(self) -> "FiveTuple":
        """The same connection viewed from the server side."""
        return FiveTuple(client=self.server, server=self.client)
