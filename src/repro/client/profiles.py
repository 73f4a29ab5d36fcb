"""Operational conditions (Table I) and the client profiles they induce.

A client profile captures everything about the viewer's machine and network
that shapes the observable traffic:

* the sizes of the type-1 and type-2 state-report payloads (cookies, headers
  and player telemetry differ between operating systems and browsers, which is
  why the paper's Figure 2 shows different — but equally narrow — bands for
  Ubuntu and Windows);
* TCP maximum segment size and the background-request mix ("other" client
  records);
* nuisance parameters (record-size jitter, probability that background
  records collide with the JSON bands) that set how hard the classification
  problem is under that condition.

The two conditions published in Figure 2 are calibrated so that, after TLS
framing (AES-128-GCM overhead of 24 bytes plus the 5-byte record header), the
JSON messages land exactly in the paper's bins:

==========  =============  =============
condition   type-1 band    type-2 band
==========  =============  =============
Ubuntu      2211-2213      2992-3017
Windows     2341-2343      3118-3147
==========  =============  =============
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.utils.validation import ensure_in, ensure_probability

OPERATING_SYSTEMS: tuple[str, ...] = ("windows", "linux", "mac")
PLATFORMS: tuple[str, ...] = ("desktop", "laptop")
BROWSERS: tuple[str, ...] = ("chrome", "firefox")
CONNECTION_TYPES: tuple[str, ...] = ("wired", "wireless")
TRAFFIC_CONDITIONS: tuple[str, ...] = ("morning", "noon", "night")

@dataclass(frozen=True)
class OperationalCondition:
    """One cell of Table I's operational attribute grid."""

    operating_system: str
    platform: str
    browser: str
    connection_type: str
    traffic_condition: str

    def __post_init__(self) -> None:
        ensure_in(self.operating_system, OPERATING_SYSTEMS, "operating_system")
        ensure_in(self.platform, PLATFORMS, "platform")
        ensure_in(self.browser, BROWSERS, "browser")
        ensure_in(self.connection_type, CONNECTION_TYPES, "connection_type")
        ensure_in(self.traffic_condition, TRAFFIC_CONDITIONS, "traffic_condition")

    @property
    def key(self) -> str:
        """Stable string key, e.g. ``"linux/desktop/firefox/wired/noon"``."""
        return "/".join(
            (
                self.operating_system,
                self.platform,
                self.browser,
                self.connection_type,
                self.traffic_condition,
            )
        )

    @property
    def fingerprint_key(self) -> str:
        """The part of the condition that shapes record lengths.

        Record lengths depend on the software stack (OS and browser), not on
        the time of day, the connection medium or the chassis, so fingerprints
        are trained and looked up at this granularity.
        """
        return f"{self.operating_system}/{self.browser}"

    def as_dict(self) -> dict[str, str]:
        """Plain dictionary form used in dataset metadata."""
        return {
            "operating_system": self.operating_system,
            "platform": self.platform,
            "browser": self.browser,
            "connection_type": self.connection_type,
            "traffic_condition": self.traffic_condition,
        }

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "OperationalCondition":
        """Inverse of :meth:`as_dict`."""
        return cls(
            operating_system=data["operating_system"],
            platform=data["platform"],
            browser=data["browser"],
            connection_type=data["connection_type"],
            traffic_condition=data["traffic_condition"],
        )


def figure2_conditions() -> tuple[OperationalCondition, OperationalCondition]:
    """The two conditions whose record-length distributions Figure 2 plots."""
    ubuntu = OperationalCondition("linux", "desktop", "firefox", "wired", "noon")
    windows = OperationalCondition("windows", "desktop", "firefox", "wired", "noon")
    return ubuntu, windows


@dataclass(frozen=True)
class ClientProfile:
    """Traffic-shaping parameters induced by an operational condition.

    Attributes
    ----------
    condition:
        The operational condition this profile realises.
    type1_payload_bytes / type1_payload_jitter:
        Centre and ± jitter of the plaintext type-1 JSON message (the state
        report sent when a question appears on screen).
    type2_payload_bytes / type2_payload_jitter:
        Same for the type-2 message (sent when the non-default branch is
        picked).
    request_payload_bytes / request_payload_jitter:
        Centre/jitter of ordinary client requests (chunk GETs, license pings).
    telemetry_payload_bytes / telemetry_payload_jitter:
        Centre/jitter of periodic player telemetry uploads, the mid-sized
        "other" client records visible in Figure 2.
    bulk_report_payload_bytes / bulk_report_payload_jitter:
        Centre/jitter of the occasional large batched reports (the ``>= 4334``
        bin of Figure 2).
    mss:
        TCP maximum segment size on this client.
    band_collision_probability:
        Probability that an "other" client record is emitted with a length
        falling inside one of the JSON bands — the main source of attack error.
    state_loss_probability:
        Probability that a state message never reaches the capture point
        (e.g. lost and retransmitted outside the observation window).
    telemetry_interval_seconds:
        Mean interval between telemetry uploads.
    """

    condition: OperationalCondition
    type1_payload_bytes: int
    type1_payload_jitter: int
    type2_payload_bytes: int
    type2_payload_jitter: int
    request_payload_bytes: int = 710
    request_payload_jitter: int = 180
    telemetry_payload_bytes: int = 2550
    telemetry_payload_jitter: int = 230
    bulk_report_payload_bytes: int = 4700
    bulk_report_payload_jitter: int = 330
    mss: int = 1460
    band_collision_probability: float = 0.01
    state_loss_probability: float = 0.0
    telemetry_interval_seconds: float = 15.0

    def __post_init__(self) -> None:
        for name in (
            "type1_payload_bytes",
            "type2_payload_bytes",
            "request_payload_bytes",
            "telemetry_payload_bytes",
            "bulk_report_payload_bytes",
            "mss",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in (
            "type1_payload_jitter",
            "type2_payload_jitter",
            "request_payload_jitter",
            "telemetry_payload_jitter",
            "bulk_report_payload_jitter",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        ensure_probability(self.band_collision_probability, "band_collision_probability")
        ensure_probability(self.state_loss_probability, "state_loss_probability")
        if self.telemetry_interval_seconds <= 0:
            raise ConfigurationError("telemetry interval must be positive")


# -- calibration tables -----------------------------------------------------

#: (operating_system, browser) -> (type1 centre, type1 jitter, type2 centre,
#: type2 jitter) of the *plaintext* payload, chosen so the resulting record
#: wire lengths reproduce Figure 2 for the Firefox conditions and produce
#: distinct but equally narrow bands elsewhere.
_PAYLOAD_CALIBRATION: dict[tuple[str, str], tuple[int, int, int, int]] = {
    # Figure 2 (Desktop, Firefox, Ethernet, Ubuntu): type-1 2211-2213, type-2 2992-3017.
    ("linux", "firefox"): (2183, 1, 2976, 12),
    # Figure 2 (Desktop, Firefox, Ethernet, Windows): type-1 2341-2343, type-2 3118-3147.
    ("windows", "firefox"): (2313, 1, 3104, 14),
    # Unpublished conditions: same structure, different centres.
    ("mac", "firefox"): (2248, 1, 3040, 12),
    ("linux", "chrome"): (2119, 1, 2896, 11),
    ("windows", "chrome"): (2255, 1, 3010, 13),
    ("mac", "chrome"): (2190, 1, 2952, 12),
}

#: Extra nuisance noise per traffic condition: congested evenings make the
#: capture noisier (more cross traffic, more retransmission, more collisions).
_TRAFFIC_NUISANCE: dict[str, tuple[float, float]] = {
    # traffic_condition -> (band_collision_probability, state_loss_probability)
    "morning": (0.004, 0.000),
    "noon": (0.008, 0.000),
    "night": (0.018, 0.010),
}

#: Wireless connections add a little more collision noise than wired ones.
_CONNECTION_NUISANCE: dict[str, float] = {"wired": 0.0, "wireless": 0.010}


def profile_for(condition: OperationalCondition) -> ClientProfile:
    """Build the calibrated :class:`ClientProfile` for an operational condition."""
    key = (condition.operating_system, condition.browser)
    try:
        type1_center, type1_jitter, type2_center, type2_jitter = _PAYLOAD_CALIBRATION[key]
    except KeyError:
        raise ConfigurationError(
            f"no payload calibration for OS/browser combination {key!r}"
        ) from None
    collision, loss = _TRAFFIC_NUISANCE[condition.traffic_condition]
    collision += _CONNECTION_NUISANCE[condition.connection_type]
    mss = 1460 if condition.connection_type == "wired" else 1420
    telemetry_center = 2550 if condition.operating_system != "windows" else 2720
    return ClientProfile(
        condition=condition,
        type1_payload_bytes=type1_center,
        type1_payload_jitter=type1_jitter,
        type2_payload_bytes=type2_center,
        type2_payload_jitter=type2_jitter,
        telemetry_payload_bytes=telemetry_center,
        mss=mss,
        band_collision_probability=collision,
        state_loss_probability=loss,
    )
