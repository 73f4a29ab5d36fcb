"""The versioned JSON wire protocol between coordinator and workers.

Every exchange on the jobs wire API is a JSON object stamped with the wire
version (``"wire": 1``) under a version-prefixed path (``/v1/...``); job
specs travel in their ``to_dict`` form and are rebuilt with
:func:`repro.jobs.specs.job_from_dict`, and event feeds travel as the
:class:`~repro.jobs.renderers.JsonlRenderer` lines they already are (each
stamped with the *event* schema version).  Error responses always name the
failing field — ``{"error": {"message": ..., "field": ...}}`` — exactly as
``job_from_dict`` names a bad spec field, so a worker three machines away
debugs a rejected request the same way a local caller debugs a bad spec.

This module owns the envelope rules (stamping, parsing, error payloads);
the HTTP plumbing lives in :mod:`repro.utils.jsonhttp` (the server side
:mod:`repro.coordinator.service` routes through) and
:mod:`repro.coordinator.worker`.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.exceptions import CoordinatorError

#: Version stamped into every wire request and response body.  Bump on any
#: incompatible envelope change; both ends refuse other versions by name.
WIRE_VERSION = 1

#: Path prefix every endpoint lives under; bump alongside WIRE_VERSION.
API_PREFIX = "/v1"

#: The five endpoints of the jobs wire API.
PLAN_PATH = f"{API_PREFIX}/plan"
LEASE_PATH = f"{API_PREFIX}/lease"
COMPLETE_PATH = f"{API_PREFIX}/complete"
EVENTS_PATH = f"{API_PREFIX}/events"
STATUS_PATH = f"{API_PREFIX}/status"


def dump_body(payload: Mapping[str, Any]) -> bytes:
    """Serialise one wire body: version-stamped, sorted keys, UTF-8."""
    return json.dumps(
        {"wire": WIRE_VERSION, **payload}, sort_keys=True
    ).encode("utf-8")


def parse_body(raw: bytes) -> dict[str, Any]:
    """Parse and validate one wire body; names the failing field loudly."""
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CoordinatorError(
            f"wire body is not valid JSON: {error}", field="body"
        ) from error
    if not isinstance(body, dict):
        raise CoordinatorError(
            f"wire body must be a JSON object, got {type(body).__name__}",
            field="body",
        )
    version = body.get("wire")
    if version != WIRE_VERSION:
        raise CoordinatorError(
            f"unsupported wire version {version!r} "
            f"(this build speaks wire version {WIRE_VERSION})",
            field="wire",
        )
    return body


def require_field(body: Mapping[str, Any], name: str, kind: type) -> Any:
    """One required, typed field of a wire body; absence names the field."""
    value = body.get(name)
    if not isinstance(value, kind) or (kind is str and not value):
        expected = kind.__name__
        raise CoordinatorError(
            f"wire request needs a non-empty {expected!r} field {name!r}, "
            f"got {value!r}",
            field=name,
        )
    return value


def error_body(error: CoordinatorError) -> bytes:
    """The wire form of a failed request: message plus failing field."""
    return dump_body(
        {"error": {"message": str(error), "field": error.field or "request"}}
    )
