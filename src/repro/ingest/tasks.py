"""Turning a capture file into an attackable :class:`PcapAttackTask`.

A capture that sits next to (or inside) a generated dataset inherits the
dataset's recorded addresses, environment and ground truth from
``metadata.json``; a bare capture falls back to explicit overrides.  These
helpers used to live inside the CLI's ``attack`` command — they are shared
here so the batch attack path and the live ingest service resolve captures
through exactly one code path.
"""

from __future__ import annotations

from pathlib import Path

from repro.client.profiles import OperationalCondition
from repro.core.pipeline import PcapAttackTask
from repro.dataset.format import METADATA_FILENAME, load_dataset_metadata
from repro.exceptions import DatasetError, IngestError
from repro.net.endpoints import DEFAULT_CLIENT_IP


def metadata_entries_near(directory: str | Path) -> dict[str, dict]:
    """Dataset metadata entries keyed by pcap filename, if a dataset is near.

    Looks for ``metadata.json`` in ``directory`` and its parent, covering
    both a dataset directory itself and its ``traces/`` subdirectory.  A
    capture with an entry inherits its recorded addresses, environment and
    ground truth; captures without one fall back to explicit overrides.
    """
    directory = Path(directory)
    for candidate in (directory, directory.parent):
        if not (candidate / METADATA_FILENAME).exists():
            continue
        try:
            metadata = load_dataset_metadata(candidate)
        except DatasetError:
            continue
        return {
            Path(str(entry["trace_file"])).name: entry
            for entry in metadata["entries"]
            if "trace_file" in entry
        }
    return {}


def entry_environment(entry: dict | None) -> str | None:
    """The fingerprint key a metadata entry records, if any.

    A malformed entry raises :class:`IngestError` rather than a bare
    ``KeyError`` — the live ingest service skips such captures and keeps
    running instead of dying on foreign metadata.
    """
    if entry is None:
        return None
    try:
        condition = OperationalCondition.from_dict(entry["viewer"]["condition"])
    except (KeyError, TypeError) as error:
        raise IngestError(
            f"metadata entry records no usable viewer condition: {error!r}"
        ) from error
    return condition.fingerprint_key


def entry_truth(entry: dict | None) -> tuple[bool, ...] | None:
    """The ground-truth choice pattern a metadata entry records, if any.

    Raises :class:`IngestError` on a malformed entry, like
    :func:`entry_environment`.
    """
    if entry is None:
        return None
    try:
        return tuple(bool(choice["took_default"]) for choice in entry["choices"])
    except (KeyError, TypeError) as error:
        raise IngestError(
            f"metadata entry records no usable ground-truth choices: {error!r}"
        ) from error


def build_pcap_task(
    pcap: str | Path,
    entry: dict | None,
    environment: str | None = None,
    client_ip: str | None = None,
    server_ip: str | None = None,
) -> PcapAttackTask:
    """Resolve one capture into an attack task.

    Explicit arguments win over the metadata entry's recorded values; the
    client address falls back to :data:`DEFAULT_CLIENT_IP`.  A capture whose
    environment cannot be determined from either source raises
    :class:`IngestError` — the attack has no fingerprint to classify with.
    """
    pcap = Path(pcap)
    resolved_environment = environment or entry_environment(entry)
    if resolved_environment is None:
        raise IngestError(
            f"cannot determine the environment of {pcap}: pass --environment "
            "or attack captures that sit next to their dataset metadata.json"
        )
    resolved_client_ip = client_ip or (entry or {}).get("client_ip") or DEFAULT_CLIENT_IP
    resolved_server_ip = server_ip or (entry or {}).get("server_ip")
    return PcapAttackTask(
        path=str(pcap),
        condition_key=resolved_environment,
        client_ip=str(resolved_client_ip),
        server_ip=str(resolved_server_ip) if resolved_server_ip is not None else None,
    )
