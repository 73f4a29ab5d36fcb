"""Atomic file publication: a reader sees the old bytes or the new, never a mix.

Every durable JSON artifact the library writes — dataset indexes, shard
manifests, fingerprint libraries and accumulator states, arena cells and
reports, the coordinator's ledger and staged uploads, merged results logs —
goes through :func:`write_atomic`.  The bytes are staged in a uniquely named
temp file beside the target and renamed over it, so a crash, a full disk or
a concurrent writer leaves the previous file intact.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, data: bytes | str) -> Path:
    """Replace ``path`` with ``data`` (``str`` is written as UTF-8).

    The temp file is created in the target's directory under a fresh random
    name (two writers to one path never share it) and with the mode a plain
    ``open(path, "w")`` would give, so the published file's permissions do
    not depend on how it was written.  If anything fails before the rename
    the temp file is removed and the error propagates.
    """
    path = Path(path)
    while True:
        temporary = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            descriptor = os.open(
                temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666
            )
        except FileExistsError:
            continue
        break
    try:
        with open(descriptor, "wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return path
