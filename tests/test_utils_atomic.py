"""Atomic publication: one helper, and no hand-rolled rename beside it.

:func:`repro.utils.atomic.write_atomic` writes every durable JSON artifact.
The AST check below keeps it the only one: ``os.replace`` may appear in
``src/`` only in the helper itself, in the pcap publisher (whose
``.inprogress`` name and fsync the capture watcher relies on) and in the
coordinator's directory placement.
"""

from __future__ import annotations

import ast
import os
import threading
from pathlib import Path

import pytest

from repro.utils import atomic
from repro.utils.atomic import write_atomic

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``(module, enclosing function)`` of every allowed rename.
ALLOWED_RENAMES = {
    ("repro/utils/atomic.py", "write_atomic"),
    ("repro/net/capture.py", "CapturedTrace.to_pcap_atomic"),
    ("repro/coordinator/service.py", "Coordinator._materialise.place_directory"),
}


def _rename_sites(path: Path) -> set[tuple[str, str]]:
    """Where ``os.replace``/``os.rename`` (or a bare import of them) occurs."""
    module = path.relative_to(SRC).as_posix()
    sites: set[tuple[str, str]] = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = scope + (child.name,)
            renamed = (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "os"
                and child.attr in ("replace", "rename")
            ) or (
                isinstance(child, ast.ImportFrom)
                and child.module == "os"
                and any(alias.name in ("replace", "rename") for alias in child.names)
            )
            if renamed:
                sites.add((module, ".".join(scope) or "<module>"))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return sites


def test_only_the_allowed_sites_rename_files():
    sites = set()
    for path in sorted(SRC.rglob("*.py")):
        sites |= _rename_sites(path)
    assert sites == ALLOWED_RENAMES, (
        "write durable files with repro.utils.atomic.write_atomic instead of "
        f"a hand-rolled rename: {sorted(sites - ALLOWED_RENAMES)}"
    )


def test_text_is_written_as_utf8_and_the_path_returned(tmp_path):
    path = tmp_path / "out.json"
    assert write_atomic(path, "café\n") == path
    assert path.read_bytes() == "café\n".encode("utf-8")
    assert write_atomic(str(path), b"\x00\x01") == path
    assert path.read_bytes() == b"\x00\x01"


def test_mode_equals_a_plain_write(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_text("{}")
    published = write_atomic(tmp_path / "atomic.json", "{}")
    assert published.stat().st_mode == plain.stat().st_mode


def test_a_failed_rename_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    path.write_text("old")

    def fail(source, destination):
        raise OSError("disk full")

    monkeypatch.setattr(atomic.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(path, "new")
    assert path.read_text() == "old"
    assert sorted(tmp_path.iterdir()) == [path]


def test_a_failed_encode_keeps_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "\ud800")
    assert path.read_text() == "old"
    assert sorted(tmp_path.iterdir()) == [path]


def test_a_taken_temp_name_is_skipped_not_clobbered(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    # Another writer holds the temp name the first draw would produce.
    taken = tmp_path / f"out.json.{bytes(6).hex()}.tmp"
    taken.write_text("another writer's bytes")
    draws = iter([bytes(6), b"\x01" * 6])
    monkeypatch.setattr(atomic.os, "urandom", lambda size: next(draws))
    write_atomic(path, "mine")
    assert path.read_text() == "mine"
    assert taken.read_text() == "another writer's bytes"


def test_concurrent_writers_to_one_path_never_collide(tmp_path):
    path = tmp_path / "out.json"
    payloads = [f"writer-{index}\n" * 100 for index in range(4)]
    failures: list[BaseException] = []

    def write(payload: str) -> None:
        try:
            for _ in range(50):
                write_atomic(path, payload)
        except BaseException as error:  # noqa: BLE001 - reported below
            failures.append(error)

    threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures
    assert path.read_text() in payloads
    assert os.listdir(tmp_path) == ["out.json"]
