"""Property tests pinning the one-read capture step to its two-read oracle.

The ingest service reads each capture once: the attack maps the file,
hashes the mapping on a helper thread (:class:`repro.net.pcap.BufferFingerprint`)
and decodes the same mapping (``PcapReader.read_columns(data)``).  The
oracle is what the service did before: ``capture_fingerprint(path)`` over
bounded block reads, then a decode that maps the file itself.  The two must
agree on every file: the same digest for arbitrary bytes, the same columns
and records for valid pcaps, and the same ``PcapError`` message for
malformed ones.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, strategies as st

from repro.core.fingerprint import FingerprintLibrary, LengthBand, RecordLengthFingerprint
from repro.core.pipeline import WhiteMirrorAttack, capture_client_records
from repro.exceptions import PcapError, ReproError
from repro.ingest.log import capture_fingerprint
from repro.net.pcap import BufferFingerprint, PcapReader, file_fingerprint, map_capture

from strategies import DETERMINISM_SETTINGS, MALFORMED, captures, malformed_pcaps

_names = itertools.count()
ENVIRONMENT = "linux/firefox"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fingerprint")


def _write(workdir, content: bytes):
    path = workdir / f"capture-{next(_names)}.pcap"
    path.write_bytes(content)
    return path


def _outcome(function, *args, **kwargs):
    """``("ok", value)`` or ``("error", type, message)``."""
    try:
        return ("ok", function(*args, **kwargs))
    except ReproError as error:
        return ("error", type(error), str(error))


def _columns_tuple(columns):
    return (
        columns.path,
        columns.timestamps.tolist(),
        columns.captured_lengths.tolist(),
        columns.original_lengths.tolist(),
        columns.frame_offsets.tolist(),
        bytes(columns.data),
    )


@DETERMINISM_SETTINGS
@given(content=st.binary(max_size=8192))
@example(content=b"")
@example(content=b"\x00")
def test_mapping_fingerprint_is_the_capture_fingerprint(workdir, content):
    path = _write(workdir, content)
    assert BufferFingerprint(map_capture(path)).result() == capture_fingerprint(path)


def test_mapping_fingerprint_spans_many_read_blocks(workdir):
    content = np.random.default_rng(5).bytes(3 * (1 << 20) + 17)
    path = _write(workdir, content)
    digest = BufferFingerprint(map_capture(path)).result()
    assert digest == capture_fingerprint(path) == file_fingerprint(path)


def test_unreadable_capture_keeps_its_errors(workdir):
    missing = workdir / "missing.pcap"
    with pytest.raises(PcapError, match="cannot read pcap file"):
        map_capture(missing)
    with pytest.raises(OSError):
        file_fingerprint(missing)


@DETERMINISM_SETTINGS
@given(capture=captures())
def test_supplied_mapping_decodes_like_the_path(workdir, capture):
    path = capture.write(workdir / f"capture-{next(_names)}.pcap")
    expected = PcapReader(path).read_columns()
    observed = PcapReader(path).read_columns(map_capture(path))
    assert _columns_tuple(observed) == _columns_tuple(expected)
    assert _outcome(
        capture_client_records,
        path,
        capture.client_ip,
        capture.server_ip,
        data=map_capture(path),
    ) == _outcome(capture_client_records, path, capture.client_ip, capture.server_ip)


@DETERMINISM_SETTINGS
@given(case=malformed_pcaps())
def test_malformed_pcaps_raise_the_same_error(workdir, case):
    damage, content = case
    event(damage)
    path = _write(workdir, content)
    expected = _outcome(PcapReader(path).read_columns)
    observed = _outcome(PcapReader(path).read_columns, map_capture(path))
    assert observed == expected
    assert expected[:2] == ("error", PcapError)
    assert expected[2].startswith(MALFORMED[damage].format(path=path))


def _library() -> FingerprintLibrary:
    library = FingerprintLibrary()
    library.add(
        RecordLengthFingerprint(
            condition_key=ENVIRONMENT,
            type1_band=LengthBand(100, 300),
            type2_band=LengthBand(301, 800),
            training_records=2,
        )
    )
    return library


@DETERMINISM_SETTINGS
@given(capture=captures())
def test_fingerprinted_attack_is_the_plain_attack(workdir, capture):
    """Hashing while decoding changes nothing but the fingerprint field, the
    digest is the file's, and the helper thread is joined on every path."""
    path = capture.write(workdir / f"capture-{next(_names)}.pcap")
    attack = WhiteMirrorAttack(library=_library())
    threads = threading.active_count()
    arguments = (path, ENVIRONMENT, capture.client_ip, capture.server_ip)
    hashed = _outcome(attack.attack_pcap, *arguments, fingerprint=True)
    assert threading.active_count() == threads
    plain = _outcome(attack.attack_pcap, *arguments)
    event(plain[0])
    if plain[0] == "ok":
        assert hashed[0] == "ok"
        assert hashed[1].fingerprint == capture_fingerprint(path)
        assert replace(hashed[1], fingerprint=None) == plain[1]
    else:
        assert hashed == plain


def test_importing_the_service_starts_no_thread():
    script = (
        "import threading, repro.ingest.service; "
        "print(threading.active_count())"
    )
    output = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    ).stdout
    assert output.strip() == "1"
