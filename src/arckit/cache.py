"""The on-disk result store behind ``--cache DIR``.

One directory, one file per result.  An entry's file name is the sha256
of the package source digest and the entry's key, so a change to any
``arckit`` source file starts a fresh namespace instead of serving
results computed by other code.  The file holds the sha256 of its
payload on the first line and the payload after it.

Entries are written to a temporary file in the same directory and moved
into place with ``os.replace``, so a reader sees either no entry or a
whole one, also while another process writes the same key.  A missing,
unreadable or damaged entry reads as a miss; the caller recomputes the
result and the next store overwrites the entry.

The hash is the interpreter's built-in sha256, whose hex digests equal
``hashlib``'s, so a warm ``arckit`` hit (one subparser, then this module)
loads neither an algebra module nor OpenSSL.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache

__all__ = ["entry_path", "load", "store", "source_digest"]


@lru_cache(maxsize=None)
def _sha256_type():
    try:
        return __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:  # an interpreter built without it; hashlib loads OpenSSL
        import hashlib

        return hashlib.sha256


def _sha256(data: bytes) -> str:
    return _sha256_type()(data).hexdigest()


@lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over the names and contents of the package's ``*.py`` files.

    Computed on the first cache access, not at import.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    lines = []
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                lines.append(f"{name} {_sha256(fh.read())}\n")
    return _sha256("".join(lines).encode())


def entry_path(directory: str, key: str) -> str:
    """Where the entry for ``key`` lives under ``directory``."""
    name = _sha256(f"{source_digest()}\n{key}".encode())
    return os.path.join(directory, name)


def load(path: str) -> str | None:
    """The payload stored at ``path``, or None for a missing or bad entry."""
    try:
        with open(path, "rb") as fh:
            digest, _, payload = fh.read().partition(b"\n")
        if digest.decode("ascii") != _sha256(payload):
            return None
        return payload.decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return None


def store(path: str, payload: str) -> None:
    """Write the entry at ``path`` atomically (temp file, then ``os.replace``)."""
    data = payload.encode("utf-8")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_sha256(data).encode("ascii") + b"\n" + data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
