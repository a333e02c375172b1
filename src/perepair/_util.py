"""Small shared plumbing: canonical JSON, digests, strict file reads,
atomic file writes, strict decimal parsing."""

import hashlib
import json
import os

from .errors import PERepairError


def canonical_json(payload) -> str:
    """Deterministic JSON used for digests and on-disk files."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_of(payload) -> str:
    """SHA-256 hex digest of the canonical JSON serialization."""
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def parse_decimal(text: str) -> int:
    """An int as the package's files write it: ASCII digits after an
    optional minus sign.  int() alone also reads other Unicode digits, a
    plus sign, underscores and surrounding blanks."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII decimal: {text!r}")
    return int(text)


def read_text(path) -> str:
    """The whole UTF-8 text of a file the package reads, or CORRUPT_FILE."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PERepairError("CORRUPT_FILE", f"cannot read {path}: {exc}")


def atomic_write_text(path, text: str) -> None:
    """Write a file via temp-and-rename so readers never see partial output.

    The temp file is created with mode 0666, which the umask trims to what
    open() would give; mkstemp's private 0600 would survive the rename.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
