import os
import stat

import pytest

from perepair._util import atomic_write_text, memo, parse_decimal


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_text_mode_follows_umask(tmp_path, umask, mode):
    path = tmp_path / "out.txt"
    old = os.umask(umask)
    try:
        atomic_write_text(path, "first\n")
        atomic_write_text(path, "second\n")  # replacing keeps the same rule
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_text(encoding="utf-8") == "second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_parse_decimal_reads_ascii_digits_only():
    # int() reads every one of these spellings but the last two; each is
    # one that str() never writes
    for text in ("+5", "0_5", " 5", "5 ", "6\t",
                 "\u0665",  # an Arabic-Indic 5
                 "\uff16",  # a fullwidth 6
                 "012", "0012", "00", "-0", "-012",
                 "", "-"):
        with pytest.raises(ValueError):
            parse_decimal(text)
    assert parse_decimal("12") == 12 and parse_decimal("-3") == -3
    assert parse_decimal("0") == 0 and parse_decimal("10") == 10


def test_atomic_write_text_cleans_up_after_a_failed_write(tmp_path,
                                                          monkeypatch):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "\ud800")  # a lone surrogate has no UTF-8
    assert path.read_text(encoding="utf-8") == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    # a clean-up that fails too leaves the temp file, and the write's own
    # error is the one raised
    def no_unlink(name):
        raise PermissionError(name)

    monkeypatch.setattr(os, "unlink", no_unlink)
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "\ud800")
    monkeypatch.undo()
    assert path.read_text(encoding="utf-8") == "first\n"
    left, out = sorted(p.name for p in tmp_path.iterdir())
    assert left.startswith(".tmp-") and out == "out.txt"


def test_memo_builds_once_and_keeps_no_failed_build():
    store = {}
    builds = []

    def build():
        builds.append(1)
        return "value"

    def broken():
        raise ValueError("no value")

    assert memo(store, ("kind", 1), build) == "value"
    assert memo(store, ("kind", 1), broken) == "value"  # a hit builds nothing
    assert builds == [1]
    with pytest.raises(ValueError):
        memo(store, ("kind", 2), broken)
    assert store == {("kind", 1): "value"}
