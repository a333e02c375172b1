import os
import stat

import pytest

from perepair._util import atomic_write_text, parse_decimal


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
    # int() reads every one of these spellings but the last two
    for text in ("+5", "0_5", " 5", "5 ", "6\t",
                 "\u0665",  # an Arabic-Indic 5
                 "\uff16",  # a fullwidth 6
                 "", "-"):
        with pytest.raises(ValueError):
            parse_decimal(text)
    assert parse_decimal("12") == 12 and parse_decimal("-3") == -3
