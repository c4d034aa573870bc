"""Deterministic text serialization helpers.

All floats are rendered with 17 significant digits ('%.17g'), enough to
round-trip IEEE doubles, so identical inputs produce byte-identical
files on every platform. Files are written atomically (temp + rename)
with '\\n' line endings, and with the permissions a plain open() gives
under the process's umask.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

FLOAT_FMT = "%.17g"


def fmt_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    # one %-operation per row; '%.17g' % x formats x as float(x), so the bytes are fmt_float's
    lines = [",".join(header)]
    for row in rows:
        lines.append(((FLOAT_FMT + ",") * len(row))[:-1] % tuple(row))
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    import json  # only scaling, square and validate write JSON: the other commands skip its import

    return json.dumps(obj, indent=2) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # O_EXCL never reuses a name; mode 0o666 lets the kernel apply the umask, as open() does
    # (mkstemp's 0o600 would survive the rename)
    tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
