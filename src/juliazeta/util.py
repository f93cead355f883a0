"""Small shared helpers: the JSON number check, atomic artifact writes and
shortest round-trip float formatting."""

from __future__ import annotations

import math
import os
import tempfile


def fmt(x) -> str:
    """Shortest decimal string that round-trips the value."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def is_real(x) -> bool:
    """A finite JSON number.  type(), not isinstance(): JSON true is a
    bool, not the number 1."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:
        return False  # an integer too large for a float


def atomic_write_text(path: str, text: str) -> None:
    """Write `text` to `path` via a temp file + rename in the same dir."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: str, rows) -> None:
    """Write a CSV artifact with round-trip float formatting."""
    lines = [header]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
