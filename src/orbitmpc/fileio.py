"""Text file formats shared by the CLI, the plant config and the design bundle.

Two formats only:

* matrix CSV — one row per line, comma separated, no column header,
  decimals printed with 17 significant digits so values round-trip
  bit-exactly.  Lines starting with ``#`` are metadata comments
  (``# key=value``) and are skipped on read; an entry that is not a
  finite number is refused.  The response matrix
  ``R.csv``, disturbance files and the simulate/bench outputs use it;
  ``SCHEMA_VERSION`` is the version their headers record.
* flat key=value config — one ``key = value`` pair per line, no sections.
  A line starting with ``#`` is a comment, and so is the rest of a line
  from a ``#`` that follows whitespace.  A key may appear only once.

The design bundle stores its arrays as ``.npy`` files instead (see
``bundle``).
"""

from __future__ import annotations

import difflib
import os
import re

import numpy as np

from .errors import ConfigError

SCHEMA_VERSION = 1
# a comment that follows whitespace ends a key = value line
_TRAILING_COMMENT = re.compile(r"\s#.*")


def format_float(x: float) -> str:
    """17 significant digits: enough for an exact float64 round trip."""
    return format(float(x), ".17g")


def write_matrix(path, m, header: dict | None = None) -> None:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with open(path, "w") as fh:
        for key, value in (header or {}).items():
            fh.write(f"# {key}={value}\n")
        for row in m:
            fh.write(",".join(format_float(v) for v in row) + "\n")


def read_matrix(path) -> np.ndarray:
    """A matrix CSV as a float array; a ragged, non-numeric or non-finite
    entry raises ConfigError naming path:line."""
    rows, linenos = [], []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rows.append([float(tok) for tok in line.split(",")])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
                linenos.append(lineno)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no numeric rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError(f"{path}: ragged rows")
    m = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0]
        raise ConfigError(f"{path}:{linenos[i]}: non-finite entry {m[i, j]} in column {j + 1}")
    return m


def write_kv(path, pairs: dict) -> None:
    with open(path, "w") as fh:
        for key, value in pairs.items():
            if isinstance(value, float):
                value = format_float(value)
            fh.write(f"{key} = {value}\n")


def read_kv(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = _TRAILING_COMMENT.sub("", line).strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key in pairs:
                    raise ConfigError(f"{path}:{lineno}: key '{key}' given twice")
                pairs[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return pairs


def reject_unknown_keys(path, pairs: dict, known) -> None:
    """Refuse a key outside `known`, naming the closest known key: a
    misspelled key would otherwise be ignored, or fall back to its
    default, without a word."""
    unknown = [key for key in pairs if key not in known]
    if not unknown:
        return
    named = []
    for key in unknown:
        close = difflib.get_close_matches(key, known, n=1)
        named.append(f"'{key}'" + (f" (did you mean '{close[0]}'?)" if close else ""))
    raise ConfigError(f"{path}: unknown config key {', '.join(named)}")


def kv_get(pairs: dict, key: str, convert, default=None):
    """Fetch and convert one config value, raising ConfigError on junk."""
    if key not in pairs:
        if default is not None:
            return default
        raise ConfigError(f"missing config key '{key}'")
    raw = pairs[key]
    try:
        return convert(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key '{key}': bad value {raw!r}") from exc


def parse_float_list(raw: str) -> np.ndarray:
    """Comma-separated floats; a single scalar is also accepted."""
    return np.asarray([float(tok) for tok in str(raw).split(",")], dtype=float)


def resolve_path(base_file, path):
    """Resolve `path` relative to the directory holding `base_file`."""
    if os.path.isabs(path):
        return path
    return os.path.join(os.path.dirname(os.path.abspath(base_file)), path)
