"""Optional content-addressed disk cache (--cache-dir).

Holds the results of the ``corr`` command only, as JSON blobs keyed by the
sha256 of a canonical parameter string, built by ``key``.  Files are
immutable and safe to delete at any time.  A blob that cannot be read back
as JSON counts as a miss and is overwritten by the next ``put``; a blob that
cannot be written is not stored, and its key stays a miss.  A cache
directory that cannot be made is a usage error.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from fractions import Fraction

# leads every key; change it whenever a blob's content for the same
# parameters changes, so that blobs of the old form are never served
FORMAT = "fockcorr-cache/1"

_cache_dir = None


def key(kind, *parts):
    """The key of a ``kind`` blob: ``FORMAT``, ``kind`` and ``parts`` as
    compact JSON with sorted object keys; a tuple encodes as a list and a
    ``Fraction`` as its string."""
    return json.dumps([FORMAT, kind, *parts], sort_keys=True,
                      separators=(",", ":"), default=_key_part)


def _key_part(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"no canonical cache-key form for {type(obj).__name__}")


def configure(path):
    global _cache_dir
    if path is None:
        _cache_dir = None
        return
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot use cache directory {path!r}: {exc}") from exc
    _cache_dir = path


def enabled():
    return _cache_dir is not None


def _path(key):
    digest = hashlib.sha256(key.encode()).hexdigest()
    return os.path.join(_cache_dir, digest + ".json")


def get(key):
    if _cache_dir is None:
        return None
    try:
        with open(_path(key)) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def put(key, obj):
    if _cache_dir is None:
        return
    # a unique temp name per writer, so concurrent puts of one key cannot
    # interleave; os.replace publishes each complete blob atomically
    try:
        fd, tmp = tempfile.mkstemp(dir=_cache_dir, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(obj))
        os.replace(tmp, _path(key))
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise
