"""Content-addressed on-disk cache for experiment-cell results.

A cell (one ``(machine, variant, config, seed)`` simulation) is pure: its
payload is fully determined by the job spec and the simulator source
tree. The cache therefore keys each entry by the SHA-256 of the job's
canonical JSON encoding and partitions the store by a digest of every
``src/repro/**/*.py`` file — editing any source file silently retires
the whole previous generation of entries, so a regeneration after a code
change never serves stale physics.

Layout::

    <cache root>/
        <source digest>/          # one generation per source tree state
            <aa>/                 # first two hex chars of the job key
                <job key>.json    # {"job": {...}, "payload": ...}

Environment:

* ``REPRO_CACHE_DIR`` — cache root (default ``~/.cache/repro-paper``);
* ``REPRO_CACHE=off|0|no`` — disable the cache entirely (the CLI's
  ``--no-cache`` flag sets the same switch per invocation).

Payloads are JSON (floats survive a dump/load round-trip bit-exactly),
so a warm-cache regeneration is byte-identical to the cold run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

__all__ = ["ResultCache", "source_digest", "default_cache_dir", "cache_enabled"]

_SOURCE_DIGEST: str | None = None


def source_digest() -> str:
    """Digest of the installed ``repro`` source tree (cached per process)."""
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _SOURCE_DIGEST = h.hexdigest()[:16]
    return _SOURCE_DIGEST


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` or the per-user default."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-paper").expanduser()


def cache_enabled() -> bool:
    """False when ``REPRO_CACHE`` is set to off/0/no/false."""
    return os.environ.get("REPRO_CACHE", "on").strip().lower() not in (
        "off", "0", "no", "false",
    )


class ResultCache:
    """Content-addressed store for cell payloads.

    ``digest`` defaults to :func:`source_digest`; tests inject synthetic
    digests to exercise invalidation.
    """

    def __init__(self, root: Path | str | None = None, *, digest: str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.digest = digest if digest is not None else source_digest()
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_env(cls) -> "ResultCache | None":
        """The default cache, or None when ``REPRO_CACHE`` disables it."""
        if not cache_enabled():
            return None
        return cls()

    # -- keying ---------------------------------------------------------------

    def key(self, job) -> str:
        """Stable content key of *job* (independent of the source digest —
        the digest partitions the directory tree instead)."""
        blob = json.dumps(
            {
                "cell": job.cell,
                "params": list(job.params),
                "scale": list(job.scale),
                "seed": job.seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def path_for(self, job) -> Path:
        key = self.key(job)
        return self.root / self.digest / key[:2] / f"{key}.json"

    # -- access ---------------------------------------------------------------

    def get(self, job):
        """The cached payload, or None on a miss (corrupt entries = miss)."""
        path = self.path_for(job)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            entry = None
        if not isinstance(entry, dict) or "payload" not in entry:
            self.misses += 1
            return None
        self.hits += 1
        return entry["payload"]

    def put(self, job, payload) -> None:
        """Store *payload*; atomic rename so readers never see partials."""
        path = self.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"job": job.to_dict(), "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ResultCache {self.root} gen={self.digest} "
            f"hits={self.hits} misses={self.misses}>"
        )
