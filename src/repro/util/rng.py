"""Deterministic random-number helpers.

Everything stochastic in the library (synthetic video, scheduler jitter,
workload generators) derives its generator from :func:`make_rng` so that
experiments are reproducible run-to-run.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["make_rng", "derive_rng", "BlockRng"]


def make_rng(seed: int | None = 0) -> np.random.Generator:
    """A :class:`numpy.random.Generator` seeded deterministically."""
    return np.random.default_rng(seed)


def derive_rng(rng: np.random.Generator, *keys: int | str) -> np.random.Generator:
    """Derive an independent child generator from *rng* and a key tuple.

    Hashing the keys keeps child streams stable even if the order in which
    different subsystems draw from the parent changes.
    """
    material = "/".join(str(k) for k in keys).encode()
    digest = hashlib.sha256(b"repro.rng/" + material).digest()
    child_seed = int.from_bytes(digest[:8], "little")
    mix = int(rng.integers(0, 2**31))
    return np.random.default_rng((child_seed, mix))


class BlockRng:
    """Scalar draws of a PCG64 :class:`~numpy.random.Generator`, served
    from blocks — value for value what the generator itself returns.

    The simulator draws one scalar at a time (OS jitter per unbound
    ``Compute``, wake-balance and churn coin flips per placement), and a
    numpy scalar call costs about a microsecond of call overhead. Here
    :meth:`random` and :meth:`uniform` read the next double of a block
    filled by one ``Generator.random(n)`` call instead: the generator
    makes each double from exactly one 64-bit step, in block or scalar
    form alike, and ``uniform`` is computed as numpy computes it,
    ``low + (high - low) * u``.

    :meth:`integers` consumes a variable number of 32-bit halves, so it
    cannot be served from a block. Before each one the generator is put
    exactly where the scalar draws so far would have left it — the state
    saved before the block, advanced by the doubles actually used — and
    the block is dropped. ``PCG64.advance`` clears the cached 32-bit half
    (``has_uint32``/``uinteger``) a previous ``integers`` draw may have
    left behind; doubles never touch that half, so both fields are
    copied back from the saved state. Every value, and the generator
    state after each ``integers`` call, is identical to the plain
    generator's.
    """

    __slots__ = ("generator", "block", "_buf", "_pos", "_len", "_saved")

    #: Doubles drawn per refill. A block is dropped at every
    #: ``integers`` draw, and in the paper regeneration those come every
    #: ~75 doubles: 64-128 minimizes refill cost plus discarded tails.
    BLOCK = 128

    def __init__(self, generator: np.random.Generator, block: int = BLOCK) -> None:
        self.generator = generator
        self.block = block
        self._buf: list[float] = []
        self._pos = 0
        self._len = 0
        #: Bit-generator state saved before the live block was drawn.
        self._saved: dict | None = None

    def random(self) -> float:
        """Next double in [0, 1), as ``Generator.random()``."""
        i = self._pos
        if i == self._len:
            self._refill()
            i = 0
        self._pos = i + 1
        return self._buf[i]

    def uniform(self, low: float, high: float) -> float:
        """Next double in [low, high), as ``Generator.uniform(low, high)``."""
        i = self._pos
        if i == self._len:
            self._refill()
            i = 0
        self._pos = i + 1
        return low + (high - low) * self._buf[i]

    def integers(self, low: int, high: int):
        """``Generator.integers(low, high)``, in sequence with the doubles."""
        if self._pos != self._len:
            self._resync()
        return self.generator.integers(low, high)

    def _refill(self) -> None:
        # Only called once the live block is used up, when the generator
        # already sits where the scalar draws would have left it.
        gen = self.generator
        self._saved = gen.bit_generator.state
        self._buf = gen.random(self.block).tolist()
        self._pos = 0
        self._len = self.block

    def _resync(self) -> None:
        """Give back the unused tail of the live block and drop it."""
        saved = self._saved
        bitgen = self.generator.bit_generator
        bitgen.state = saved
        bitgen.advance(self._pos)
        if saved["has_uint32"] or saved["uinteger"]:
            state = bitgen.state
            state["has_uint32"] = saved["has_uint32"]
            state["uinteger"] = saved["uinteger"]
            bitgen.state = state
        self._pos = self._len = 0
