"""hwloc-style CPU-set bitmaps.

A :class:`Bitmap` is an immutable set of non-negative integer indices
(processing-unit numbers). It mirrors the subset of ``hwloc_bitmap_*``
operations that topology traversal and binding need: union, intersection,
difference, inclusion tests, first/last, iteration, and the classic
hwloc list syntax (``"0-3,8,10-11"``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = ["Bitmap"]


class Bitmap:
    """An immutable set of PU indices backed by an int used as a bit field.

    Instances support ``&``, ``|``, ``-``, ``^``, comparison by value, and
    iteration in increasing index order.

    >>> Bitmap.from_list("0-2,5")
    Bitmap('0-2,5')
    >>> Bitmap([0, 1]) | Bitmap([2])
    Bitmap('0-2')
    """

    __slots__ = ("_bits",)

    def __init__(self, indices: Iterable[int] = ()) -> None:
        bits = 0
        for i in indices:
            if i < 0:
                raise ValueError(f"bitmap indices must be >= 0, got {i}")
            bits |= 1 << i
        object.__setattr__(self, "_bits", bits)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_bits(cls, bits: int) -> Bitmap:
        bm = cls.__new__(cls)
        object.__setattr__(bm, "_bits", bits)
        return bm

    @classmethod
    def from_list(cls, text: str) -> Bitmap:
        """Parse hwloc list syntax, e.g. ``"0-3,8,10-11"`` or ``""``."""
        bits = 0
        text = text.strip()
        if text:
            for part in text.split(","):
                part = part.strip()
                if "-" in part:
                    lo_s, hi_s = part.split("-", 1)
                    lo, hi = int(lo_s), int(hi_s)
                    if hi < lo:
                        raise ValueError(f"descending range {part!r}")
                    bits |= ((1 << (hi - lo + 1)) - 1) << lo
                else:
                    bits |= 1 << int(part)
        return cls._from_bits(bits)

    @classmethod
    def range(cls, start: int, stop: int) -> Bitmap:
        """Half-open range ``[start, stop)``, like :func:`range`."""
        if stop <= start:
            return cls._from_bits(0)
        return cls._from_bits(((1 << (stop - start)) - 1) << start)

    @classmethod
    def single(cls, index: int) -> Bitmap:
        if index < 0:
            raise ValueError("index must be >= 0")
        return cls._from_bits(1 << index)

    # -- queries -----------------------------------------------------------

    @property
    def bits(self) -> int:
        """The set as an int bit field (bit i = index i)."""
        return self._bits

    def __contains__(self, index: int) -> bool:
        return index >= 0 and bool(self._bits >> index & 1)

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __iter__(self) -> Iterator[int]:
        # Lowest-set-bit extraction: O(popcount) per full walk, not
        # O(highest index) — singleton cpusets of high PUs are the
        # scheduler's common case.
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def first(self) -> int:
        """Lowest set index; -1 when empty (hwloc convention)."""
        if not self._bits:
            return -1
        return (self._bits & -self._bits).bit_length() - 1

    def last(self) -> int:
        """Highest set index; -1 when empty."""
        if not self._bits:
            return -1
        return self._bits.bit_length() - 1

    def issubset(self, other: Bitmap) -> bool:
        return self._bits & ~other._bits == 0

    def isdisjoint(self, other: Bitmap) -> bool:
        return self._bits & other._bits == 0

    def intersects(self, other: Bitmap) -> bool:
        return not self.isdisjoint(other)

    # -- algebra -----------------------------------------------------------

    def __and__(self, other: Bitmap) -> Bitmap:
        return Bitmap._from_bits(self._bits & other._bits)

    def __or__(self, other: Bitmap) -> Bitmap:
        return Bitmap._from_bits(self._bits | other._bits)

    def __sub__(self, other: Bitmap) -> Bitmap:
        return Bitmap._from_bits(self._bits & ~other._bits)

    def __xor__(self, other: Bitmap) -> Bitmap:
        return Bitmap._from_bits(self._bits ^ other._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(("Bitmap", self._bits))

    # -- rendering ---------------------------------------------------------

    def to_list(self) -> str:
        """Render in hwloc list syntax (inverse of :meth:`from_list`)."""
        runs: list[str] = []
        run_start: int | None = None
        prev = -2
        for i in self:
            if i != prev + 1:
                if run_start is not None:
                    runs.append(_render_run(run_start, prev))
                run_start = i
            prev = i
        if run_start is not None:
            runs.append(_render_run(run_start, prev))
        return ",".join(runs)

    def __repr__(self) -> str:
        return f"Bitmap({self.to_list()!r})"


def _render_run(start: int, stop: int) -> str:
    return str(start) if start == stop else f"{start}-{stop}"
