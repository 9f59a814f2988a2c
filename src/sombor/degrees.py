"""Internal degree sequences of trees.

A tree is described here by the degrees of its internal (non-pendant)
vertices only, listed in non-increasing order; pendant vertices are
implied.  The empty sequence denotes K2, the unique tree with no
internal vertex, so every operation below is total.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidDegreeSequenceError

_TOKEN_SPLIT = re.compile(r"[\s,]+")


def _check_degree(d, least: int, name: str) -> None:
    if not isinstance(d, int) or isinstance(d, bool):
        raise InvalidDegreeSequenceError(f"degree {d!r} is not an int")
    if d < least:
        raise InvalidDegreeSequenceError(f"{name} must be >= {least}, got {d}")


@dataclass(frozen=True, order=True)
class DegreeSequence:
    """Validated internal degree sequence, stored non-increasing."""

    entries: tuple[int, ...] = ()

    def __post_init__(self):
        for d in self.entries:
            _check_degree(d, 2, "internal degree")
        if any(a < b for a, b in zip(self.entries, self.entries[1:])):
            raise InvalidDegreeSequenceError(
                f"entries must be non-increasing, got {self.entries}"
            )

    @classmethod
    def normalize(cls, raw: Iterable[int]) -> "DegreeSequence":
        """Sort degrees non-increasing and drop pendant entries (1s).

        A DegreeSequence is already normalized and comes back unchanged.
        """
        if isinstance(raw, cls):
            return raw
        kept = []
        for d in raw:
            _check_degree(d, 1, "degree")
            if d >= 2:
                kept.append(d)
        return cls(tuple(sorted(kept, reverse=True)))

    @classmethod
    def from_text(cls, text: str) -> "DegreeSequence":
        """Parse a comma- or whitespace-separated list of degrees."""
        stripped = text.strip()
        if not stripped:
            return cls(())
        tokens = _TOKEN_SPLIT.split(stripped)
        degrees = []
        for tok in tokens:
            try:
                degrees.append(int(tok))
            except ValueError:
                raise InvalidDegreeSequenceError(
                    f"cannot parse degree {tok!r}"
                ) from None
        return cls.normalize(degrees)

    def leaf_count(self) -> int:
        """Number of pendant vertices, sum(d) - 2k + 2."""
        return sum(self.entries) - 2 * len(self.entries) + 2

    def total_vertices(self) -> int:
        """Order of the tree: internal vertices plus pendant vertices."""
        return len(self.entries) + self.leaf_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.entries) if self.entries else "()"
