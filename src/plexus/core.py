"""Shared plumbing: index sets, error type, verdicts, id ordering."""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass


class PlexusError(Exception):
    """Any validation or conformability failure. `code` is machine-readable."""

    def __init__(self, code: str, message: str, location: str | None = None):
        self.code = code
        self.location = location
        super().__init__(message)

    def __str__(self) -> str:
        base = super().__str__()
        if self.location:
            return f"[{self.code}] {base} (at {self.location})"
        return f"[{self.code}] {base}"


@dataclass(frozen=True)
class IndexSet:
    """A named finite index set. Conformability compares both name and size."""

    id: str
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise PlexusError("BAD_INDEX_SET", f"index set {self.id!r} needs size >= 1, got {self.size}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a law check; `witness` carries the first counterexample."""

    ok: bool
    law: str = ""
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


_SPLIT_DIGITS = re.compile(r"(\d+)")


@functools.lru_cache(maxsize=4096)  # diagrams reuse a few ids, and every new diagram sorts them
def natural_key(s: str):
    """Sort key treating decimal digit runs numerically, so v2 < v10; the raw
    id breaks ties, so x01 < x1 and no two ids share a key."""
    return tuple(int(part) if part.isdecimal() else part for part in _SPLIT_DIGITS.split(s)), s


def trial_range(trials: int) -> range:
    """range(trials), refusing fewer than one trial: a law check that draws
    no array would pass without testing anything."""
    if trials < 1:
        raise PlexusError("BAD_REFERENCE", f"trials must be at least 1, got {trials}")
    return range(trials)


def fresh_id(prefix: str, taken) -> str:
    """The first of prefix0, prefix1, ... not in `taken`."""
    n = 0
    while f"{prefix}{n}" in taken:
        n += 1
    return f"{prefix}{n}"
