"""The branch data of a cover count: a target genus, a degree and the
ordered branch profiles.

Both counting routes take it, the character sums of `hurwitz` and the
brute-force `oracle`, and the command line builds it before it knows which
route runs.  So it sits alone here, and `hur --oracle` compiles no
character sum; `char` and `--help` never load it.
"""

from __future__ import annotations

from collections import namedtuple

from .partitions import check_partition


class BranchData(namedtuple("BranchData", "target_genus degree profiles")):
    """A target genus, a degree, and an ordered list of branch profiles,
    validated on construction."""

    __slots__ = ()

    def __new__(cls, target_genus: int, degree: int, profiles: tuple = ()):
        if target_genus < 0 or degree < 1:
            raise ValueError("need target_genus >= 0 and degree >= 1")
        profiles = tuple(check_partition(p) for p in profiles)
        for p in profiles:
            if sum(p) != degree:
                raise ValueError(f"profile {p} is not a partition of {degree}")
        return super().__new__(cls, target_genus, degree, profiles)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own `_make`, which `_replace` calls, skips `__new__`
        return cls(*iterable)
