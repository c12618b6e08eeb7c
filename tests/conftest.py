"""A shared reference for the tests: set partitions, listed one by one."""

import pytest


def _set_partitions(items: tuple) -> list:
    """Every set partition of `items`, as a sorted tuple of sorted blocks: the
    first item either opens a block of its own or joins one block of a set
    partition of the rest."""
    if not items:
        return [()]
    first, out = items[0], []
    for blocks in _set_partitions(items[1:]):
        out.append(((first,),) + blocks)
        for i, block in enumerate(blocks):
            out.append(tuple(sorted(blocks[:i] + ((first,) + block,) + blocks[i + 1:])))
    return out


@pytest.fixture
def set_partitions():
    """All set partitions of range(n), as a function of n: the reference of the
    connected Hodge series and of the oracle's orbit joins."""
    return lambda n: _set_partitions(tuple(range(n)))
