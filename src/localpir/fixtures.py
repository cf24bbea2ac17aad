"""Hand-checked reference plans used as ground truth in tests.

Two worked examples are frozen here as data: the 4-cycle at subset size 2
(message length 2) and the complete graph on 4 vertices at subset size 2
(message length 4).  Atoms are logical references (message, position); a
cell like ((1, 2), (2, 1)) is the sum of symbol 2 of message 1 and symbol 1
of message 2.

Every cell was verified by hand against the running-count construction in
`scheme`; decodability of each table was re-derived symbol by symbol.
"""

from __future__ import annotations

from .errors import InvalidFamilyParams
from .graphs import Graph, family

# 4-cycle, subset size 2 at both endpoints, message length 2.
# Rows: desired message -> server -> atoms.
C4_TABLE: dict[int, dict[int, tuple]] = {
    1: {1: (((1, 1), (4, 1)),),
        2: (((1, 2), (2, 1)),),
        3: (((2, 1),),),
        4: (((4, 1),),)},
    2: {1: (((1, 1),),),
        2: (((1, 1), (2, 1)),),
        3: (((2, 2), (3, 1)),),
        4: (((3, 1),),)},
    3: {1: (((4, 1),),),
        2: (((2, 1),),),
        3: (((2, 1), (3, 1)),),
        4: (((3, 2), (4, 1)),)},
    4: {1: (((1, 1), (4, 1)),),
        2: (((1, 1),),),
        3: (((3, 1),),),
        4: (((3, 1), (4, 2)),)},
}

# Complete graph on 4 vertices, subset size 2, message length 4.
# Messages: 1..6 are the lexicographic vertex pairs (1,2),(1,3),(1,4),
# (2,3),(2,4),(3,4).
K4_TABLE: dict[int, dict[int, tuple]] = {
    1: {1: (((1, 1), (2, 1)), ((1, 2), (3, 1)), ((2, 2), (3, 2))),
        2: (((1, 3), (4, 1)), ((1, 4), (5, 1)), ((4, 2), (5, 2))),
        3: (((2, 1),), ((4, 1),)),
        4: (((3, 1),), ((5, 1),))},
    2: {1: (((1, 1), (2, 1)), ((1, 2), (3, 1)), ((2, 2), (3, 2))),
        2: (((1, 1),), ((4, 1),)),
        3: (((2, 3), (4, 1)), ((2, 4), (6, 1)), ((4, 2), (6, 2))),
        4: (((3, 2),), ((6, 1),))},
    3: {1: (((1, 1), (2, 1)), ((1, 2), (3, 1)), ((2, 2), (3, 2))),
        2: (((1, 2),), ((5, 1),)),
        3: (((2, 2),), ((6, 1),)),
        4: (((3, 3), (5, 1)), ((3, 4), (6, 1)), ((5, 2), (6, 2)))},
    4: {1: (((1, 1),), ((2, 1),)),
        2: (((1, 1), (4, 1)), ((1, 2), (5, 1)), ((4, 2), (5, 2))),
        3: (((2, 1), (4, 3)), ((2, 2), (6, 1)), ((4, 4), (6, 2))),
        4: (((5, 2),), ((6, 2),))},
    5: {1: (((1, 2),), ((3, 1),)),
        2: (((1, 1), (4, 1)), ((1, 2), (5, 1)), ((4, 2), (5, 2))),
        3: (((4, 2),), ((6, 2),)),
        4: (((3, 1), (5, 3)), ((3, 2), (6, 1)), ((5, 4), (6, 2)))},
    6: {1: (((2, 2),), ((3, 2),)),
        2: (((4, 2),), ((5, 2),)),
        3: (((2, 1), (4, 1)), ((2, 2), (6, 1)), ((4, 2), (6, 2))),
        4: (((3, 1), (5, 1)), ((3, 2), (6, 3)), ((5, 2), (6, 4)))},
}

# name -> (storage family, its size, table, message length)
_FIXTURES = {"c4": ("cycle", 4, C4_TABLE, 2),
             "k4": ("complete", 4, K4_TABLE, 4)}


def fixture(name: str) -> tuple[Graph, dict[int, dict[int, tuple]], int]:
    """Return (graph, table, message length) for a fixture."""
    if name not in _FIXTURES:
        raise InvalidFamilyParams(f"unknown fixture {name!r}; "
                                  f"known: {tuple(_FIXTURES)}")
    kind, n, table, length = _FIXTURES[name]
    return family(kind, n), table, length
