"""The one memoisation policy of the invariant layers.

The invariants are built recursively from the three smoothings, so one
command asks for the same index map, type-1 smoothing rows, difference
writhe or span rows many times.  Every function that caches such
per-diagram results does so through ``memo``: a C ``functools.lru_cache``
(hits stay cheap) bounded by ``MAXSIZE`` and keyed on its arguments: a
hashable, immutable ``Diagram`` (for ``span_table``, ``_knot_vector`` and
``_canonical_fingerprint``, passage tuples, which equal cuts or smoothings
of any diagrams share) and the rest.  Every table is registered in
``TABLES``: ``index_map``, ``type1_rows``, ``dwrithe``, ``span_table``,
``_knot_vector``, ``_canonical_fingerprint`` and ``_b_rows``.

How keys hash: a ``Diagram`` hashes its components once and keeps the
value; a passage tuple is hashed on every lookup, but passages are interned
(``diagram.Passage``) and hash by identity, in C, so that costs no Python
call per passage.  Equal keys therefore hold the same passage objects.

One of them holds fingerprints.  ``_canonical_fingerprint`` computes one on
a canonical component tuple: the crossing-free components dropped and the
rest ordered by their first passage's ``(crossing, strand)``.
``fingerprint`` itself is not memoised: on every call it relabels that
value for its Diagram's own order and crossing-free components
(``fingerprint._relabel`` states the law).  A table keyed on the
fingerprinted Diagram would keep every Diagram it met, to save only a
lookup and a relabel.

A table lives for one unit of work: the command line empties them all with
``clear()`` when a command returns and after each ``batch`` row, so no
command keeps the results of the rows or commands before it.  A library
caller that never calls ``clear()`` keeps one process-wide memo, bounded
per function by ``MAXSIZE``.

``cache_clear()`` on a table (and so ``clear()``) folds the table's hits
and misses into running totals before emptying it, and ``cache_info()``
reports those cumulative counts, so hit ratios taken across many commands
stay correct.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["MAXSIZE", "TABLES", "memo", "clear"]

# Entries per memoised function.
MAXSIZE = 65536

TABLES: list = []


def memo(fn):
    """Memoise ``fn`` under the module's policy and register its table."""
    table = lru_cache(maxsize=MAXSIZE)(fn)
    live_info, live_clear = table.cache_info, table.cache_clear
    folded = [0, 0]  # hits and misses counted before the last clear

    def cache_info():
        info = live_info()
        return info._replace(hits=info.hits + folded[0],
                             misses=info.misses + folded[1])

    def cache_clear():
        info = live_info()
        folded[0] += info.hits
        folded[1] += info.misses
        live_clear()

    table.cache_info = cache_info
    table.cache_clear = cache_clear
    TABLES.append(table)
    return table


def clear() -> None:
    """Empty every memo table, keeping the cumulative hit/miss counts."""
    for table in TABLES:
        table.cache_clear()
