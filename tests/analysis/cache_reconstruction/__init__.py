"""Reconstructed stale-cache bug classes for the CC analysis.

Each bug module is a self-contained miniature of one historical
invalidation bug: a cache, the version token that should govern it,
one *correct* mutation site (which teaches the model the governance
relation), and the buggy site the checkers and the runtime epoch
tracer must both catch.  ``stamped.py`` is the stamped LRU primitive
the fifth bug (``stamp_after_read.py``) routes through.
"""
