"""``repro.cache`` — content-addressed memoisation of trace diffs.

See :mod:`repro.cache.diffcache` for the design; this package front
door re-exports the working set:

* :class:`DiffCache` / :class:`CacheStats` — the two-tier cache.
* :func:`cached_engine_diff` — the driver choke point (consult, then
  compute-and-store); given a :class:`CacheCall` in place of the cache,
  it also records whether the cache answered that call.
* :func:`cache_key` / :func:`canonical_config` — the key discipline,
  exposed for tests and tooling.
"""

from repro.cache.diffcache import (DEFAULT_MEMORY_ENTRIES, CacheCall,
                                   CacheStats, DiffCache, cache_key,
                                   cached_engine_diff, canonical_config)

__all__ = [
    "DEFAULT_MEMORY_ENTRIES", "CacheCall", "CacheStats", "DiffCache",
    "cache_key", "cached_engine_diff", "canonical_config",
]
