"""Isolation levels.

The engine runs any mix of levels concurrently against shared data — the
paper stresses that mixed-level execution must be supported (Section
2.6.3), and Section 3.8 specifically analyses SI queries mixed with
Serializable SI updates.

Each level is implemented by a :class:`~repro.cc.policy.CCPolicy`
registered in :mod:`repro.cc.registry`; the enum itself only names the
discipline and answers coarse capability questions for tooling.
"""

from __future__ import annotations

import enum
import re


def _normalize(name: str) -> str:
    """Case-fold and collapse separator runs so SQL-style spellings
    (``"REPEATABLE READ"``, ``"repeatable_read"``) compare equal."""
    return re.sub(r"[\s_-]+", " ", name.strip().casefold())


class IsolationLevel(enum.Enum):
    """Per-transaction concurrency control discipline.

    * ``SERIALIZABLE_2PL`` — strict two-phase locking with a blocking
      key-range lock per scan for phantoms: shared locks on reads held to
      commit.
    * ``SNAPSHOT`` — plain snapshot isolation with first-updater-wins
      write locking.  Permits write skew and phantom anomalies.
    * ``SERIALIZABLE_SSI`` — the paper's contribution: SI plus SIREAD
      locks and dangerous-structure detection.  Serializable, reads never
      block writers nor vice versa.
    * ``SERIALIZABLE_SSI_RO`` — Serializable SI plus the Ports & Grittner
      read-only optimization (VLDB 2012): a dangerous structure whose
      incoming transaction is read-only is only unsafe when the outgoing
      transaction committed before the incoming one's snapshot.
    * ``SGT`` — SI plus a full online serialization-graph certifier; the
      precise-but-expensive baseline of Section 2.7.
    """

    SERIALIZABLE_2PL = "s2pl"
    SNAPSHOT = "si"
    SERIALIZABLE_SSI = "ssi"
    SERIALIZABLE_SSI_RO = "ssi-ro"
    SGT = "sgt"

    @property
    def uses_snapshots(self) -> bool:
        return self is not IsolationLevel.SERIALIZABLE_2PL

    @property
    def takes_read_locks(self) -> bool:
        """Does a read acquire a lock at all (blocking or not)?"""
        return self is not IsolationLevel.SNAPSHOT

    @property
    def detects_rw_conflicts(self) -> bool:
        """Does the level track rw-antidependencies at runtime?"""
        return self in (
            IsolationLevel.SERIALIZABLE_SSI,
            IsolationLevel.SERIALIZABLE_SSI_RO,
            IsolationLevel.SGT,
        )

    @classmethod
    def parse(cls, value: "IsolationLevel | str") -> "IsolationLevel":
        """Resolve a level from its enum value, member name, or a SQL-style
        alias.  Matching is case-insensitive and tolerant of ``_``/``-``/
        whitespace separator differences: ``"SSI"``, ``"Serializable"``,
        ``"REPEATABLE READ"`` and ``"snapshot"`` all resolve.
        """
        if isinstance(value, cls):
            return value
        # Memoized on the raw string: the engine parses the level on every
        # begin(), and the regex normalization was ~a quarter of the
        # point-read path before caching.  Unknown spellings keep raising
        # (and are not cached).
        cached = _PARSE_CACHE.get(value)
        if cached is not None:
            return cached
        wanted = _normalize(value)
        for level in cls:
            if wanted in (_normalize(level.value), _normalize(level.name)):
                _PARSE_CACHE[value] = level
                return level
        alias = _ALIASES.get(wanted)
        if alias is not None:
            _PARSE_CACHE[value] = alias
            return alias
        raise ValueError(f"unknown isolation level: {value!r}")


#: SQL-standard spellings mapped onto the engine's disciplines: a request
#: for SERIALIZABLE gets the paper's algorithm, and the levels that SI
#: historically shipped under (PostgreSQL's pre-9.1 SERIALIZABLE was
#: really SI; Oracle calls it SERIALIZABLE too) map to plain snapshots.
_ALIASES: dict[str, IsolationLevel] = {
    "serializable": IsolationLevel.SERIALIZABLE_SSI,
    "repeatable read": IsolationLevel.SNAPSHOT,
    "snapshot": IsolationLevel.SNAPSHOT,
    "snapshot isolation": IsolationLevel.SNAPSHOT,
    "serializable read only optimized": IsolationLevel.SERIALIZABLE_SSI_RO,
}

#: raw spelling -> resolved level, filled lazily by :meth:`IsolationLevel.parse`.
_PARSE_CACHE: dict[str, IsolationLevel] = {}
