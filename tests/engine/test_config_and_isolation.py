"""EngineConfig profiles and IsolationLevel parsing."""

import dataclasses

import pytest

from repro.engine.config import DeadlockMode, EngineConfig, LockGranularity
from repro.engine.isolation import IsolationLevel


class TestIsolationLevel:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("si", IsolationLevel.SNAPSHOT),
            ("ssi", IsolationLevel.SERIALIZABLE_SSI),
            ("s2pl", IsolationLevel.SERIALIZABLE_2PL),
            ("sgt", IsolationLevel.SGT),
            ("SNAPSHOT", IsolationLevel.SNAPSHOT),
            (IsolationLevel.SGT, IsolationLevel.SGT),
            ("ssi-ro", IsolationLevel.SERIALIZABLE_SSI_RO),
        ],
    )
    def test_parse(self, token, expected):
        assert IsolationLevel.parse(token) is expected

    @pytest.mark.parametrize(
        "token,expected",
        [
            # Case-insensitive, separator-tolerant spellings.
            ("SSI", IsolationLevel.SERIALIZABLE_SSI),
            ("Si", IsolationLevel.SNAPSHOT),
            ("S2PL", IsolationLevel.SERIALIZABLE_2PL),
            ("SSI_RO", IsolationLevel.SERIALIZABLE_SSI_RO),
            ("serializable_ssi_ro", IsolationLevel.SERIALIZABLE_SSI_RO),
            ("  sgt  ", IsolationLevel.SGT),
            # SQL-standard aliases: SERIALIZABLE gets the paper's
            # algorithm; the levels SI historically shipped under map to
            # plain snapshots.
            ("SERIALIZABLE", IsolationLevel.SERIALIZABLE_SSI),
            ("serializable", IsolationLevel.SERIALIZABLE_SSI),
            ("REPEATABLE READ", IsolationLevel.SNAPSHOT),
            ("repeatable_read", IsolationLevel.SNAPSHOT),
            ("Repeatable-Read", IsolationLevel.SNAPSHOT),
            ("snapshot isolation", IsolationLevel.SNAPSHOT),
            (
                "serializable read only optimized",
                IsolationLevel.SERIALIZABLE_SSI_RO,
            ),
        ],
    )
    def test_parse_aliases(self, token, expected):
        assert IsolationLevel.parse(token) is expected

    @pytest.mark.parametrize(
        "token", ["read-committed", "read uncommitted", "", "serial"]
    )
    def test_parse_rejects_unknown(self, token):
        with pytest.raises(ValueError):
            IsolationLevel.parse(token)

    def test_begin_accepts_aliases(self):
        from repro.engine.config import EngineConfig as _Config
        from repro.engine.database import Database as _Database

        db = _Database(_Config())
        txn = db.begin("REPEATABLE READ")
        assert txn.isolation is IsolationLevel.SNAPSHOT
        txn.abort()
        txn = db.begin("Serializable")
        assert txn.isolation is IsolationLevel.SERIALIZABLE_SSI
        txn.abort()

    def test_classification_flags(self):
        assert not IsolationLevel.SERIALIZABLE_2PL.uses_snapshots
        assert IsolationLevel.SNAPSHOT.uses_snapshots
        assert IsolationLevel.SERIALIZABLE_SSI.detects_rw_conflicts
        assert IsolationLevel.SGT.detects_rw_conflicts
        assert not IsolationLevel.SNAPSHOT.takes_read_locks
        assert IsolationLevel.SERIALIZABLE_2PL.takes_read_locks


class TestConfigProfiles:
    def test_defaults_are_innodb_style(self):
        config = EngineConfig()
        assert config.granularity is LockGranularity.RECORD
        assert config.precise_conflicts
        assert config.deadlock_mode is DeadlockMode.IMMEDIATE
        assert config.eager_cleanup
        assert config.deferred_snapshot
        assert config.siread_upgrade

    def test_innodb_style_equals_defaults(self):
        assert EngineConfig.innodb_style() == EngineConfig()

    def test_berkeleydb_style(self):
        config = EngineConfig.berkeleydb_style()
        assert config.granularity is LockGranularity.PAGE
        assert not config.precise_conflicts
        assert config.deadlock_mode is DeadlockMode.PERIODIC
        assert not config.eager_cleanup

    def test_profile_overrides(self):
        config = EngineConfig.berkeleydb_style(page_size=16, record_history=True)
        assert config.page_size == 16
        assert config.record_history
        config2 = EngineConfig.innodb_style(victim_policy="youngest")
        assert config2.victim_policy == "youngest"

    def test_removed_scan_path_knob_is_rejected(self):
        """The per-row scan path and the up-front page-SIREAD scan path
        are gone, and so are the knobs that selected them; no alias
        lingers (``siread_budget`` escalation is the one coarsening)."""
        with pytest.raises(TypeError):
            EngineConfig(scan_kernel=False)
        with pytest.raises(TypeError):
            EngineConfig(scan_page_lock_threshold=8)


#: The knob census (ROADMAP 7a): every ``EngineConfig`` field, with the
#: ``benchmarks/bench_ablation_*`` file or the DESIGN.md "Design choices
#: called out for ablation benches" bullet that exercises it.  A new
#: field must be added here and say which one; "none" marks the fields
#: the census still owes an ablation or a constant.
KNOB_CENSUS = {
    "granularity": "bench_ablation_granularity.py",
    "page_size": "bench_ablation_granularity.py",
    "precise_conflicts": "bench_ablation_tracker.py",
    "siread_upgrade": "bench_ablation_engine_knobs.py",
    "deferred_snapshot": "bench_ablation_engine_knobs.py",
    "victim_policy": "bench_ablation_engine_knobs.py",
    "deadlock_mode": "bench_ablation_timeout.py",
    "eager_cleanup": "bench_ablation_cleanup.py",
    "cleanup_threshold": "bench_ablation_cleanup.py",
    "record_history": "none (test oracle switch, not a tunable)",
    "wal_flush_on_commit": "bench_ablation_wal.py",
    "lock_timeout": "bench_ablation_timeout.py",
    "siread_budget": "none (DESIGN: SIREAD escalation)",
}


class TestKnobCensus:
    def test_field_set_is_pinned(self):
        fields = [field.name for field in dataclasses.fields(EngineConfig)]
        assert len(fields) == 13
        assert set(fields) == set(KNOB_CENSUS)

    @pytest.mark.parametrize(
        "profile", [EngineConfig.innodb_style, EngineConfig.berkeleydb_style]
    )
    def test_profiles_accept_every_field_as_an_override(self, profile):
        flipped = {
            "granularity": LockGranularity.PAGE,
            "deadlock_mode": DeadlockMode.PERIODIC,
            "victim_policy": "oldest",
            "page_size": 5,
            "cleanup_threshold": 7,
            "lock_timeout": 1.5,
            "siread_budget": 99,
        }
        for name in KNOB_CENSUS:
            value = flipped.get(name)
            if value is None:  # the booleans: flip the profile's own value
                value = not getattr(profile(), name)
            assert getattr(profile(**{name: value}), name) == value
