"""SessionManager policy tests: idempotent routing, LRU+TTL eviction, leases.

The eviction edge cases here are the ones a serving front-end actually hits:
TTL expiry while a batch is still running on the session, LRU eviction
racing an in-flight query, and an idempotent re-open after eviction that
must come back with a warm world-count cache.  Time is injected (a fake
monotonic clock), so every expiry in this file is deterministic.
"""

from __future__ import annotations

import pytest

from repro.server import (
    ExpiredSession,
    Overloaded,
    SessionManager,
    UnknownSession,
    normalise_engine_options,
)
from repro.service import QueryRequest
from repro.service.session import BeliefSession

HEP_KB = "Jaun(Eric) and %(Hep(x) | Jaun(x); x) ~=[1] 0.8"
FLU_KB = "Cough(Ann) and %(Flu(x) | Cough(x); x) ~=[1] 0.6"
BIRD_KB = "Bird(Tweety) and %(Fly(x) | Bird(x); x) ~=[1] 0.9"

# A request that forces the exact-counting path, so the session's
# world-count cache actually fills (the analytic paths never touch it).
COUNTING = QueryRequest(query="Hep(Eric)", method="counting")
TINY_DOMAINS = (4, 6)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def closed_sessions(monkeypatch) -> list:
    """Track BeliefSession.close calls (serial engines need no real cleanup)."""
    closed: list = []
    monkeypatch.setattr(BeliefSession, "close", lambda self: closed.append(self))
    return closed


def manager_with(clock: FakeClock, **kwargs) -> SessionManager:
    kwargs.setdefault("domain_sizes", TINY_DOMAINS)
    return SessionManager(clock=clock, **kwargs)


class TestIdempotentOpen:
    def test_same_kb_returns_same_session(self, clock):
        manager = manager_with(clock)
        first, created_first = manager.open(HEP_KB)
        second, created_second = manager.open(HEP_KB)
        assert created_first is True and created_second is False
        assert first is second
        assert manager.stats()["opened"] == 1 and manager.stats()["reopened"] == 1

    def test_different_kbs_get_different_sessions(self, clock):
        manager = manager_with(clock)
        first, _ = manager.open(HEP_KB)
        second, _ = manager.open(FLU_KB)
        assert first.session_id != second.session_id
        assert set(manager.session_ids()) == {first.session_id, second.session_id}

    def test_session_id_is_the_kb_fingerprint(self, clock):
        manager = manager_with(clock)
        entry, _ = manager.open(HEP_KB)
        assert entry.session_id == entry.session.fingerprint

    def test_engine_options_apply_only_at_creation(self, clock):
        manager = manager_with(clock)
        entry, _ = manager.open(HEP_KB, engine_options={"domain_sizes": (4, 6)})
        again, created = manager.open(HEP_KB, engine_options={"domain_sizes": (8, 12)})
        assert created is False
        assert tuple(again.session.engine.domain_sizes) == (4, 6)


class TestTTL:
    def test_expired_session_is_gone_on_lease(self, clock, closed_sessions):
        manager = manager_with(clock, ttl_seconds=10.0)
        entry, _ = manager.open(HEP_KB)
        clock.advance(11.0)
        with pytest.raises(ExpiredSession):
            with manager.lease(entry.session_id):
                pass  # pragma: no cover - lease must not be granted
        assert manager.stats()["expired"] == 1
        assert closed_sessions == [entry.session]

    def test_use_refreshes_the_ttl(self, clock):
        manager = manager_with(clock, ttl_seconds=10.0)
        entry, _ = manager.open(HEP_KB)
        for _ in range(3):
            clock.advance(6.0)
            with manager.lease(entry.session_id) as session:
                assert session is entry.session
        clock.advance(6.0)  # still within TTL of the last touch
        with manager.lease(entry.session_id):
            pass

    def test_ttl_expiry_mid_batch_finishes_the_batch(self, clock, closed_sessions):
        """Expiry during a lease never yanks the session out from under it."""
        manager = manager_with(clock, ttl_seconds=10.0)
        entry, _ = manager.open(HEP_KB)
        with manager.lease(entry.session_id) as session:
            clock.advance(100.0)  # the TTL elapses while the batch runs
            manager.open(FLU_KB)  # an unrelated open sweeps expired entries
            assert entry.session_id not in manager.session_ids()
            assert closed_sessions == []  # defunct, but not closed mid-batch
            responses = session.submit_many(["Hep(Eric)", "not Hep(Eric)"])
            assert [r.value for r in responses] == pytest.approx([0.8, 0.2])
        assert closed_sessions == [entry.session]  # closed at lease release
        reopened, created = manager.open(HEP_KB)
        assert created is True and reopened.session is not entry.session

    def test_no_ttl_means_no_expiry(self, clock):
        manager = manager_with(clock, ttl_seconds=None)
        entry, _ = manager.open(HEP_KB)
        clock.advance(1e9)
        with manager.lease(entry.session_id):
            pass


class TestLRU:
    def test_capacity_evicts_least_recently_used(self, clock, closed_sessions):
        manager = manager_with(clock, max_sessions=2)
        first, _ = manager.open(HEP_KB)
        second, _ = manager.open(FLU_KB)
        manager.open(HEP_KB)  # touch: FLU becomes the LRU entry
        third, _ = manager.open(BIRD_KB)
        assert set(manager.session_ids()) == {first.session_id, third.session_id}
        assert closed_sessions == [second.session]

    def test_eviction_racing_an_inflight_query(self, clock, closed_sessions):
        """LRU eviction of a leased session defers the close to lease release."""
        manager = manager_with(clock, max_sessions=1)
        entry, _ = manager.open(HEP_KB)
        with manager.lease(entry.session_id) as session:
            manager.open(FLU_KB)  # evicts HEP while it is leased
            assert manager.session_ids() == (manager.open(FLU_KB)[0].session_id,)
            assert closed_sessions == []
            response = session.submit("Hep(Eric)")  # still fully usable
            assert response.value == 0.8
        assert closed_sessions == [entry.session]
        with pytest.raises(UnknownSession):
            with manager.lease(entry.session_id):
                pass  # pragma: no cover

    def test_reopen_after_eviction_starts_with_a_warm_cache(self, clock, closed_sessions):
        """The retained world-count cache survives the session it warmed."""
        manager = manager_with(clock, max_sessions=1)
        entry, _ = manager.open(HEP_KB)
        entry.session.submit(COUNTING)
        warm_info = entry.session.cache_info()
        assert warm_info.entries > 0 and warm_info.misses > 0

        manager.open(FLU_KB)  # evict HEP, retaining its cache
        assert manager.stats()["warm_caches"] == 1

        reopened, created = manager.open(HEP_KB)
        assert created is True and reopened.session is not entry.session
        info = reopened.session.cache_info()
        assert info.entries == warm_info.entries  # warm from the first life
        before_misses, before_memo_hits = info.misses, info.memo_hits
        reopened.session.submit(COUNTING)
        info = reopened.session.cache_info()
        assert info.misses == before_misses  # no re-enumeration...
        assert info.memo_hits > before_memo_hits  # ...the memo rode along too

    def test_warm_cache_retention_is_bounded(self, clock):
        manager = manager_with(clock, max_sessions=2)
        for kb in (HEP_KB, FLU_KB, BIRD_KB, "P(A)", "Q(B)"):
            manager.open(kb)
        assert manager.stats()["warm_caches"] <= 2


class TestAdmission:
    def test_overload_is_rejected_not_queued(self, clock):
        manager = manager_with(clock, max_inflight=2, retry_after=3.0)
        with manager.admit():
            with manager.admit():
                with pytest.raises(Overloaded) as excinfo:
                    with manager.admit():
                        pass  # pragma: no cover
                assert excinfo.value.retry_after == 3.0
            with manager.admit():  # a released slot admits again
                pass
        assert manager.stats()["rejected"] == 1

    def test_bounds_are_validated(self, clock):
        with pytest.raises(ValueError):
            SessionManager(max_sessions=0)
        with pytest.raises(ValueError):
            SessionManager(max_inflight=0)


class TestClose:
    def test_close_closes_every_unleased_session(self, clock, closed_sessions):
        manager = manager_with(clock)
        first, _ = manager.open(HEP_KB)
        second, _ = manager.open(FLU_KB)
        manager.close()
        assert set(closed_sessions) == {first.session, second.session}
        assert manager.session_ids() == ()

    def test_close_defers_leased_sessions(self, clock, closed_sessions):
        manager = manager_with(clock)
        entry, _ = manager.open(HEP_KB)
        with manager.lease(entry.session_id):
            manager.close()
            assert closed_sessions == []
        assert closed_sessions == [entry.session]

    def test_closed_manager_rejects_open_and_lease(self, clock):
        manager = manager_with(clock)
        entry, _ = manager.open(HEP_KB)
        manager.close()
        with pytest.raises(RuntimeError, match="closed"):
            manager.open(FLU_KB)
        with pytest.raises(UnknownSession):
            with manager.lease(entry.session_id):
                pass  # pragma: no cover


class TestConcurrentOpen:
    def test_racing_opens_build_exactly_one_session(self, clock, monkeypatch):
        """The per-fingerprint build gate: N concurrent opens, one build."""
        import threading
        import time as _time

        manager = manager_with(clock)
        builds = []
        original = SessionManager._build_session

        def slow_build(self, *args, **kwargs):
            builds.append(threading.get_ident())
            _time.sleep(0.05)  # widen the race window
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SessionManager, "_build_session", slow_build)
        results = []

        def opener():
            entry, created = manager.open(HEP_KB)
            results.append((entry, created))

        threads = [threading.Thread(target=opener) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1  # one builder, everyone else waited
        assert len({id(entry.session) for entry, _ in results}) == 1
        assert sum(1 for _, created in results if created) == 1
        assert manager.stats()["opened"] == 1 and manager.stats()["reopened"] == 5


class TestWireEngineOptions:
    def test_unknown_option_is_rejected(self):
        with pytest.raises(ValueError, match="cache"):
            normalise_engine_options({"cache": False})

    def test_known_options_are_coerced(self):
        options = normalise_engine_options(
            {
                "domain_sizes": [4, 6],
                "tolerances": [0.1, 0.05],
                "backend": "serial",
                "max_workers": 2,
                "memo": True,
                "memo_size": 128,
            }
        )
        assert options["domain_sizes"] == (4, 6)
        # Tolerances stay plain floats on the wire; the engine coerces them
        # into uniform ToleranceVector ladders itself.
        assert options["tolerances"] == (0.1, 0.05)
        assert options["backend"] == "serial"
        assert options["max_workers"] == 2 and options["memo_size"] == 128
        assert options["memo"] is True

    @pytest.mark.parametrize("backend", ['gpu', 'threads'])
    def test_bad_backend_is_rejected(self, backend):
        with pytest.raises(ValueError, match="backend"):
            normalise_engine_options({"backend": backend})

    def test_none_values_and_empty_payloads_are_dropped(self):
        assert normalise_engine_options(None) == {}
        assert normalise_engine_options({}) == {}
        assert normalise_engine_options({"backend": None}) == {}
