"""ServeDispatcher: correctness, coalescing, caching, containment.

The serving layer's promises (ISSUE 10), each pinned by a test here:
served values are bit-identical to a direct in-process summarize on the
same inputs; a repeat request is pure cache reads with zero compute and
zero generations; identical in-flight requests coalesce onto one future;
the bounded queue sheds load as :class:`ServeBusy`; malformed requests
fail fast as :class:`ServeError` without occupying queue space; a
service restarting over a killed predecessor's root reaps its orphaned
spool staging directories; and a failing worker task is contained
exactly as a battery unit is — retried, then failing only its own
request, with a hung pool rebuilt.
"""

import threading
import time
from pathlib import Path

import pytest

from repro.core import make_generator, registry, summarize
from repro.core.battery import _identity
from repro.generators.barabasi_albert import BarabasiAlbertGenerator
from repro.generators.base import TopologyGenerator
from repro.obs import get_registry
from repro.serve import ServeBusy, ServeDispatcher, ServeError
from repro.stats.rng import derive_seed

N = 150
MODEL = "albert-barabasi"

#: How long the "sleep" fault outruns the timeout dispatcher's limit.
SLEEP_SECONDS = 8.0


class FaultyGenerator(TopologyGenerator):
    """BA(m=2) with an injected worker fault, chosen per request.

    Module-level so it pickles into pool workers.  ``fault`` is
    ``"transient"`` (raise on the first attempt per seed, tracked by a
    sentinel file under ``state_dir``), ``"crash"`` (always raise),
    ``"sleep"`` (sleep :data:`SLEEP_SECONDS` first) or ``""`` (healthy).
    """

    name = "serve-faulty"

    def __init__(self, fault="", state_dir=""):
        self.m = 2
        self.fault = fault
        self.state_dir = state_dir
        self._delegate = BarabasiAlbertGenerator(m=2)

    def generate(self, n, seed=None):
        if self.fault == "crash":
            raise RuntimeError(f"injected crash for seed {seed}")
        if self.fault == "transient":
            sentinel = Path(self.state_dir) / f"attempted-{seed}"
            if not sentinel.exists():
                sentinel.write_text("1")
                raise RuntimeError(f"transient injected crash for seed {seed}")
        if self.fault == "sleep":
            time.sleep(SLEEP_SECONDS)
        return self._delegate.generate(n, seed=seed)


@pytest.fixture
def faulty(monkeypatch):
    """Register :class:`FaultyGenerator` for one test only."""
    monkeypatch.setitem(registry._REGISTRY, FaultyGenerator.name, FaultyGenerator)
    return FaultyGenerator.name


def _counter(name):
    return get_registry().counter(name).value


@pytest.fixture(scope="module")
def dispatcher(tmp_path_factory):
    """One warm module-scoped service: tests share its pool and caches
    exactly the way real traffic shares a long-running server's."""
    d = ServeDispatcher(
        jobs=1, root=tmp_path_factory.mktemp("serve-root"), threads=2
    )
    yield d
    d.shutdown()


class TestSummarizeCorrectness:
    def test_values_bit_identical_to_direct_summarize(self, dispatcher):
        result = dispatcher.call("summarize", {"model": MODEL, "n": N, "seed": 3})
        graph = make_generator(MODEL).generate(N, seed=3)
        direct = summarize(graph, seed=3)
        assert result["values"] == direct.as_dict()

    def test_repeat_is_pure_cache_zero_compute(self, dispatcher):
        params = {"model": MODEL, "n": N, "seed": 4}
        first = dispatcher.call("summarize", params)
        assert first["generated"] == 1
        computed_before = _counter("serve.cells.computed")
        generations_before = _counter("serve.generations.computed")
        second = dispatcher.call("summarize", params)
        assert second["values"] == first["values"]
        assert second["generated"] == 0
        assert second["computed_groups"] == []
        assert set(second["cached_groups"]) == set(second["groups"])
        assert _counter("serve.cells.computed") == computed_before
        assert _counter("serve.generations.computed") == generations_before

    def test_group_subset_reuses_full_battery_cells(self, dispatcher):
        dispatcher.call("summarize", {"model": MODEL, "n": N, "seed": 3})
        result = dispatcher.call(
            "summarize", {"model": MODEL, "n": N, "seed": 3, "groups": "size,tail"}
        )
        assert result["cached_groups"] and not result["computed_groups"]
        assert "num_nodes" in result["values"]

    def test_replicate_addresses_battery_seed(self, dispatcher):
        result = dispatcher.call(
            "summarize", {"model": MODEL, "n": N, "replicate": 2}
        )
        generator = make_generator(MODEL)
        identity, plain = _identity(generator)
        expected = derive_seed("battery-unit", identity, plain, N, 17, 2)
        assert result["seed"] == expected

    def test_generate_then_summarize_shares_the_spool(self, dispatcher):
        spec = {"model": "waxman", "n": N, "seed": 9}
        first = dispatcher.call("generate", spec)
        assert first["num_nodes"] == N
        again = dispatcher.call("generate", spec)
        assert again["generated"] == 0
        assert again["fingerprint"] == first["fingerprint"]
        summary = dispatcher.call("summarize", spec)
        assert summary["generated"] == 0  # topology came from the spool

    def test_compare_scores_against_reference(self, dispatcher):
        result = dispatcher.call("compare", {"model": MODEL, "n": N, "seed": 3})
        assert result["score"] >= 0
        assert result["rows"]
        metrics = {row["metric"] for row in result["rows"]}
        assert "average_degree" in metrics


class TestCoalescing:
    def test_identical_inflight_requests_share_one_future(self, tmp_path):
        # start=False holds the queue undrained, so identical submits are
        # guaranteed to be concurrent — no timing luck involved.
        d = ServeDispatcher(
            jobs=1, root=tmp_path / "root", start=False, prewarm=False
        )
        try:
            params = {"model": MODEL, "n": N, "seed": 5}
            hits_before = _counter("serve.coalesce.hits")
            futures = [d.submit("summarize", params) for _ in range(4)]
            assert len({id(f) for f in futures}) == 1
            assert _counter("serve.coalesce.hits") - hits_before == 3
            d.start(1)
            results = [f.result(timeout=300) for f in futures]
            assert all(r == results[0] for r in results)
            assert results[0]["generated"] == 1
        finally:
            d.shutdown()

    def test_threaded_identical_load_coalesces(self, dispatcher):
        params = {"model": MODEL, "n": N, "seed": 6}
        hits_before = _counter("serve.coalesce.hits")
        barrier = threading.Barrier(4)
        results = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            value = dispatcher.call("summarize", params)
            with lock:
                results.append(value)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        assert all(r["values"] == results[0]["values"] for r in results)
        assert _counter("serve.coalesce.hits") - hits_before >= 1

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        d = ServeDispatcher(
            jobs=1, root=tmp_path / "root", start=False, prewarm=False
        )
        try:
            a = d.submit("summarize", {"model": MODEL, "n": N, "seed": 1})
            b = d.submit("summarize", {"model": MODEL, "n": N, "seed": 2})
            assert a is not b
        finally:
            d.shutdown()


class TestLoadShedding:
    def test_queue_full_raises_serve_busy(self, tmp_path):
        d = ServeDispatcher(
            jobs=1, root=tmp_path / "root", queue_limit=1,
            start=False, prewarm=False,
        )
        try:
            d.submit("summarize", {"model": MODEL, "n": N, "seed": 1})
            rejected_before = _counter("serve.rejected")
            with pytest.raises(ServeBusy, match="queue full"):
                d.submit("summarize", {"model": MODEL, "n": N, "seed": 2})
            assert _counter("serve.rejected") - rejected_before == 1
        finally:
            d.shutdown()

    def test_rejected_request_does_not_stay_inflight(self, tmp_path):
        d = ServeDispatcher(
            jobs=1, root=tmp_path / "root", queue_limit=1,
            start=False, prewarm=False,
        )
        try:
            d.submit("summarize", {"model": MODEL, "n": N, "seed": 1})
            spec = {"model": MODEL, "n": N, "seed": 2}
            with pytest.raises(ServeBusy):
                d.submit("summarize", spec)
            # The rejected key must be gone: a later identical submit is a
            # fresh flight, not a coalesce onto a never-executed future.
            assert len(d._inflight) == 1
        finally:
            d.shutdown()


class TestValidation:
    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        """Plan validation is synchronous — no pool, no threads needed."""
        d = ServeDispatcher(
            jobs=1, root=tmp_path_factory.mktemp("cold"),
            start=False, prewarm=False,
        )
        yield d
        d.shutdown()

    def test_unknown_model(self, cold):
        with pytest.raises(ServeError, match="cannot build model"):
            cold.submit("summarize", {"model": "no-such-model", "n": N})

    def test_unknown_group(self, cold):
        with pytest.raises(ServeError, match="unknown metric group"):
            cold.submit("summarize", {"model": MODEL, "n": N, "groups": "bogus"})

    def test_missing_model(self, cold):
        with pytest.raises(ServeError, match="requires a model"):
            cold.submit("summarize", {"n": N})

    def test_bad_n(self, cold):
        with pytest.raises(ServeError, match="n >= 1"):
            cold.submit("summarize", {"model": MODEL, "n": 0})
        with pytest.raises(ServeError, match="must be an integer"):
            cold.submit("summarize", {"model": MODEL, "n": "many"})
        # Booleans and fractions are not integers, even though int()
        # would silently accept them (True -> 1, 2.9 -> 2).
        for bad in (True, False, 2.9, "2.9", None, [150]):
            with pytest.raises(ServeError, match="must be an integer"):
                cold.submit("summarize", {"model": MODEL, "n": bad})
        with pytest.raises(ServeError, match="seed must be an integer"):
            cold.submit("summarize", {"model": MODEL, "n": N, "seed": 2.9})

    def test_integral_values_and_decimal_strings_accepted(self, cold):
        plain = cold._plan("summarize", {"model": MODEL, "n": N, "seed": 2})
        for n, seed in ((float(N), 2.0), (str(N), "2")):
            plan = cold._plan("summarize", {"model": MODEL, "n": n, "seed": seed})
            assert plan["key"] == plain["key"]

    def test_unknown_op(self, cold):
        with pytest.raises(ServeError, match="unknown operation"):
            cold.submit("frobnicate", {})

    def test_compare_rejects_group_subset(self, cold):
        with pytest.raises(ServeError, match="full battery"):
            cold.submit("compare", {"model": MODEL, "n": N, "groups": "size"})

    def test_invalid_world_id(self, cold):
        for bad in ("", "../etc", "a/b", "x" * 65):
            with pytest.raises(ServeError, match="invalid world id"):
                cold.submit("world_info", {"world": bad})


class TestStagingReapOnRestart:
    def test_restart_reaps_killed_servers_staging(self, tmp_path):
        """Satellite of ISSUE 10: a SIGKILLed server can leave ``.tmp``
        staging dirs mid-publish; the next service start on the same root
        must reap them."""
        root = tmp_path / "service-root"
        first = ServeDispatcher(jobs=1, root=root, start=False, prewarm=False)
        assert first.reaped_at_start == 0
        spool_dir = first.spool.root
        first.shutdown()

        # Simulate the kill: orphaned staging exactly where a crashed
        # publish leaves it, with a partial payload inside.
        orphan = spool_dir / "de" / "deadbeef.tmp"
        orphan.mkdir(parents=True)
        (orphan / "partial.npy").write_bytes(b"\0" * 64)

        second = ServeDispatcher(jobs=1, root=root, start=False, prewarm=False)
        try:
            assert second.reaped_at_start == 1
            assert not orphan.exists()
            assert second.stats()["reaped_at_start"] == 1
        finally:
            second.shutdown()


class TestContainment:
    def test_transient_worker_exception_recovers_on_retry(
        self, dispatcher, faulty, tmp_path
    ):
        params = {"fault": "transient", "state_dir": str(tmp_path)}
        result = dispatcher.call(
            "summarize", {"model": faulty, "n": N, "seed": 3, "params": params}
        )
        assert (tmp_path / "attempted-3").exists()  # the first attempt did fail
        graph = BarabasiAlbertGenerator(m=2).generate(N, seed=3)
        assert result["values"] == summarize(graph, seed=3).as_dict()

    def test_deterministic_exception_fails_only_its_request(
        self, dispatcher, faulty
    ):
        rebuilds = dispatcher.pool.rebuilds
        with pytest.raises(RuntimeError, match="injected crash"):
            dispatcher.call(
                "summarize",
                {"model": faulty, "n": N, "seed": 4, "params": {"fault": "crash"}},
                timeout=300,
            )
        # The pool survived (an exception is not a broken pool) and the
        # next request is served normally.
        assert dispatcher.pool.rebuilds == rebuilds
        result = dispatcher.call("summarize", {"model": faulty, "n": N, "seed": 4})
        assert result["values"]["num_nodes"] == N

    def test_overrunning_task_rebuilds_the_pool(self, tmp_path, faulty):
        d = ServeDispatcher(
            jobs=1, root=tmp_path / "root", threads=1, unit_timeout=3.0,
            retries=0,
        )
        try:
            with pytest.raises(RuntimeError, match="timeout"):
                d.call(
                    "summarize",
                    {"model": faulty, "n": N, "seed": 5, "params": {"fault": "sleep"}},
                    timeout=300,
                )
            assert d.stats()["pool_rebuilds"] >= 1
            result = d.call("summarize", {"model": faulty, "n": N, "seed": 5})
            assert result["values"]["num_nodes"] == N
            assert not list(d.spool.root.rglob("*.tmp"))
        finally:
            d.shutdown()


class TestStats:
    def test_stats_shape(self, dispatcher):
        stats = dispatcher.stats()
        assert stats["jobs"] == 1
        assert stats["queue_limit"] == 64
        assert stats["uptime_seconds"] >= 0
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert any(k.startswith("serve.") for k in stats["counters"])
        # Counters are scoped: unrelated namespaces are filtered out.
        assert all(
            k.split(".")[0] in ("serve", "battery", "cache", "transport", "generator")
            for k in stats["counters"]
        )
