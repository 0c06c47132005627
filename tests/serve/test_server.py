"""HTTP layer + client + load harness over one live service.

One module-scoped server backs every test: the HTTP front is a thin
blocking shim over the dispatcher, so what these tests pin is the wire
contract — routes, JSON shapes, the error-to-status mapping (400/404/
409/503), the Prometheus exposition of ``/metrics``, the named-world
endpoints against a real :class:`~repro.store.store.GraphStore`, and the
:func:`~repro.serve.loadgen.run_load` harness end to end.
"""

import json
import urllib.request

import pytest

from repro.serve import (
    ServeClient,
    ServeClientError,
    ServeDispatcher,
    percentile,
    run_load,
    running_server,
)

N = 150
MODEL = "albert-barabasi"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    dispatcher = ServeDispatcher(
        jobs=1, root=tmp_path_factory.mktemp("serve-http"), threads=2
    )
    with running_server(dispatcher) as url:
        yield ServeClient(url)
    dispatcher.shutdown()


class TestEndpoints:
    def test_health(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["jobs"] == 1
        assert health["uptime_seconds"] >= 0

    def test_summarize_round_trip(self, service):
        result = service.summarize(MODEL, N, seed=1)
        assert result["model"] == MODEL
        assert result["values"]["num_nodes"] == N
        repeat = service.summarize(MODEL, N, seed=1)
        assert repeat["values"] == result["values"]
        assert repeat["generated"] == 0

    def test_summarize_with_params_and_groups(self, service):
        result = service.summarize(
            "waxman", N, seed=2, params={"alpha": 0.2}, groups=["size"]
        )
        assert result["groups"] == ["size"]
        assert set(result["values"]) >= {"num_nodes", "num_edges"}

    def test_generate(self, service):
        result = service.generate(MODEL, N, seed=8)
        assert result["num_nodes"] == N
        assert result["fingerprint"]

    def test_compare(self, service):
        result = service.compare(MODEL, N, seed=1)
        assert result["score"] >= 0
        assert result["rows"]

    def test_stats(self, service):
        stats = service.stats()
        assert stats["queue_limit"] == 64
        assert "serve.requests" in stats["counters"]

    def test_metrics_prometheus_exposition(self, service):
        text = service.metrics_text()
        assert "# TYPE serve_requests counter" in text
        assert "serve_request_seconds_count" in text
        assert "serve_queue_depth" in text


class TestErrorMapping:
    def test_unknown_model_is_400(self, service):
        with pytest.raises(ServeClientError) as excinfo:
            service.summarize("no-such-model", N)
        assert excinfo.value.status == 400
        assert "cannot build model" in excinfo.value.message

    def test_unknown_route_is_404(self, service):
        with pytest.raises(ServeClientError) as excinfo:
            service._request("GET", "/frobnicate")
        assert excinfo.value.status == 404

    def test_unknown_world_is_404(self, service):
        with pytest.raises(ServeClientError) as excinfo:
            service.world_info("missing")
        assert excinfo.value.status == 404

    def test_invalid_world_id_is_400(self, service):
        with pytest.raises(ServeClientError) as excinfo:
            service._request("PUT", "/worlds/..", {"model": MODEL, "n": N})
        assert excinfo.value.status == 400

    def test_non_integer_n_is_400(self, service):
        for bad in (True, 2.5):
            with pytest.raises(ServeClientError) as excinfo:
                service._request("POST", "/summarize", {"model": MODEL, "n": bad})
            assert excinfo.value.status == 400
            assert "must be an integer" in excinfo.value.message

    def test_malformed_fields_are_400(self, service):
        for body in (
            {"model": MODEL, "n": N, "params": "abc"},
            {"model": MODEL, "n": N, "params": [1, 2]},
            {"model": MODEL, "n": N, "groups": 5},
        ):
            with pytest.raises(ServeClientError) as excinfo:
                service._request("POST", "/summarize", body)
            assert excinfo.value.status == 400, body
        for every in ("abc", True):
            with pytest.raises(ServeClientError) as excinfo:
                service._request(
                    "PUT", "/worlds/bad-every",
                    {"model": MODEL, "n": N, "checkpoint_every": every},
                )
            assert excinfo.value.status == 400, every
            assert "checkpoint_every" in excinfo.value.message

    def test_non_object_body_is_400(self, service):
        request = urllib.request.Request(
            service.base_url + "/summarize",
            data=json.dumps([1, 2]).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unreachable_server_maps_to_status_zero(self):
        client = ServeClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServeClientError) as excinfo:
            client.health()
        assert excinfo.value.status == 0


class TestWorlds:
    def test_world_lifecycle(self, service):
        saved = service.put_world("staging", MODEL, N, seed=5, checkpoint_every=64)
        assert saved["world"] == "staging"
        assert saved["regenerated"] is True
        assert saved["info"]["num_nodes"] == N

        # Idempotent PUT: a complete identical store is reused, not re-grown.
        again = service.put_world("staging", MODEL, N, seed=5, checkpoint_every=64)
        assert again["regenerated"] is False

        listed = service.worlds()["worlds"]
        assert any(w["world"] == "staging" for w in listed)

        info = service.world_info("staging")
        assert info["info"]["num_nodes"] == N

        summary = service.world_summary("staging")
        assert summary["values"]["num_nodes"] == N

        full = service.world_summarize("staging", seed=0, groups=["size", "tail"])
        assert full["generated"] == 0
        assert full["values"]["num_nodes"] == N

        # Repeat summarize over the same stored world is pure cache.
        warm = service.world_summarize("staging", seed=0, groups=["size", "tail"])
        assert warm["computed_groups"] == []
        assert warm["values"] == full["values"]


class TestLoadHarness:
    def test_run_load_reports_percentiles_and_coalescing(self, service):
        report = run_load(
            service,
            requests=8,
            threads=4,
            models=(MODEL,),
            n=N,
            seeds=1,
            duplicate_rounds=2,
            groups=["size"],
        )
        assert report.errors == 0
        assert report.requests == 8 + 2 * 4
        assert len(report.all_latencies) == report.requests
        assert report.rps > 0
        assert report.p(50) <= report.p(99)
        assert report.coalesce_hits >= 1
        table = report.table()
        assert "p99 ms" in table and "coalesce_hits" in table

    def test_percentile_nearest_rank(self):
        values = [0.01 * i for i in range(1, 101)]
        assert percentile(values, 50) == pytest.approx(0.50)
        assert percentile(values, 99) == pytest.approx(0.99)
        assert percentile([], 50) != percentile([], 50)  # NaN
        assert percentile([7.0], 99) == 7.0
