"""HTTP-layer tests: routes, status codes, headers — through ServeClient.

The server runs in-process on an ephemeral port with an inline pool, the
client talks real HTTP over the loopback; everything the CLI smoke test
does over a subprocess boundary is first proven here where failures are
debuggable.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine.jobs import ENGINES, register_engine
from repro.serve import protocol
from repro.serve.client import ClientError, Rejected, ServeClient
from repro.serve.server import make_server


@pytest.fixture
def server():
    httpd = make_server(workers=0, lint=False, queue_limit=4, batch_limit=1)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    httpd.service.close(timeout=10.0, cancel=True)
    thread.join(timeout=5.0)


@pytest.fixture
def client(server):
    return ServeClient(server.url, timeout=10.0)


@pytest.fixture
def sleepy():
    gate = threading.Event()

    def engine(job):
        gate.wait(30.0)
        return True, None, {}

    register_engine("sleepy", engine)
    yield gate
    gate.set()
    ENGINES.pop("sleepy", None)


class TestRoutes:
    def test_check_then_poll_to_verdict(self, client):
        job = client.check(model="RING", properties=["csc"])
        assert job["state"] in ("queued", "running", "done")
        assert job["id"].startswith("j")
        done = client.wait_for(job["id"], timeout=30.0)
        assert done["state"] == "done"
        assert done["results"][0]["verdict"] == "holds"
        assert done["exit_code"] == 0
        assert ServeClient.exit_code(done) == 0

    def test_csc_violation_reports_witness_and_exit_1(self, client):
        done = client.check(model="LAZYRING", properties=["csc"], wait=True)
        result = done["results"][0]
        assert result["verdict"] == "violated"
        assert result["holds"] is False
        assert result["witness"]
        assert done["exit_code"] == 1

    def test_health_and_ready(self, client):
        assert client.healthz() is True
        assert client.readyz() is True

    def test_metrics_document(self, client):
        client.check(model="RING", wait=True)
        document = client.metrics()
        assert document["schema"] == protocol.SCHEMA
        assert document["queue"]["accepted"] >= 1
        assert document["latency"]["total"]["count"] >= 1

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.job("j000000-00000000")
        assert excinfo.value.status == 404

    def test_keep_alive_responses_do_not_stall(self, server):
        """Headers and body leave in two writes; without TCP_NODELAY each
        response after the first on a kept-alive connection waits ~40 ms
        for the client's delayed ACK."""
        host, port = server.server_address[0], server.server_address[1]
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            started = time.perf_counter()
            for _ in range(10):
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.25, f"10 keep-alive GETs took {elapsed:.3f}s"

    def test_unknown_route_is_404(self, client, server):
        for method, path in (("GET", "/nope"), ("POST", "/v1/nope")):
            request = urllib.request.Request(
                f"{server.url}{path}", method=method, data=b"{}" if method == "POST" else None
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5.0)
            assert excinfo.value.code == 404


class TestBadRequests:
    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/check",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["schema"] == protocol.SCHEMA
        assert "not JSON" in payload["error"]

    def test_empty_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/check", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 400

    def test_unknown_model_is_400_with_error_payload(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.check(model="NO-SUCH-MODEL")
        assert excinfo.value.status == 400
        assert "unknown target" in excinfo.value.payload["error"]

    def test_unparsable_source_is_400(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.check(source="this is not astg text")
        assert excinfo.value.status == 400

    def test_bad_property_is_400(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.check(model="RING", properties=["bogus"])
        assert excinfo.value.status == 400


class TestBackpressureOverHttp:
    def test_429_with_retry_after_while_health_stays_green(
        self, client, server, sleepy
    ):
        service = server.service
        blocker = client.check(model="RING", engines=["sleepy"], node_budget=1)
        deadline = time.monotonic() + 10.0
        while service.get(blocker["id"]).state != "running":
            assert time.monotonic() < deadline, "blocker never started"
            time.sleep(0.01)
        # fill the whole queue with distinct requests
        queued = [
            client.check(model="RING", engines=["sleepy"], node_budget=2 + n)
            for n in range(service.queue.limit)
        ]
        with pytest.raises(Rejected) as excinfo:
            client.check(model="RING", engines=["sleepy"], node_budget=999)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 1
        assert excinfo.value.payload["retry_after"] == excinfo.value.retry_after
        # saturated but alive: liveness and readiness both stay green
        assert client.healthz() is True
        assert client.readyz() is True
        sleepy.set()
        for job in [blocker] + queued:
            done = client.wait_for(job["id"], timeout=30.0)
            assert done["state"] == "done"

    def test_503_when_draining(self, client, server):
        server.service.begin_drain()
        assert client.healthz() is True
        assert client.readyz() is False
        with pytest.raises(ClientError) as excinfo:
            client.check(model="RING")
        assert excinfo.value.status == 503


class TestClientErrorMapping:
    def test_unparseable_retry_after_still_raises_rejected(self):
        # HTTP allows Retry-After to be an HTTP-date; a proxy rewriting the
        # header must not turn backpressure into a ValueError
        client = ServeClient("http://unused")
        with pytest.raises(Rejected) as excinfo:
            client._raise_for(
                429, {"retry-after": "Fri, 08 Aug 2026 01:02:03 GMT"}, {}
            )
        assert excinfo.value.retry_after == 1

    def test_retry_after_falls_back_to_payload_hint(self):
        client = ServeClient("http://unused")
        with pytest.raises(Rejected) as excinfo:
            client._raise_for(429, {}, {"retry_after": 7})
        assert excinfo.value.retry_after == 7


class TestDedupOverHttp:
    def test_follower_carries_deduped_of(self, client, server, sleepy):
        primary = client.check(model="RING", engines=["sleepy"])
        deadline = time.monotonic() + 10.0
        while server.service.get(primary["id"]).state != "running":
            assert time.monotonic() < deadline, "primary never started"
            time.sleep(0.01)
        follower = client.check(model="RING", engines=["sleepy"])
        assert follower["deduped_of"] == primary["id"]
        sleepy.set()
        done_primary = client.wait_for(primary["id"], timeout=30.0)
        done_follower = client.wait_for(follower["id"], timeout=30.0)
        assert done_follower["results"] == done_primary["results"]
