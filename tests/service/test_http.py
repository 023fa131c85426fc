"""End-to-end HTTP tests: a real socket, real threads, JSON in and out.

One module-scoped server instance (ThreadingHTTPServer on an ephemeral
port) serves every test; each test creates its own documents so state
never leaks between them.  The assertions pin the HTTP contract: route
shapes, the 400/404/409/503-style error mapping, and the pipelined
``ops`` form coalescing into fewer fsyncs than commits.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.errors import SimulatedCrash
from repro.faults import FAULTS, FaultPlan
from repro.service import (
    DocumentService,
    ServiceConfig,
    UpdateRequest,
    make_server,
)

XML = "<root><a><b/></a><c>text</c></root>"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("service-wal")
    service = DocumentService(ServiceConfig(root_dir=str(root), max_batch=8))
    httpd = make_server(service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address
    yield f"http://{host}:{port}"
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5.0)
    service.close()


def call(base, method, path, body=None):
    """Returns (status, decoded-json) without raising on HTTP errors."""
    status, payload, _ = call_full(base, method, path, body)
    return status, payload


def call_full(base, method, path, body=None):
    """Like :func:`call` but also returns the response headers."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def create(base, **extra):
    status, doc = call(base, "POST", "/docs", {"xml": XML, **extra})
    assert status == 201, doc
    return doc


class TestDocumentLifecycle:
    def test_create_returns_stats(self, server):
        doc = create(server)
        assert doc["doc_id"].startswith("doc-")
        assert doc["status"] == "serving"
        assert doc["scheme"] == "QED-Prefix"
        assert doc["nodes"] == 5  # root, a, b, c and the text node

    def test_create_with_explicit_id_and_scheme(self, server):
        doc = create(server, doc_id="mine", scheme="V-CDBS-Containment")
        assert doc["doc_id"] == "mine"
        assert doc["scheme"] == "V-CDBS-Containment"
        status, _ = call(
            server, "POST", "/docs", {"xml": XML, "doc_id": "mine"}
        )
        assert status == 400  # duplicate id

    @pytest.mark.parametrize("xml", ["<a>&#xD800;</a>", "<a>\ud800</a>"])
    def test_create_with_a_character_xml_forbids_is_400(self, server, xml):
        status, payload = call(server, "POST", "/docs", {"xml": xml})
        assert status == 400
        assert payload["error"] == "XMLParseError"

    def test_list_and_single_stats(self, server):
        doc = create(server)
        status, listing = call(server, "GET", "/docs")
        assert status == 200
        assert doc["doc_id"] in {d["doc_id"] for d in listing["documents"]}
        status, stats = call(server, "GET", f"/docs/{doc['doc_id']}")
        assert status == 200
        assert stats["fsyncs_per_commit"] == 0.0


class TestReadEndpoints:
    def test_xml_round_trips_the_snapshot(self, server):
        doc = create(server)
        status, payload = call(server, "GET", f"/docs/{doc['doc_id']}/xml")
        assert status == 200
        assert "<b/>" in payload["xml"]
        assert payload["version"] == 0

    def test_query_runs_on_the_committed_view(self, server):
        doc = create(server)
        status, payload = call(
            server, "GET", f"/docs/{doc['doc_id']}/query?q=//a"
        )
        assert status == 200
        assert payload["count"] == 1
        (match,) = payload["matches"]
        assert match["tag"] == "a"
        assert payload["scan_bytes"] > 0

    def test_relationship_is_label_only(self, server):
        doc = create(server)
        status, payload = call(
            server,
            "GET",
            f"/docs/{doc['doc_id']}/relationship?first=1&second=2",
        )
        assert status == 200
        assert payload["ancestor"] is True
        assert payload["parent"] is True
        assert payload["sibling"] is False

    @pytest.mark.parametrize(
        "path, fragment",
        [
            ("/query", "needs ?q="),
            ("/relationship?first=1", "missing required parameter"),
            ("/relationship?first=1&second=x", "must be an integer"),
            ("/relationship?first=1&second=999", "outside the"),
        ],
    )
    def test_read_endpoint_validation_is_400(self, server, path, fragment):
        doc = create(server)
        status, payload = call(server, "GET", f"/docs/{doc['doc_id']}{path}")
        assert status == 400
        assert fragment in payload["message"]


class TestUpdateEndpoint:
    def test_single_op_acks_after_fsync(self, server):
        doc = create(server)
        status, payload = call(
            server,
            "POST",
            f"/docs/{doc['doc_id']}/updates",
            {"op": {"kind": "insert_child", "parent": 0, "xml": "<new/>"}},
        )
        assert status == 200
        ack = payload["ack"]
        assert ack["lsn"] == 1
        assert ack["inserted_nodes"] == 1
        status, payload = call(server, "GET", f"/docs/{doc['doc_id']}/xml")
        assert "<new/>" in payload["xml"]
        assert payload["version"] == ack["version"]

    def test_pipelined_ops_coalesce_fsyncs(self, server):
        doc = create(server)
        ops = [
            {"kind": "insert_child", "parent": 0, "xml": f"<n{i}/>"}
            for i in range(6)
        ]
        status, payload = call(
            server, "POST", f"/docs/{doc['doc_id']}/updates", {"ops": ops}
        )
        assert status == 200
        assert all(result["ok"] for result in payload["results"])
        status, stats = call(server, "GET", f"/docs/{doc['doc_id']}")
        assert stats["commits_acked"] == 6
        assert stats["fsyncs"] < 6  # group commit actually coalesced

    def test_pipelined_failures_are_per_op(self, server):
        doc = create(server)
        ops = [
            {"kind": "insert_child", "parent": 0, "xml": "<good/>"},
            {"kind": "bogus"},
        ]
        status, payload = call(
            server, "POST", f"/docs/{doc['doc_id']}/updates", {"ops": ops}
        )
        assert status == 200
        good, bad = payload["results"]
        assert good["ok"] is True
        assert bad["ok"] is False
        assert bad["error"] == "ServiceError"

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({}, "needs 'op' or 'ops'"),
            ({"ops": []}, "non-empty list"),
            ({"op": {"kind": "bogus"}}, "unknown update kind"),
            ({"op": {"kind": "delete", "target": 999}}, "outside the"),
        ],
    )
    def test_bad_update_requests_are_400(self, server, body, fragment):
        doc = create(server)
        status, payload = call(
            server, "POST", f"/docs/{doc['doc_id']}/updates", body
        )
        assert status == 400
        assert fragment in payload["message"]


class TestErrorMapping:
    def test_unknown_document_is_404_everywhere(self, server):
        for method, path, body in (
            ("GET", "/docs/ghost", None),
            ("GET", "/docs/ghost/xml", None),
            ("GET", "/docs/ghost/query?q=//a", None),
            ("POST", "/docs/ghost/updates", {"op": {"kind": "delete"}}),
        ):
            status, payload = call(server, method, path, body)
            assert status == 404, path
            assert "unknown document" in payload["message"]

    def test_unrouted_path_is_404(self, server):
        status, payload = call(server, "GET", "/nothing/here")
        assert status == 404
        assert payload["error"] == "NotFound"

    def test_malformed_json_body_is_400(self, server):
        request = urllib.request.Request(
            server + "/docs",
            data=b"this is not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400
        assert "not valid JSON" in json.loads(excinfo.value.read())["message"]

    def test_non_object_json_body_is_400(self, server):
        status, payload = call(server, "POST", "/docs", ["not", "an", "obj"])
        assert status == 400
        assert "JSON object" in payload["message"]

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400(self, server, length):
        def doc_ids():
            documents = call(server, "GET", "/docs")[1]["documents"]
            return {doc["doc_id"] for doc in documents}

        before = doc_ids()
        address = urlsplit(server)
        body = json.dumps({"xml": XML}).encode("utf-8")
        with socket.create_connection(
            (address.hostname, address.port), timeout=5.0
        ) as sock:
            sock.sendall(
                b"POST /docs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + length.encode("ascii") + b"\r\n\r\n"
                + body
            )
            response = http.client.HTTPResponse(sock)
            response.begin()
            payload = json.loads(response.read())
        assert response.status == 400
        assert "Content-Length" in payload["message"]
        assert doc_ids() == before


@pytest.fixture()
def healing(tmp_path):
    """A function-scoped server whose service object the test can reach
    into (to crash, overload, or stall a writer deterministically)."""
    service = DocumentService(ServiceConfig(root_dir=str(tmp_path), max_batch=8))
    httpd = make_server(service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address
    yield f"http://{host}:{port}", service
    FAULTS.disarm()
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5.0)
    service.close()


def crash_writer(service, doc_id):
    """Quarantine one served document at a WAL site, deterministically."""
    writer = service.registry.get(doc_id).writer
    doomed = UpdateRequest(
        op={"kind": "insert_child", "parent": 0, "xml": "<doomed/>"}
    )
    with FAULTS.armed(FaultPlan.crash("wal.fsync", at=1)):
        with pytest.raises(SimulatedCrash):
            writer.apply_batch([doomed])
    assert writer.status == "crashed"
    return writer


class TestRobustnessEndpoints:
    def test_healthz_tracks_crash_and_heal(self, healing):
        base, service = healing
        doc = create(base)
        status, health = call(base, "GET", "/healthz")
        assert status == 200
        assert health["ok"] is True

        crash_writer(service, doc["doc_id"])
        status, health = call(base, "GET", "/healthz")
        assert status == 503
        assert health["ok"] is False
        assert health["by_status"]["crashed"] == 1

        status, outcome = call(
            base, "POST", f"/docs/{doc['doc_id']}/recover"
        )
        assert status == 200
        assert outcome["healed"] is True
        assert outcome["generation"] == 1
        status, health = call(base, "GET", "/healthz")
        assert status == 200

    def test_status_route_exposes_the_state_machine(self, healing):
        base, service = healing
        doc = create(base)
        status, payload = call(base, "GET", f"/docs/{doc['doc_id']}/status")
        assert status == 200
        assert payload["status"] == "serving"
        assert payload["generation"] == 0
        assert payload["crash_cause"] is None
        for counter in (
            "recoveries",
            "retries_deduped",
            "rejected_overload",
            "deadlines_expired",
            "queue_depth",
            "dedup_entries",
        ):
            assert payload[counter] == 0, counter

        crash_writer(service, doc["doc_id"])
        _, payload = call(base, "GET", f"/docs/{doc['doc_id']}/status")
        assert payload["status"] == "crashed"
        assert "SimulatedCrash" in payload["crash_cause"]

    def test_recover_on_a_serving_document_is_a_no_op(self, healing):
        base, _ = healing
        doc = create(base)
        status, outcome = call(
            base, "POST", f"/docs/{doc['doc_id']}/recover"
        )
        assert status == 200
        assert outcome["healed"] is False
        assert outcome["doc_id"] == doc["doc_id"]

    def test_crashed_document_is_503_with_retry_after(self, healing):
        base, service = healing
        doc = create(base)
        writer = crash_writer(service, doc["doc_id"])
        writer.auto_recover = False  # pin the refusal, not the self-heal
        status, payload, headers = call_full(
            base,
            "POST",
            f"/docs/{doc['doc_id']}/updates",
            {"op": {"kind": "insert_child", "parent": 0, "xml": "<x/>"}},
        )
        assert status == 503
        assert payload["error"] == "ServiceCrashed"
        assert payload["state"] == "crashed"
        assert payload["doc_id"] == doc["doc_id"]
        assert payload["retry_after"] == 1
        assert headers["Retry-After"] == "1"

    def test_overloaded_queue_is_429_with_retry_after(self, healing):
        base, service = healing
        doc = create(base)
        service.registry.get(doc["doc_id"]).writer.max_queue = 0
        status, payload, headers = call_full(
            base,
            "POST",
            f"/docs/{doc['doc_id']}/updates",
            {"op": {"kind": "insert_child", "parent": 0, "xml": "<x/>"}},
        )
        assert status == 429
        assert payload["error"] == "ServiceOverloaded"
        assert payload["state"] == "serving"
        assert payload["retry_after"] > 0
        assert int(headers["Retry-After"]) >= 1

    def test_expired_deadline_is_408(self, healing):
        base, service = healing
        doc = create(base)
        writer = service.registry.get(doc["doc_id"]).writer
        # Two clock reads happen for a single queued op: the submit
        # stamp, then the writer's deadline check.  Feeding them 0 and
        # then "much later" expires the op deterministically, however
        # fast the writer thread actually drains.
        reads = iter([0.0])
        writer.clock = lambda: next(reads, 1e6)
        status, payload = call(
            base,
            "POST",
            f"/docs/{doc['doc_id']}/updates",
            {
                "op": {
                    "kind": "insert_child",
                    "parent": 0,
                    "xml": "<x/>",
                    "deadline": 0.5,
                }
            },
        )
        assert status == 408
        assert payload["error"] == "DeadlineExceeded"
        assert "not applied" in payload["message"]
        _, payload = call(base, "GET", f"/docs/{doc['doc_id']}/status")
        assert payload["deadlines_expired"] == 1

    def test_request_id_dedups_over_http(self, healing):
        base, _ = healing
        doc = create(base)
        op = {
            "kind": "insert_child",
            "parent": 0,
            "xml": "<once/>",
            "request_id": "http-rid-1",
        }
        _, first = call(
            base, "POST", f"/docs/{doc['doc_id']}/updates", {"op": op}
        )
        status, second = call(
            base, "POST", f"/docs/{doc['doc_id']}/updates", {"op": op}
        )
        assert status == 200
        assert second["ack"]["deduplicated"] is True
        assert second["ack"]["lsn"] == first["ack"]["lsn"]
        _, payload = call(base, "GET", f"/docs/{doc['doc_id']}/status")
        assert payload["retries_deduped"] == 1
        assert payload["dedup_entries"] == 1
