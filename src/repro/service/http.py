"""The stdlib HTTP/JSON edge of the document service.

Parse-and-route only: every handler decodes the request, calls one
:class:`~repro.service.core.DocumentService` method, and encodes the
answer.  No durability, labeling or concurrency decision lives here —
which is why the whole service is equally testable (and benchable)
without a socket.

Routes::

    POST /docs                        {"xml": ..., "scheme"?: ..., "doc_id"?: ...}
    GET  /docs                        list every document's stats
    GET  /docs/<id>                   one document's stats
    GET  /docs/<id>/xml               the committed snapshot, serialized
    GET  /docs/<id>/query?q=...       XPath-subset query over the snapshot
    GET  /docs/<id>/relationship?first=N&second=M
                                      label-only structural predicates
    POST /docs/<id>/updates           {"op": {...}} or {"ops": [{...}, ...]}
    GET  /docs/<id>/status            writer state machine + queue depth
    POST /docs/<id>/recover           heal a crashed document in place
    GET  /healthz                     service-wide liveness (503 if degraded)

Error mapping: :class:`ServiceError` is 404 for unknown documents and
400 otherwise; a rolled-back transaction (:class:`UpdateAborted`)
is 409 — the document is intact, the request just cannot apply; a
quarantined document (:class:`ServiceCrashed`) is 503 with a
``Retry-After`` header (recovery is quick); a full commit queue
(:class:`ServiceOverloaded`) is 429 with the writer's modeled
``Retry-After``; an expired deadline (:class:`DeadlineExceeded`) is
408.  Every error body is structured — ``error``, ``message``, and
(when the route names a document) the document's ``state`` — so
clients can distinguish "retry now with backoff" from "recover first".

The concurrency model is ``ThreadingHTTPServer``: one thread per
connection, all of them funneling writes into the per-document commit
queues and serving reads from published snapshots.
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    DeadlineExceeded,
    ReproError,
    ServiceCrashed,
    ServiceError,
    ServiceOverloaded,
    UpdateAborted,
)
from repro.service.core import DocumentService

__all__ = ["make_server", "serve", "ServiceRequestHandler"]

_MAX_BODY_BYTES = 8 << 20


def _status_for(error: ReproError) -> int:
    if isinstance(error, ServiceCrashed):
        return 503
    if isinstance(error, ServiceOverloaded):
        return 429
    if isinstance(error, DeadlineExceeded):
        return 408
    if isinstance(error, UpdateAborted):
        return 409
    if isinstance(error, ServiceError) and "unknown document" in str(error):
        return 404
    return 400


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """One request: decode, delegate to the service, encode."""

    server_version = "repro-docservice/1.0"
    protocol_version = "HTTP/1.1"

    # Bound by make_server() on the generated subclass.
    service: DocumentService

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        """Quiet by default; the bench would otherwise drown in lines."""

    def _send_json(self, status: int, payload, headers=None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, status: int, error: BaseException, doc_id: "str | None" = None
    ) -> None:
        """A structured error answer: name, message, document state.

        503 (crashed — recovery is quick) and 429 (overloaded — the
        writer models its own drain time) both carry ``Retry-After``,
        in the header as whole delta-seconds and in the body exact, so
        well-behaved clients back off instead of hammering.
        """
        payload = {"error": type(error).__name__, "message": str(error)}
        headers: dict[str, str] = {}
        if isinstance(error, ServiceOverloaded):
            payload["retry_after"] = error.retry_after
            headers["Retry-After"] = str(max(1, math.ceil(error.retry_after)))
        elif status == 503:
            payload["retry_after"] = 1
            headers["Retry-After"] = "1"
        if doc_id is not None:
            payload["doc_id"] = doc_id
            try:
                payload["state"] = self.service.status(doc_id)["status"]
            except ReproError:
                pass  # unknown document: the message already says so
        self._send_json(status, payload, headers=headers)

    def _read_json_body(self) -> dict:
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            # int() would take "-1", and rfile.read(-1) blocks until the
            # client hangs up.  Where the body ends is unknown, so close
            # the connection after answering.
            self.close_connection = True
            raise ServiceError(
                f"Content-Length must be a non-negative integer, got {header!r}"
            )
        length = int(header)
        if length > _MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError("request body must be a JSON object")
        try:
            body = json.loads(raw)
        except ValueError:
            raise ServiceError("request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        return body

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        query = parse_qs(split.query)
        doc_id = parts[1] if len(parts) >= 2 and parts[0] == "docs" else None
        try:
            payload, status = self._route(method, parts, query)
        except ReproError as error:
            self._send_error_json(_status_for(error), error, doc_id=doc_id)
            return
        except Exception as error:
            # Anything non-repro (an ack timeout, a handler bug) is a
            # server-side failure; answer 500 instead of dropping the
            # connection with a half-written response.
            self._send_error_json(500, error)
            return
        if payload is None:
            self._send_json(
                404, {"error": "NotFound", "message": f"no route {self.path}"}
            )
        else:
            self._send_json(status, payload)

    # -- routing -----------------------------------------------------------

    def _route(self, method, parts, query):
        """Returns ``(payload, status)`` or ``(None, _)`` for no-route."""
        service = self.service
        if parts == ["healthz"] and method == "GET":
            health = service.healthz()
            return health, 200 if health["ok"] else 503
        if parts and parts[0] == "docs":
            if method == "POST" and len(parts) == 1:
                body = self._read_json_body()
                xml = body.get("xml")
                if not isinstance(xml, str) or not xml:
                    raise ServiceError("'xml' must be a non-empty string")
                stats = service.create_document(
                    xml, body.get("scheme"), doc_id=body.get("doc_id")
                )
                return stats, 201
            if method == "GET" and len(parts) == 1:
                return {"documents": service.list_documents()}, 200
            if len(parts) >= 2:
                doc_id = parts[1]
                if method == "GET" and len(parts) == 2:
                    return service.stats(doc_id), 200
                if method == "GET" and parts[2:] == ["xml"]:
                    version, xml = service.xml(doc_id)
                    return {"doc_id": doc_id, "version": version, "xml": xml}, 200
                if method == "GET" and parts[2:] == ["query"]:
                    text = query.get("q", [""])[0]
                    if not text:
                        raise ServiceError("query endpoint needs ?q=<path>")
                    return service.query(doc_id, text), 200
                if method == "GET" and parts[2:] == ["relationship"]:
                    return (
                        service.relationship(
                            doc_id,
                            self._int_param(query, "first"),
                            self._int_param(query, "second"),
                        ),
                        200,
                    )
                if method == "POST" and parts[2:] == ["updates"]:
                    return self._handle_updates(doc_id), 200
                if method == "GET" and parts[2:] == ["status"]:
                    return service.status(doc_id), 200
                if method == "POST" and parts[2:] == ["recover"]:
                    return service.recover(doc_id), 200
        return None, 0

    @staticmethod
    def _int_param(query, name) -> int:
        values = query.get(name)
        if not values:
            raise ServiceError(f"missing required parameter {name!r}")
        try:
            return int(values[0])
        except ValueError:
            raise ServiceError(
                f"parameter {name!r} must be an integer, got {values[0]!r}"
            ) from None

    def _handle_updates(self, doc_id: str) -> dict:
        """Apply one op, or a pipelined list sharing (at most) one batch.

        A multi-op request submits everything before waiting on the
        first ack, so the ops land on the commit queue together and the
        writer is free to coalesce them into a single fsync.  Each op
        still succeeds or fails on its own (per-request isolation).
        """
        body = self._read_json_body()
        if "ops" in body:
            ops = body["ops"]
            if not isinstance(ops, list) or not ops:
                raise ServiceError("'ops' must be a non-empty list")
        elif "op" in body:
            ops = [body["op"]]
        else:
            raise ServiceError("update request needs 'op' or 'ops'")
        futures = [self.service.submit(doc_id, op) for op in ops]
        timeout = self.service.config.ack_timeout
        if "op" in body and len(futures) == 1:
            # Single-op requests surface their failure as the response
            # status (400/409/503 via the ReproError mapping).
            return {"ok": True, "ack": futures[0].result(timeout)}
        acks = []
        for future in futures:
            try:
                acks.append({"ok": True, "ack": future.result(timeout)})
            except (ServiceError, UpdateAborted, ServiceCrashed) as error:
                acks.append(
                    {
                        "ok": False,
                        "error": type(error).__name__,
                        "message": str(error),
                    }
                )
        return {"doc_id": doc_id, "results": acks}

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler contract)
        self._dispatch("POST")


def make_server(
    service: DocumentService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-run threading HTTP server bound to ``service``.

    ``port=0`` picks a free ephemeral port (tests); read it back from
    ``server.server_address``.
    """
    handler = type(
        "BoundServiceRequestHandler",
        (ServiceRequestHandler,),
        {"service": service},
    )
    return ThreadingHTTPServer((host, port), handler)


def serve(
    service: DocumentService, host: str = "127.0.0.1", port: int = 8080
) -> None:
    """Blocking entry point: serve until interrupted, then drain."""
    server = make_server(service, host, port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
