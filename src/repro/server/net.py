"""Socket transport for the scan/query server.

:class:`BullionServer` binds a listening socket, accepts connections on
a background thread and serves each connection on its own thread —
requests on one connection are sequential (the protocol is strictly
request/response), concurrency comes from many connections, bounded by
the service's admission controller.

Besides the length-prefixed frame protocol the port speaks just enough
HTTP/1.x for infrastructure probes: a peer whose first bytes look like
``GET `` receives ``/health`` (JSON) or ``/metrics`` (Prometheus text
exposition) over a one-shot HTTP response.  Sniffing uses ``MSG_PEEK``
so the frame path never loses bytes.

Per-request accounting (all ``server_*`` families): every request
increments ``server_requests_total{op}`` once and exactly one outcome
of ``server_responses_total{ok|error|rejected|cancelled}``; latency
lands in ``server_request_seconds{op}``; frame bytes feed the
``server_bytes_*_total`` counters.  Client disconnects are detected
*between* scan frames (``select`` + ``MSG_PEEK``), so an abandoned
stream stops promptly, releases its pin and worker slot, and
counts as ``cancelled`` — never as a leak.
"""

from __future__ import annotations

import select
import socket
import threading
import time

from repro.obs import metrics as obs_metrics
from repro.obs import families as fam

from repro.server import protocol
from repro.server.protocol import (
    KNOWN_OPS,
    BadRequest,
    ProtocolError,
    ServerBusy,
    ServerError,
)
from repro.server.service import TableService

__all__ = ["BullionServer", "ClientGone"]


class ClientGone(Exception):
    """The peer vanished mid-request (reset, shutdown, EOF)."""


def _byte_counter(family):
    if not obs_metrics.enabled():
        return None
    return family.inc


def _observe(op: str, started: float) -> None:
    if obs_metrics.enabled():
        fam.SERVER_REQUEST_SECONDS.labels(op=op).observe(
            time.perf_counter() - started
        )


def _outcome(kind: str) -> None:
    if obs_metrics.enabled():
        fam.SERVER_RESPONSES.labels(outcome=kind).inc()


class BullionServer:
    """Serve a :class:`TableService` on a TCP port.

    ``port=0`` (the default) binds an ephemeral port; the bound address
    is ``.host`` / ``.port``.  ``close()`` stops accepting, shuts down
    every live connection and joins all threads — tests assert no
    thread or fd survives it.
    """

    #: how often the accept loop wakes to notice shutdown
    _ACCEPT_TICK_S = 0.2

    def __init__(
        self,
        service: TableService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backlog: int = 128,
    ) -> None:
        self.service = service
        self._sock = socket.create_server((host, port), backlog=backlog)
        self._sock.settimeout(self._ACCEPT_TICK_S)
        self.host, self.port = self._sock.getsockname()[:2]
        self._closed = threading.Event()
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._conn_threads: set[threading.Thread] = set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="bullion-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def __enter__(self) -> "BullionServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, *, close_service: bool = True) -> None:
        """Stop accepting, drop every connection, join every thread."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._accept_thread.join(timeout=10.0)
        self._sock.close()
        with self._lock:
            conns = list(self._conns)
            threads = list(self._conn_threads)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=10.0)
        if close_service:
            self.service.close()

    # -- accept loop ----------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            if self._closed.is_set():
                conn.close()
                break
            thread = threading.Thread(
                target=self._serve_conn,
                args=(conn, addr),
                name=f"bullion-conn-{addr[1]}",
                daemon=True,
            )
            with self._lock:
                self._conns.add(conn)
                self._conn_threads.add(thread)
            if obs_metrics.enabled():
                fam.SERVER_CONNS_OPENED.inc()
                fam.SERVER_CONNS.set(len(self._conns))
            thread.start()

    # -- per-connection loop --------------------------------------------
    def _serve_conn(self, conn: socket.socket, addr) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._sniff_http(conn):
                return
            while not self._closed.is_set():
                try:
                    payload = protocol.read_frame(
                        conn, _byte_counter(fam.SERVER_BYTES_RECEIVED)
                    )
                except (ConnectionError, OSError):
                    break
                if payload is None:
                    break  # clean EOF between frames
                if not self._handle_frame(conn, payload):
                    break
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                self._conns.discard(conn)
                self._conn_threads.discard(threading.current_thread())
                live = len(self._conns)
            if obs_metrics.enabled():
                fam.SERVER_CONNS_CLOSED.inc()
                fam.SERVER_CONNS.set(live)

    def _handle_frame(self, conn, payload: bytes) -> bool:
        """Serve one request frame; False ends the connection."""
        started = time.perf_counter()
        try:
            doc = protocol.loads(payload)
        except ProtocolError as exc:
            self._bump_request("unknown")
            self._send_error(conn, BadRequest(str(exc)))
            _outcome("error")
            _observe("unknown", started)
            return False  # framing is broken; don't trust the stream
        op = doc.get("op")
        metric_op = op if op in KNOWN_OPS else "unknown"
        self._bump_request(metric_op)
        try:
            if op == "scan":
                alive = self._serve_scan(conn, doc)
            else:
                self._serve_single(conn, op, doc)
                alive = True
            _outcome("ok")
            return alive
        except ClientGone:
            if obs_metrics.enabled():
                fam.SERVER_CANCELLED.inc()
            _outcome("cancelled")
            return False
        except ServerBusy as exc:
            _outcome("rejected")
            return self._send_error(conn, exc)
        except ServerError as exc:
            if obs_metrics.enabled():
                fam.SERVER_ERRORS.labels(code=exc.code).inc()
            _outcome("error")
            return self._send_error(conn, exc)
        except (ProtocolError, ValueError, TypeError) as exc:
            return self._fail(conn, BadRequest(str(exc)))
        except OSError as exc:
            # storage fault (injected or real) — the connection itself
            # is healthy, so report and keep serving
            return self._fail(conn, protocol.IOFault(str(exc)))
        except Exception as exc:  # noqa: BLE001 — last-resort boundary
            return self._fail(
                conn, ServerError(f"internal error: {exc!r}")
            )
        finally:
            _observe(metric_op, started)

    def _fail(self, conn, err: ServerError) -> bool:
        if obs_metrics.enabled():
            fam.SERVER_ERRORS.labels(code=err.code).inc()
        _outcome("error")
        return self._send_error(conn, err)

    @staticmethod
    def _bump_request(metric_op: str) -> None:
        if obs_metrics.enabled():
            fam.SERVER_REQUESTS.labels(op=metric_op).inc()

    def _send(self, conn, doc) -> None:
        try:
            protocol.send_frame(
                conn,
                protocol.dumps_canonical(doc),
                _byte_counter(fam.SERVER_BYTES_SENT),
            )
        except (ConnectionError, BrokenPipeError, OSError) as exc:
            raise ClientGone(str(exc)) from None

    def _send_error(self, conn, err: ServerError) -> bool:
        try:
            self._send(conn, err.payload())
        except ClientGone:
            return False
        return True

    # -- dispatch -------------------------------------------------------
    def _serve_single(self, conn, op, doc) -> None:
        service = self.service
        if op == "ping":
            self._send(conn, service.ping(doc))
        elif op == "health":
            self._send(conn, service.health())
        elif op == "metrics":
            self._send(
                conn,
                {"ok": True, "op": "metrics", "text": service.metrics_text()},
            )
        elif op == "tables":
            self._send(conn, service.tables())
        elif op == "snapshot":
            self._send(conn, service.snapshot_info(doc))
        elif op == "query":
            deadline = service.deadline_for(doc)
            service.admission.acquire(deadline)
            try:
                payload = service.query(doc, deadline)
            finally:
                service.admission.release()
            self._send(conn, payload)
        else:
            raise BadRequest(f"unknown op {op!r}")

    def _serve_scan(self, conn, doc) -> bool:
        """Stream a scan; True iff the connection can serve more."""
        service = self.service
        deadline = service.deadline_for(doc)
        service.admission.acquire(deadline)
        payloads = None
        try:
            _sid, payloads = service.scan(
                doc, deadline, checkpoint=lambda: self._check_client(conn)
            )
            for payload in payloads:
                self._send(conn, payload)
            return True
        finally:
            if payloads is not None:
                payloads.close()
            service.admission.release()

    # -- HTTP probe surface ---------------------------------------------
    def _sniff_http(self, conn) -> bool:
        """Serve one HTTP probe if the peer speaks HTTP; True if handled.

        Peeks the first four bytes (``MSG_PEEK``, so the frame path
        loses nothing).  ``b"GET "`` cannot be a legal frame header —
        as a length it exceeds ``MAX_FRAME_BYTES`` — so the sniff is
        unambiguous.
        """
        try:
            conn.settimeout(5.0)
            head = b""
            while len(head) < 4:
                head = conn.recv(4, socket.MSG_PEEK)
                if not head:
                    return True  # peer left before the first request
                if b"GET "[: len(head)] != head:
                    break  # definitely a frame header
        except socket.timeout:
            return True
        except OSError:
            return True
        finally:
            try:
                conn.settimeout(None)
            except OSError:
                return True
        if not head.startswith(b"GET "):
            return False
        try:
            conn.settimeout(5.0)
            request = b""
            while b"\r\n\r\n" not in request and len(request) < 65536:
                chunk = conn.recv(4096)
                if not chunk:
                    return True
                request += chunk
            line = request.split(b"\r\n", 1)[0].decode("latin-1")
            parts = line.split()
            path = parts[1] if len(parts) >= 2 else "/"
            self._bump_request("http")
            status, ctype, body = self._http_response(path)
            head_lines = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            conn.sendall(head_lines.encode("latin-1") + body)
            if obs_metrics.enabled():
                fam.SERVER_BYTES_SENT.inc(len(body))
            _outcome("ok")
        except OSError:
            pass
        return True

    def _http_response(self, path: str) -> tuple[str, str, bytes]:
        path = path.split("?", 1)[0]
        if path == "/health":
            return (
                "200 OK",
                "application/json",
                protocol.dumps_canonical(self.service.health()),
            )
        if path == "/metrics":
            return (
                "200 OK",
                "text/plain; version=0.0.4",
                self.service.metrics_text().encode("utf-8"),
            )
        return ("404 Not Found", "text/plain", b"not found\n")

    @staticmethod
    def _check_client(conn) -> None:
        """Raise :class:`ClientGone` if the peer hung up.

        Between scan frames the only legal peer byte is a new request
        (never sent mid-stream by our client), so readability with an
        empty read — or readability at all, conservatively treated as
        a pipelining violation — means the stream is abandoned.
        """
        try:
            readable, _w, errored = select.select([conn], [], [conn], 0)
            if errored:
                raise ClientGone("socket error")
            if readable:
                peeked = conn.recv(1, socket.MSG_PEEK)
                if not peeked:
                    raise ClientGone("peer closed mid-stream")
        except (OSError, ValueError) as exc:
            raise ClientGone(str(exc)) from None
