"""One small JSON-over-HTTP server for the long-running services.

``repro serve``'s wire API and ``repro watch``'s ``/metrics`` endpoint both
answer JSON over the stdlib ``ThreadingHTTPServer`` — no event loop and no
new dependency.  Each hands :class:`JsonHttpServer` one *route*: a function
``route(method, path, body) -> (status, body_bytes)`` that owns every
protocol decision (paths, error payloads, status mapping).  This module owns
only the plumbing: bind, serve from a daemon thread, read the request body,
answer with ``Content-Type: application/json``, and stop.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

#: ``route(method, path, body) -> (status, response body)``.
Route = Callable[[str, str, bytes], tuple[int, bytes]]


class JsonHttpServer:
    """Binds on construction; serves ``route`` after :meth:`start`."""

    def __init__(
        self,
        route: Route,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "repro-http",
    ) -> None:
        self._server = ThreadingHTTPServer((host, port), _handler_for(route))
        self._server.daemon_threads = True
        self.address = (host, self._server.server_address[1])
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=name, daemon=True
        )

    def start(self) -> tuple[str, int]:
        """Serve from a daemon thread; returns the bound ``(host, port)``."""
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Stop serving (if started) and release the socket."""
        if self._thread.is_alive():
            self._server.shutdown()
            self._thread.join(timeout=5.0)
        self._server.server_close()


def _handler_for(route: Route) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        # The event bus is each service's narration channel; the default
        # per-request stderr log would drown it.
        def log_message(self, *args: object) -> None:
            pass

        def do_GET(self) -> None:
            self._dispatch("GET")

        def do_POST(self) -> None:
            self._dispatch("POST")

        def _dispatch(self, method: str) -> None:
            length = self.headers.get("Content-Length") or "0"
            if not length.isdecimal():
                # Never reaches the route: the stdlib answers it, as it
                # answers a malformed request line.
                self.send_error(400, "Content-Length must be a byte count")
                return
            status, body = route(method, self.path, self.rfile.read(int(length)))
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    return Handler
