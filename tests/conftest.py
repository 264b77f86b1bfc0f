"""Shared fixtures: an in-process stub HTTP server speaking the two wire formats
samplecheck sends (chat completions, and embeddings with string or list input)
with scriptable replies, failure injection, and request recording, which
counts the requests of each path in flight.
Its chat endpoint ignores "n" and returns one choice unless StubState.choices
says otherwise.
It speaks HTTP/1.1 keep-alive and counts the connections it accepts.
embed_fresh embeds texts through embed_cached on a fresh store."""

from __future__ import annotations

import json
import socket
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from samplecheck.pipeline import PartialFailure, embed_cached
from samplecheck.providers import EmbedderConfig, ProviderConfig


class StubState:
    """Mutable behavior of the stub endpoint, shared with the test."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests: list[tuple[str, dict, dict]] = []  # (path, headers, body)
        self.chat_replies: list[str] = ["A"]  # served in turn, one per choice
        # How the chat endpoint treats a request's "n": "one" ignores it and returns
        # one choice, "n" returns n choices, "reject_n" answers HTTP 400 to n > 1.
        self.choices = "one"
        # Most choices to return, one entry consumed per served chat request.
        self.choice_caps: list[int] = []
        self.chat_calls = 0  # chat requests served with a 200
        self.chat_served = 0  # choices served
        self.embed_calls = 0
        self.embed_inputs: list[list[str]] = []  # the texts of each embeddings request
        self.connections = 0
        self.sockets: list[socket.socket] = []
        # Requests of each path in flight (from a body read to the start of its
        # response), now and at most.
        self.in_flight: dict[str, int] = {}
        self.in_flight_max: dict[str, int] = {}
        # Statuses to emit (and consume) before serving real replies, with these headers.
        self.fail_statuses: list[int] = []
        self.fail_headers: dict[str, str] = {}
        self.raw_body: bytes | None = None  # overrides everything when set
        # Responses to cut short: each declares a longer body than it sends, then closes.
        self.truncate = 0
        self.embed_fn = lambda text, model: [1.0, 0.0, 0.0, 0.0]

    def record(self, path: str, headers: dict, body: dict) -> None:
        with self.lock:
            self.requests.append((path, headers, body))
            self.in_flight[path] = self.in_flight.get(path, 0) + 1
            self.in_flight_max[path] = max(self.in_flight_max.get(path, 0),
                                           self.in_flight[path])

    def answered(self, path: str) -> None:
        with self.lock:
            self.in_flight[path] -= 1

    def next_failure(self) -> int | None:
        with self.lock:
            if self.fail_statuses:
                return self.fail_statuses.pop(0)
        return None

    def next_truncation(self) -> bool:
        with self.lock:
            if self.truncate:
                self.truncate -= 1
                return True
        return False

    def next_chat_replies(self, n: int) -> list[str] | None:
        """The replies of one chat request for n choices; None if it is rejected."""
        with self.lock:
            if self.choices == "reject_n" and n > 1:
                return None
            count = n if self.choices == "n" else 1
            if self.choice_caps:
                count = min(count, self.choice_caps.pop(0))
            start = self.chat_served
            self.chat_served += count
            self.chat_calls += 1
            return [self.chat_replies[i % len(self.chat_replies)]
                    for i in range(start, start + count)]

    def record_embed(self, texts: list[str]) -> None:
        with self.lock:
            self.embed_calls += 1
            self.embed_inputs.append(texts)

    def accept(self, sock: socket.socket) -> None:
        with self.lock:
            self.connections += 1
            self.sockets.append(sock)


class _Handler(BaseHTTPRequestHandler):
    state: StubState
    protocol_version = "HTTP/1.1"  # keep-alive, so connection reuse is observable
    recorded = False  # a request of this connection is in flight

    def setup(self) -> None:
        super().setup()
        # Headers and body go out in two writes; without this, Nagle's algorithm
        # holds the body until the client's delayed ACK (~40 ms per response).
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.state.accept(self.connection)

    def log_message(self, *args) -> None:  # keep test output quiet
        pass

    def send_response(self, code: int, message: str | None = None) -> None:
        # A request leaves flight before its response starts, so a client that
        # has read the response never finds it still counted.
        if self.recorded:
            self.state.answered(self.path)
            self.recorded = False
        super().send_response(code, message)

    def _send_json(self, status: int, obj: dict, headers: dict[str, str] | None = None) -> None:
        data = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        headers = {k: v for k, v in self.headers.items()}
        self.state.record(self.path, headers, body)
        self.recorded = True

        if self.state.next_truncation():
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"choices": [')
            self.close_connection = True
            return
        if self.state.raw_body is not None:
            self.send_response(200)
            self.send_header("Content-Length", str(len(self.state.raw_body)))
            self.end_headers()
            self.wfile.write(self.state.raw_body)
            return
        failure = self.state.next_failure()
        if failure is not None:
            self._send_json(failure, {"error": f"injected {failure}"}, self.state.fail_headers)
            return

        try:
            if self.path.endswith("/chat/completions"):
                replies = self.state.next_chat_replies(body.get("n", 1))
                if replies is None:
                    self._send_json(400, {"error": "n must be 1"})
                else:
                    self._send_json(200, {"choices": [
                        {"index": j, "message": {"content": reply}}
                        for j, reply in enumerate(replies)]})
            elif self.path.endswith("/embeddings"):
                texts = body.get("input", "")
                texts = texts if isinstance(texts, list) else [texts]
                self.state.record_embed(texts)
                model = body.get("model", "")
                data = [{"index": i, "embedding": self.state.embed_fn(text, model)}
                        for i, text in enumerate(texts)]
                self._send_json(200, {"data": data})
            else:
                self._send_json(404, {"error": "unknown path"})
        except Exception as exc:  # scripted failures map to HTTP 500
            self._send_json(500, {"error": repr(exc)})


class StubServer:
    def __init__(self) -> None:
        self.state = StubState()
        handler = type("Handler", (_Handler,), {"state": self.state})
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        # A short poll interval keeps shutdown (once per test) quick.
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        # End the handlers still waiting on idle keep-alive connections.
        for sock in self.state.sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


@pytest.fixture
def stub():
    server = StubServer()
    yield server
    server.close()


def embed_fresh(texts: list[str], provider: ProviderConfig, model_id: str) -> list:
    """embed_cached of texts by the http embedder model_id at provider, on a new
    cache directory, so every distinct text is sent; the one error that a
    PartialFailure holds is raised as itself, with its own type and message."""
    embedder = EmbedderConfig(kind="http", model_id=model_id, provider=provider)
    with tempfile.TemporaryDirectory() as cache:
        try:
            return embed_cached(texts, embedder, cache)
        except PartialFailure as exc:
            [error] = {id(e): e for e in exc.failures.values()}.values()
            raise error
