"""Latency-modelled stub of OpenAI-style chat-completions and embeddings endpoints.

Run as its own process: ``python3 stub.py``. It prints ``PORT <n>`` once it
listens on 127.0.0.1 and serves until SIGTERM. The latency model and the
embedding dimension are the constants in ``corpus.py``.

- One asyncio thread serves every connection, so the stub never holds more
  threads than cores, whatever the client's concurrency.
- HTTP/1.1 keep-alive. The first request on a new connection is charged
  ``CONNECT_MS`` on top of its service time, standing in for a handshake.
- Service time is a fixed cost per request plus ``EMBED_PER_INPUT_MS`` per
  embeddings input or ``CHAT_PER_CHOICE_MS`` per chat choice, so a batched
  request is not free. The response body is encoded first and the modelled
  delay is counted from then on, so encoding cost does not blur the model.
- ``input`` may be a string or a list of strings; chat honours ``n``. Replies
  come from ``corpus.reply_pool``, served round-robin per prompt, so any k
  consecutive calls for a k-reply case return exactly its pool.
- ``POST /_bench/prepare`` with ``{"prompts": [...], "texts": [...]}`` builds
  those prompts' reply pools and encodes those texts' embeddings ahead of the
  ops that ask for them, so the stub spends little CPU inside a timed op.
- ``GET /_bench/stats`` returns the counters (requests, connections, bytes,
  in-flight maximum since the last stats call, service time, non-200 replies)
  as JSON. Control requests, and connections that only carry them, are not
  counted.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from collections import Counter

import corpus

CONTROL_PREFIX = "/_bench/"


class Model:
    def __init__(self) -> None:
        self.embed = corpus.Embedder(corpus.DIM)
        self.served = Counter()  # chat replies served per prompt
        self.pools: dict[str, list[str]] = {}
        self.vectors: dict[str, bytes] = {}  # text -> its JSON-encoded embedding
        self.writers: set[asyncio.StreamWriter] = set()
        self.stats = dict.fromkeys(
            ("requests", "chat_requests", "chat_choices", "embed_requests", "embed_inputs",
             "connections", "request_bytes", "response_bytes", "non_200", "inflight",
             "inflight_max"), 0)
        self.stats["service_ms"] = 0.0

    def prepare(self, body: dict) -> None:
        """Encode the replies and embeddings the next ops will ask for, ahead of time.

        Each call replaces the previous set; anything not prepared is computed
        when asked for.
        """
        self.pools = {prompt: corpus.reply_pool(prompt) for prompt in body.get("prompts", ())}
        self.vectors = {text: self._encode(text) for text in body.get("texts", ())}

    def _encode(self, text: str) -> bytes:
        return json.dumps(self.embed(text).tolist()).encode()

    def chat(self, body: dict) -> tuple[bytes, float]:
        prompt = body["messages"][-1]["content"]
        n = int(body.get("n", 1))
        pool = self.pools.get(prompt) or corpus.reply_pool(prompt)
        start = self.served[prompt]
        self.served[prompt] += n
        choices = [
            {"index": j, "finish_reason": "stop",
             "message": {"role": "assistant", "content": pool[(start + j) % len(pool)]}}
            for j in range(n)
        ]
        self.stats["chat_requests"] += 1
        self.stats["chat_choices"] += n
        delay = corpus.CHAT_MS + corpus.CHAT_PER_CHOICE_MS * n
        obj = {"object": "chat.completion", "model": body.get("model"), "choices": choices}
        return json.dumps(obj).encode(), delay

    def embeddings(self, body: dict) -> tuple[bytes, float]:
        inputs = body["input"]
        if isinstance(inputs, str):
            inputs = [inputs]
        items = []
        for i, text in enumerate(inputs):
            vector = self.vectors.get(text) or self._encode(text)
            items.append(b'{"object": "embedding", "index": %d, "embedding": %s}' % (i, vector))
        self.stats["embed_requests"] += 1
        self.stats["embed_inputs"] += len(inputs)
        delay = corpus.EMBED_MS + corpus.EMBED_PER_INPUT_MS * len(inputs)
        head = b'{"object": "list", "model": %s, "data": [' % json.dumps(body.get("model")).encode()
        return head + b", ".join(items) + b"]}", delay


def _response(status: int, payload: bytes, keep_alive: bool) -> bytes:
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(status, "Error")
    head = (f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n")
    return head.encode("ascii") + payload


async def _serve_one(model: Model, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
    stats = model.stats
    counted = False
    model.writers.add(writer)
    try:
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            lines = head.decode("latin-1").split("\r\n")
            method, path, version = lines[0].split(" ", 2)
            headers = {}
            for line in lines[1:]:
                if ":" in line:
                    name, value = line.split(":", 1)
                    headers[name.strip().lower()] = value.strip()
            body_bytes = await reader.readexactly(int(headers.get("content-length", "0")))
            keep_alive = (version == "HTTP/1.1"
                          and headers.get("connection", "").lower() != "close")

            if path.startswith(CONTROL_PREFIX):
                status, payload = 200, b"{}"
                if path == CONTROL_PREFIX + "stats":
                    payload = json.dumps(stats).encode()
                    stats["inflight_max"] = stats["inflight"]
                elif path == CONTROL_PREFIX + "prepare":
                    model.prepare(json.loads(body_bytes))
                else:
                    status = 404
                writer.write(_response(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
                continue

            t0 = time.perf_counter()
            delay_ms = 0.0
            if not counted:
                counted = True
                stats["connections"] += 1
                delay_ms += corpus.CONNECT_MS
            stats["requests"] += 1
            stats["request_bytes"] += len(head) + len(body_bytes)
            stats["inflight"] += 1
            stats["inflight_max"] = max(stats["inflight_max"], stats["inflight"])
            try:
                status = 200
                try:
                    body = json.loads(body_bytes)
                    if method != "POST":
                        raise KeyError(method)
                    if path.endswith("/chat/completions"):
                        payload, cost = model.chat(body)
                    elif path.endswith("/embeddings"):
                        payload, cost = model.embeddings(body)
                    else:
                        status, payload, cost = 404, b'{"error": "unknown path"}', 0.0
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    status, payload, cost = 400, json.dumps({"error": repr(exc)}).encode(), 0.0
                delay_ms += cost
                data = _response(status, payload, keep_alive)
                due = time.perf_counter() + delay_ms / 1000.0
                await asyncio.sleep(max(0.0, due - time.perf_counter()))
                writer.write(data)
                stats["service_ms"] += (time.perf_counter() - t0) * 1000.0
            finally:
                stats["inflight"] -= 1
            stats["response_bytes"] += len(data)
            stats["non_200"] += status != 200
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionError, ValueError):  # peer went away, or a malformed request line
        return
    finally:
        model.writers.discard(writer)
        writer.close()


async def _main() -> None:
    model = Model()
    server = await asyncio.start_server(
        lambda r, w: _serve_one(model, r, w), "127.0.0.1", 0, backlog=64)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    print(f"PORT {server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await stop.wait()
        # Close open keep-alive connections so every handler ends on EOF.
        for writer in list(model.writers):
            writer.close()
        for _ in range(200):
            if not model.writers:
                break
            await asyncio.sleep(0.01)


if __name__ == "__main__":
    asyncio.run(_main())
