"""HttpTransport and the llm-lock CLI against a local canned endpoint."""

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from benchlock.bench import emit_bench
from benchlock.circuits import c17
from benchlock.cli import main
from benchlock.errors import TransportError
from benchlock.llm import ChatMessage, HttpTransport
from benchlock.locking import LockConfig, lock


class _CannedHandler(BaseHTTPRequestHandler):
    responses: list = []
    requests: list = []
    status_code = 200
    raw_body: bytes | None = None  # sent as is in place of a chat reply

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        if type(self).status_code != 200:
            self.send_response(type(self).status_code)
            self.end_headers()
            return
        payload = type(self).raw_body
        if payload is None:
            content = type(self).responses.pop(0)
            reply = {
                "choices": [
                    {"message": {"role": "assistant", "content": content},
                     "finish_reason": "stop"}
                ]
            }
            payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint():
    server = HTTPServer(("127.0.0.1", 0), _CannedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _CannedHandler.responses = []
    _CannedHandler.requests = []
    _CannedHandler.status_code = 200
    _CannedHandler.raw_body = None
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    thread.join()
    server.server_close()


def test_http_transport_round_trip(endpoint):
    _CannedHandler.responses = ["hello back"]
    transport = HttpTransport(endpoint, api_key="sekrit")
    response = transport.send(
        (ChatMessage("user", "hello"),), "test-model", {"temperature": 0}
    )
    assert response.content == "hello back"
    assert response.finish_reason == "stop"
    sent = _CannedHandler.requests[0]
    assert sent["auth"] == "Bearer sekrit"
    assert sent["body"]["model"] == "test-model"
    assert sent["body"]["temperature"] == 0
    assert sent["body"]["messages"] == [{"role": "user", "content": "hello"}]


def test_http_transport_error_status(endpoint):
    _CannedHandler.status_code = 500
    transport = HttpTransport(endpoint)
    with pytest.raises(TransportError):
        transport.send((ChatMessage("user", "x"),), "m", {})


def test_http_transport_non_json_body(endpoint):
    _CannedHandler.raw_body = b"<html>not json</html>"
    transport = HttpTransport(endpoint)
    with pytest.raises(TransportError, match="malformed chat response"):
        transport.send((ChatMessage("user", "x"),), "m", {})


@pytest.mark.parametrize("body", [
    b'{"choices": ["x"]}',
    b'[{"choices": []}]',
    b'{"choices": [{"message": null}]}',
    b'{"choices": [{"message": {"role": "assistant", "content": null}}]}',
], ids=["choice-is-string", "top-level-list", "message-null", "content-null"])
def test_http_transport_wrong_json_shape(endpoint, body):
    _CannedHandler.raw_body = body
    transport = HttpTransport(endpoint)
    with pytest.raises(TransportError, match="malformed chat response"):
        transport.send((ChatMessage("user", "x"),), "m", {})


def test_http_transport_connection_refused():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    transport = HttpTransport(f"http://127.0.0.1:{port}/v1/chat/completions",
                              timeout_s=5.0)
    with pytest.raises(TransportError, match="chat endpoint failed"):
        transport.send((ChatMessage("user", "x"),), "m", {})


def test_llm_lock_cli_with_live_endpoint(endpoint, tmp_path, monkeypatch):
    monkeypatch.setenv("OBFUS_API_KEY", "k")
    c = c17()
    cfg = LockConfig(key_size=2, keygate_policy="xor_only", seed=5)
    locked, key = lock(c, cfg)
    candidate = f"# key={key.to_string()}\n" + emit_bench(locked.netlist)
    _CannedHandler.responses = [candidate]

    src = tmp_path / "c17.bench"
    src.write_text(emit_bench(c))
    out = tmp_path / "locked.bench"
    keyfile = tmp_path / "c17.key"
    report = tmp_path / "run.json"
    rc = main([
        "llm-lock", "--input", str(src), "--key-size", "2", "--keygate", "xor",
        "--seed", "5", "--endpoint", endpoint, "--model", "test-model",
        "--output", str(out), "--key-out", str(keyfile), "--report", str(report),
    ])
    assert rc == 0
    assert out.read_text() == emit_bench(locked.netlist)
    assert keyfile.read_text().strip().endswith(key.to_string())
    doc = json.loads(report.read_text())
    assert doc["llm_run"]["final_source"] == "llm"
    transcript = report.with_suffix(".transcript.json")
    assert transcript.exists()


def test_llm_lock_cli_fallback_when_endpoint_garbage(endpoint, tmp_path):
    _CannedHandler.responses = ["junk"] * 10
    c = c17()
    src = tmp_path / "c17.bench"
    src.write_text(emit_bench(c))
    out = tmp_path / "locked.bench"
    rc = main([
        "llm-lock", "--input", str(src), "--key-size", "2", "--seed", "5",
        "--endpoint", endpoint, "--fallback", "on", "--retries", "1",
        "--output", str(out), "--key-out", str(tmp_path / "k.key"),
    ])
    assert rc == 0
    locked, _ = lock(c, LockConfig(key_size=2, keygate_policy="xor_only", seed=5))
    assert out.read_text() == emit_bench(locked.netlist)
