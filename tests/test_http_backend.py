"""HTTP backend contract, exercised against a local stub server only."""

import json
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from halgen.analysis import ElementKind, MissingElement
from halgen.c_ast import SourceSpan
from halgen.config import HttpSettings
from halgen.generation import (
    AUTH,
    MALFORMED_RESPONSE,
    NETWORK,
    RATE_LIMIT,
    BackendError,
    HttpBackend,
)
from halgen.prompting import build_prompt

SPAN = SourceSpan("t.c", 1, 1, 1, 1)

# The exact bytes sent for sample_prompt(): key order, separators and escaping.
EXPECTED_BODY = (
    r"""{"model": "gpt-4o-mini", "temperature": 0, "messages": ["""
    r"""{"role": "system", "content": "You will be my Custom Hardware Abstraction Layer Generator."}, """
    r"""{"role": "user", "content": "Please generate a custom C function implementation for the """
    r"""function 'set_io_mode' with 3 parameters like: GPIOA_BASE, 0x20, 1.\n\n"""
    r"""Don'ts:\n- Don't reference new variables or functions that are not implemented.\n"""
    r"""- Don't reference stm32fxxx_hal.h functions.\n\n"""
    r"""Return-Format:\n- Return only the C code for the requested element.\n"""
    r"""- Be well-documented with comments explaining its purpose, parameters, and return value.\n"""
    r"""- Create your own custom HAL functions without referencing other functions.\n\n"""
    r"""Create the set_io_mode using the provided information about the existing code for an """
    r"""STM32F407 board: No existing context available."}]}"""
)


def sample_prompt():
    elem = MissingElement("set_io_mode", ElementKind.FUNCTION, SPAN, False,
                          arity=3, sample_args=["GPIOA_BASE", "0x20", "1"])
    return build_prompt(elem, None, [])


class StubServer:
    """Minimal chat-completion endpoint that records every request."""

    def __init__(self):
        self.requests: list[dict] = []
        self.responses: list[tuple[int, bytes]] = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                stub.requests.append({
                    "path": self.path,
                    "headers": dict(self.headers),
                    "body": self.rfile.read(length).decode("utf-8"),
                })
                status, body = stub.responses.pop(0) if stub.responses else (
                    200, json.dumps({"choices": [{"message": {"content": "stub body"}}]}).encode())
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
        self.thread.start()

    @property
    def endpoint(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def queue(self, status: int, body: bytes):
        self.responses.append((status, body))

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def stub():
    server = StubServer()
    yield server
    server.close()


@pytest.fixture()
def backend_config(stub):
    return HttpSettings(endpoint=stub.endpoint, model="gpt-4o-mini",
                        auth_env="HALGEN_TEST_TOKEN", timeout_s=5.0, max_retries=0)


@pytest.fixture()
def token_env(monkeypatch):
    monkeypatch.setenv("HALGEN_TEST_TOKEN", "sekrit-token")


def test_request_wire_format(stub, backend_config, token_env):
    backend = HttpBackend(backend_config)
    result = backend.generate(sample_prompt())
    assert result.raw_text == "stub body"
    assert result.backend_id == "http"
    assert result.call_index == 1

    assert len(stub.requests) == 1
    request = stub.requests[0]
    assert '"temperature": 0' in request["body"]
    payload = json.loads(request["body"])
    assert payload["temperature"] == 0
    assert payload["model"] == "gpt-4o-mini"
    roles = [m["role"] for m in payload["messages"]]
    assert roles == ["system", "user"]
    assert payload["messages"][0]["content"] == \
        "You will be my Custom Hardware Abstraction Layer Generator."
    user = payload["messages"][1]["content"]
    assert "set_io_mode" in user
    assert "Don't reference stm32fxxx_hal.h functions." in user


def test_request_body_bytes(stub, backend_config, token_env):
    HttpBackend(backend_config).generate(sample_prompt())
    assert stub.requests[0]["body"] == EXPECTED_BODY


def test_auth_header_comes_from_environment(stub, backend_config, token_env):
    HttpBackend(backend_config).generate(sample_prompt())
    assert stub.requests[0]["headers"]["Authorization"] == "Bearer sekrit-token"


def test_missing_token_is_auth_error(stub, backend_config, monkeypatch):
    monkeypatch.delenv("HALGEN_TEST_TOKEN", raising=False)
    with pytest.raises(BackendError) as err:
        HttpBackend(backend_config).generate(sample_prompt())
    assert err.value.category == AUTH
    assert stub.requests == []  # never even sent


@pytest.mark.parametrize("token", ["t\u00f6k\u20acn", "abc\ndef"])
def test_unsendable_token_is_auth_error(stub, backend_config, monkeypatch, token):
    monkeypatch.setenv("HALGEN_TEST_TOKEN", token)
    with pytest.raises(BackendError) as err:
        HttpBackend(backend_config).generate(sample_prompt())
    assert err.value.category == AUTH
    assert stub.requests == []


def test_malformed_json_response(stub, backend_config, token_env):
    stub.queue(200, b"this is not json {")
    with pytest.raises(BackendError) as err:
        HttpBackend(backend_config).generate(sample_prompt())
    assert err.value.category == MALFORMED_RESPONSE


def test_missing_choices_key_is_malformed(stub, backend_config, token_env):
    stub.queue(200, json.dumps({"unexpected": True}).encode())
    with pytest.raises(BackendError) as err:
        HttpBackend(backend_config).generate(sample_prompt())
    assert err.value.category == MALFORMED_RESPONSE


@pytest.mark.parametrize("status,category", [(401, AUTH), (403, AUTH), (429, RATE_LIMIT),
                                             (500, NETWORK)])
def test_status_code_categories(stub, backend_config, token_env, status, category):
    stub.queue(status, b"{}")
    with pytest.raises(BackendError) as err:
        HttpBackend(backend_config).generate(sample_prompt())
    assert err.value.category == category


def test_connection_refused_is_network_error(token_env):
    config = HttpSettings(endpoint="http://127.0.0.1:1/nothing",
                          auth_env="HALGEN_TEST_TOKEN", timeout_s=0.5, max_retries=0)
    with pytest.raises(BackendError) as err:
        HttpBackend(config).generate(sample_prompt())
    assert err.value.category == NETWORK


def test_retry_then_success(stub, backend_config, token_env):
    sleeps = []
    config = replace(backend_config, max_retries=2)
    stub.queue(429, b"{}")
    stub.queue(200, json.dumps({"choices": [{"message": {"content": "after retry"}}]}).encode())
    backend = HttpBackend(config, sleep=sleeps.append)
    result = backend.generate(sample_prompt())
    assert result.raw_text == "after retry"
    assert len(stub.requests) == 2
    assert sleeps == [1.0]


@pytest.mark.parametrize("failures, expected_sleeps", [
    (1, [1.0]),
    (2, [1.0, 4.0]),
    (3, [1.0, 4.0, 4.0]),
])
def test_retry_delay_schedule(stub, backend_config, token_env, failures, expected_sleeps):
    sleeps = []
    for _ in range(failures):
        stub.queue(503, b"{}")
    backend = HttpBackend(replace(backend_config, max_retries=3), sleep=sleeps.append)
    assert backend.generate(sample_prompt()).raw_text == "stub body"
    assert sleeps == expected_sleeps
    assert len(stub.requests) == failures + 1


def test_retries_stop_after_max_retries(stub, backend_config, token_env):
    sleeps = []
    for _ in range(3):
        stub.queue(429, b"{}")
    with pytest.raises(BackendError) as err:
        HttpBackend(replace(backend_config, max_retries=2), sleep=sleeps.append).generate(
            sample_prompt())
    assert err.value.category == RATE_LIMIT
    assert sleeps == [1.0, 4.0]
    assert len(stub.requests) == 3


def test_auth_failures_are_not_retried(stub, backend_config, token_env):
    sleeps = []
    stub.queue(401, b"{}")
    with pytest.raises(BackendError):
        HttpBackend(replace(backend_config, max_retries=3), sleep=sleeps.append).generate(
            sample_prompt())
    assert len(stub.requests) == 1
    assert sleeps == []
