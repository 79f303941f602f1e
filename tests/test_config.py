import json

import pytest

from halgen.config import (
    Config,
    ConfigFileError,
    default_board_map_path,
    default_kb_path,
    load_config,
)
from halgen.experiment import make_backend
from halgen.generation import HttpBackend, KbBackend


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_defaults_validate():
    config = load_config(None)
    assert config.backend == "kb"
    assert config.retrieval_k == 3
    assert config.seed == 42
    assert config.board_map_path == str(default_board_map_path())
    assert config.kb_path == str(default_kb_path())


def test_full_config_file_roundtrip(tmp_path, template_file):
    path = write_config(tmp_path, {
        "backend": "http",
        "http": {
            "endpoint": "http://example.invalid/v1/chat/completions",
            "model": "some-model",
            "auth_env": "MY_TOKEN",
            "timeout_s": 12.5,
            "max_retries": 4,
        },
        "retrieval_k": 5,
        "strict_vetting": True,
        "strict_gating": True,
        "board_map_path": str(default_board_map_path()),
        "template_path": str(template_file),
        "kb_path": str(default_kb_path()),
        "seed": 99,
    })
    config = load_config(path)
    assert config.backend == "http"
    assert config.http.model == "some-model"
    assert config.http.auth_env == "MY_TOKEN"
    assert config.http.timeout_s == 12.5
    assert config.http.max_retries == 4
    assert config.retrieval_k == 5
    assert config.strict_vetting and config.strict_gating
    assert config.seed == 99


def test_partial_http_override_keeps_other_defaults(tmp_path):
    config = load_config(write_config(tmp_path, {"http": {"model": "other"}}))
    assert config.http.model == "other"
    assert config.http.auth_env == "HALGEN_API_KEY"


@pytest.mark.parametrize("data, fragment", [
    ({"backend": "carrier-pigeon"}, "backend"),
    ({"retrieval_k": 0}, "retrieval_k"),
    ({"retrieval_k": "3"}, "retrieval_k"),
    ({"strict_vetting": "yes"}, "strict_vetting"),
    ({"seed": -1}, "seed"),
    ({"seed": 1 << 64}, "seed"),
    ({"http": {"max_retries": -2}}, "max_retries"),
    ({"http": {"timeout_s": "fast"}}, "timeout_s"),
    ({"http": {"bogus": 1}}, "bogus"),
    ({"bogus": 1}, "bogus"),
])
def test_invalid_configs_rejected(tmp_path, data, fragment):
    with pytest.raises(ConfigFileError) as err:
        load_config(write_config(tmp_path, data))
    assert fragment in str(err.value)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{ nope")
    with pytest.raises(ConfigFileError):
        load_config(path)


def test_backend_factory_respects_backend_choice():
    assert isinstance(make_backend(Config(backend="kb")), KbBackend)
    config = Config(backend="http")
    http_backend = make_backend(config)
    assert isinstance(http_backend, HttpBackend)
    assert http_backend.config is config.http
    assert http_backend.config.model == "gpt-4o-mini"
