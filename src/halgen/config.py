"""Tool configuration: defaults, JSON config files, and bundled data paths."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from urllib.parse import urlsplit

from halgen.errors import HalgenError

_DATA_DIR = Path(__file__).resolve().parent / "data"


class ConfigFileError(HalgenError):
    pass


def data_path(*parts: str) -> Path:
    return _DATA_DIR.joinpath(*parts)


def default_board_map_path() -> Path:
    return data_path("boards", "stm32f407.json")


def default_scenario_path() -> Path:
    return data_path("scenarios", "demo_scenario.json")


def default_kb_path() -> Path:
    return data_path("kb")


def default_project_path() -> Path:
    return data_path("demo_project")


# Longest accepted request timeout; sockets overflow far above it.
MAX_TIMEOUT_S = 86400.0


@dataclass
class HttpSettings:
    """Settings of the HTTP chat-completion backend (`config.http`)."""

    endpoint: str = "http://localhost:8080/v1/chat/completions"
    model: str = "gpt-4o-mini"
    auth_env: str = "HALGEN_API_KEY"
    timeout_s: float = 30.0
    max_retries: int = 2


@dataclass
class Config:
    backend: str = "kb"
    http: HttpSettings = field(default_factory=HttpSettings)
    retrieval_k: int = 3
    strict_vetting: bool = False
    strict_gating: bool = False
    board_map_path: str = str(default_board_map_path())
    template_path: str | None = None
    kb_path: str = str(default_kb_path())
    seed: int = 42

    def validate(self) -> None:
        if self.backend not in ("kb", "http"):
            raise ConfigFileError(f"backend must be 'kb' or 'http', not {self.backend!r}")
        for name, value in (("retrieval_k", self.retrieval_k), ("seed", self.seed),
                            ("http.max_retries", self.http.max_retries)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigFileError(f"{name} must be an integer, not {value!r}")
        for name, value in (("strict_vetting", self.strict_vetting),
                            ("strict_gating", self.strict_gating)):
            if not isinstance(value, bool):
                raise ConfigFileError(f"{name} must be a boolean, not {value!r}")
        for name in ("endpoint", "model", "auth_env"):
            value = getattr(self.http, name)
            if not isinstance(value, str):
                raise ConfigFileError(f"http.{name} must be a string, not {value!r}")
        if not isinstance(self.http.timeout_s, (int, float)) or isinstance(self.http.timeout_s, bool):
            raise ConfigFileError(f"http.timeout_s must be a number, not {self.http.timeout_s!r}")
        if self.retrieval_k < 1:
            raise ConfigFileError("retrieval_k must be at least 1")
        if self.http.max_retries < 0:
            raise ConfigFileError("http.max_retries cannot be negative")
        if not 0 < self.http.timeout_s <= MAX_TIMEOUT_S:
            raise ConfigFileError(
                f"http.timeout_s must be above 0 and at most {MAX_TIMEOUT_S:g} seconds")
        if not _is_http_url(self.http.endpoint):
            raise ConfigFileError(
                f"http.endpoint must be an http or https URL with a host, not {self.http.endpoint!r}")
        if not 0 <= self.seed < (1 << 64):
            raise ConfigFileError("seed must fit in 64 bits")
        if not Path(self.board_map_path).is_file():
            raise ConfigFileError(f"board map not found: {self.board_map_path}")
        if self.template_path is not None and not Path(self.template_path).is_file():
            raise ConfigFileError(f"template not found: {self.template_path}")
        if self.backend == "kb" and not Path(self.kb_path).is_dir():
            raise ConfigFileError(f"knowledge base not found: {self.kb_path}")


def _is_http_url(text: str) -> bool:
    """An http(s) URL with a host that urllib can send a request to."""
    if any(ch <= " " or ch == "\x7f" for ch in text):
        return False  # http.client refuses control characters and spaces
    try:
        parts = urlsplit(text)
        parts.port  # raises ValueError for a malformed port
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def load_config(path: str | Path | None = None) -> Config:
    """Build a Config from defaults overlaid with an optional JSON file."""
    config = Config()
    if path is None:
        config.validate()
        return config
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigFileError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigFileError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigFileError(f"{path}: top level must be an object")
    unknown = set(data) - {f.name for f in fields(Config)}
    if unknown:
        raise ConfigFileError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    http_data = data.pop("http", {})
    if not isinstance(http_data, dict):
        raise ConfigFileError(f"{path}: 'http' must be an object")
    http_unknown = set(http_data) - {f.name for f in fields(HttpSettings)}
    if http_unknown:
        raise ConfigFileError(f"{path}: unknown http keys: {', '.join(sorted(http_unknown))}")
    config = replace(config, http=replace(config.http, **http_data), **data)
    config.validate()
    return config
