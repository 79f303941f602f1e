"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest -v` shows the same pass/fail status per test.
"""

import json
import random
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from halgen.analysis import (
    ElementKind,
    build_symbol_table,
    detect_missing,
    load_project,
    token_similarity,
)
from halgen.c_ast import normalize_tokens, parse, pretty_print
from halgen.completion import complete, delete_all_hal, delete_element
from halgen.config import Config, HttpSettings, default_project_path
from halgen.experiment import run_experiment
from halgen.generation import (
    BackendError,
    HttpBackend,
    MALFORMED_RESPONSE,
    Rejection,
    VettedPatch,
    vet_patch,
)
from halgen.prompting import build_prompt
from halgen.retrieval import VectorIndex, build_index, chunk_codebase, embed, search
from halgen.simulate import Scenario, exec_program

GPIOA_MODER = 0x40020000

HAL_ELEMENTS = [
    "RCC_BASE", "RCC_AHB1ENR_OFFSET", "USART2_BASE", "USART_SR_OFFSET",
    "USART_DR_OFFSET", "USART_FLAG_TXE", "enable_gpioa_clk", "set_io_mode",
    "hal_gpio_write", "hal_gpio_read", "hal_gpio_toggle", "usart_send_byte",
]


def report(number, label):
    print(f"\nacceptance {number:02d} {label}: PASS")


def test_criterion_01_full_hal_regeneration_count(demo_project, kb_backend):
    started = time.monotonic()
    mutated, deleted = delete_all_hal(demo_project)
    assert len(deleted) == 12
    snippets = chunk_codebase(mutated)
    index = build_index(snippets)
    completed, result = complete(mutated, kb_backend, index, snippets)
    elapsed = time.monotonic() - started

    assert result.closed is True
    assert len(result.inserted) == 12
    successful_calls = len(result.inserted)
    assert successful_calls == 12
    assert result.total_calls == 12  # no rejected attempts with the kb oracle
    assert detect_missing(build_symbol_table(completed)) == []
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, "full-HAL regeneration inserts 12 elements in 12 calls")


def test_criterion_02_random_deletion_experiment_100_iterations():
    started = time.monotonic()
    config = Config(backend="kb", seed=42)
    result = run_experiment("random_deletion", 100, config)
    elapsed = time.monotonic() - started

    assert result.pass_rate == 1.0
    assert result.passes == 100
    assert all(r.closed and r.verdict_passed for r in result.per_iteration)
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(2, "random-deletion experiment, 100 iterations, pass_rate 1.0")


def test_criterion_03_pin_mode_semantics_table(board):
    program = """\
#define GPIOA_BASE 0x40020000

void set_io_mode(uint32_t gpio_base, uint32_t pin_mask, uint8_t mode) {{
    volatile uint32_t *GPIO_MODER = (uint32_t *)(gpio_base + 0x00);
    uint8_t pin_number = 0;
    while ((pin_mask >> pin_number) != 1) {{
        pin_number++;
    }}
    *GPIO_MODER &= ~(0x3 << (pin_number * 2));
    *GPIO_MODER |= (mode << (pin_number * 2));
}}

int main(void) {{
    volatile uint32_t *moder = (uint32_t *)(GPIOA_BASE + 0x00);
    *moder = 0xFFFFFFFF;
    set_io_mode(GPIOA_BASE, {pin_mask}, {mode});
    return 0;
}}
"""

    def oracle(preset, pin_mask, mode):
        # independent bit arithmetic: find the lowest set bit's index, clear
        # the two mode bits, install the new mode
        pin = 0
        while (pin_mask >> pin) != 1:
            pin += 1
        return (preset & ~(0x3 << (pin * 2)) & 0xFFFFFFFF) | (mode << (pin * 2))

    from halgen.analysis import Project

    checked = 0
    for pin in range(16):
        for mode in range(4):
            mask = 1 << pin
            source = program.format(pin_mask=hex(mask), mode=mode)
            project = Project((parse(source, "t.c"),), "t.c")
            state, _ = exec_program(project, board, Scenario())
            assert state.mmio[GPIOA_MODER] == oracle(0xFFFFFFFF, mask, mode), (pin, mode)
            checked += 1
    assert checked == 64

    # the pinned case: pin 5, mode 1, all-ones preset
    source = program.format(pin_mask="0x20", mode=1)
    project = Project((parse(source, "t.c"),), "t.c")
    state, _ = exec_program(project, board, Scenario())
    assert state.mmio[GPIOA_MODER] == 0xFFFFF7FF
    report(3, "pin-mode table matches bit-arithmetic oracle in 64/64 cases")


def test_criterion_04_usart_validation_and_mutation(demo_dir, tmp_path, board, scenario):
    project = load_project(demo_dir)
    state, verdict = exec_program(project, board, scenario)
    assert state.usart_log == b"PASS\n"
    assert verdict.passed is True

    # corrupt the output-data mask logic of one HAL element and re-run
    hal_text = (demo_dir / "hal.c").read_text()
    corrupted = hal_text.replace("*gpio_odr |= pin_mask;", "*gpio_odr &= ~pin_mask;", 1)
    assert corrupted != hal_text
    mutated_dir = tmp_path / "mutated"
    mutated_dir.mkdir()
    (mutated_dir / "hal.c").write_text(corrupted)
    (mutated_dir / "main.c").write_text((demo_dir / "main.c").read_text())
    _, mutated_verdict = exec_program(load_project(mutated_dir), board, scenario)
    assert mutated_verdict.passed is False
    report(4, "USART log is byte-exact and the mutation test flips the verdict")


def test_criterion_05_retrieval_matches_brute_force():
    rng = random.Random(424242)
    words = ["gpio", "usart", "rcc", "base", "mask", "pin", "mode", "clk",
             "value", "reg", "offset", "state", "x"]
    ops = ["+", "-", "<<", ">>", "&", "|", "^", "=", ";", "(", ")", "*"]
    corpora_checked = 0
    for _ in range(120):
        size = rng.randrange(1, 14)
        texts = [" ".join(rng.choice(words + ops + [hex(rng.randrange(512))])
                          for _ in range(rng.randrange(1, 25)))
                 for _ in range(size)]
        entries = [(i, embed(t)) for i, t in enumerate(texts)]
        query = embed(rng.choice(texts) if rng.random() < 0.5
                      else " ".join(rng.choice(words) for _ in range(4)))
        k = rng.randrange(1, size + 3)

        brute = sorted(((sid, sum(q * v for q, v in zip(query, vec)))
                        for sid, vec in entries),
                       key=lambda e: (-e[1], e[0]))[:k]
        assert search(VectorIndex(entries), query, k) == brute
        corpora_checked += 1
    assert corpora_checked >= 100
    report(5, "search equals brute-force cosine ranking on 120 random corpora")


def test_criterion_06_prompt_golden_texts(demo_project, kb_backend):
    cue = "You will be my Custom Hardware Abstraction Layer Generator."
    constraint = "Don't reference stm32fxxx_hal.h functions."
    section_order = ["Cue", "Instructions", "Constraints", "ReturnFormat", "Context"]

    checked = 0
    for name in HAL_ELEMENTS:
        mutated = delete_element(demo_project, name)
        table = build_symbol_table(mutated)
        elem = next(m for m in detect_missing(table) if m.name == name)
        snippets = chunk_codebase(mutated)
        index = build_index(snippets)
        ranked = search(index, embed(" ".join([elem.name] + elem.sample_args)), 3)
        retrieved = [snippets[sid] for sid, _ in ranked]
        sig = None
        if elem.kind is ElementKind.FUNCTION:
            from halgen.analysis import infer_signature
            sig = infer_signature(elem)
        prompt = build_prompt(elem, sig, retrieved)
        assert cue in prompt.flattened
        assert constraint in prompt.flattened
        assert [section for section, _ in prompt.sections] == section_order
        positions = [prompt.flattened.index(text) for _, text in prompt.sections]
        assert positions == sorted(positions)
        assert f"'{name}'" in prompt.section("Instructions")
        checked += 1
    assert checked == 12
    report(6, "prompts for all 12 fixture elements carry the golden texts in order")


def test_criterion_07_http_backend_contract(monkeypatch):
    requests = []
    responses = [(200, json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()),
                 (200, b"{ not json")]

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            requests.append({"headers": dict(self.headers),
                             "body": self.rfile.read(length).decode()})
            status, body = responses.pop(0)
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("ACCEPT_TOKEN", "secret-from-env")
        host, port = server.server_address
        backend = HttpBackend(HttpSettings(
            endpoint=f"http://{host}:{port}/v1/chat/completions",
            model="gpt-4o-mini", auth_env="ACCEPT_TOKEN",
            timeout_s=5.0, max_retries=0))

        demo = load_project(default_project_path())
        mutated = delete_element(demo, "set_io_mode")
        elem = detect_missing(build_symbol_table(mutated))[0]
        result = backend.generate(build_prompt(elem, None, []))
        assert result.raw_text == "ok"

        body = requests[0]["body"]
        assert '"temperature": 0' in body
        payload = json.loads(body)
        assert payload["temperature"] == 0
        assert payload["model"] == "gpt-4o-mini"
        assert requests[0]["headers"]["Authorization"] == "Bearer secret-from-env"

        with pytest.raises(BackendError) as err:
            backend.generate(build_prompt(elem, None, []))
        assert err.value.category == MALFORMED_RESPONSE
    finally:
        server.shutdown()
        server.server_close()
    report(7, "HTTP wire format, env-sourced auth, malformed-response handling")


def test_criterion_08_parser_round_trip(demo_sources, kb_snippet_texts):
    checked = 0
    for name, source in list(demo_sources.items()) + list(kb_snippet_texts.items()):
        first = parse(source, name)
        second = parse(pretty_print(first), name)
        assert second == first, name
        third = parse(pretty_print(second), name)
        assert third == second, name
        checked += 1
    assert checked == len(demo_sources) + len(kb_snippet_texts)
    report(8, f"parse/print round trip is stable on {checked} sources")


def test_criterion_09_vetting_gate(demo_project, canonical_set_io_mode):
    mutated = delete_element(demo_project, "set_io_mode")
    table = build_symbol_table(mutated)
    elem = detect_missing(table)[0]

    accepted = vet_patch(canonical_set_io_mode, elem, table)
    assert isinstance(accepted, VettedPatch)

    vendor_call = canonical_set_io_mode.replace(
        "    *GPIO_MODER |= (mode << (pin_number * 2));",
        "    *GPIO_MODER |= (mode << (pin_number * 2));\n"
        "    HAL_GPIO_WritePin(gpio_base, pin_mask, mode);")
    rejected = vet_patch(vendor_call, elem, table)
    assert isinstance(rejected, Rejection)
    assert rejected.reasons == ["ForbiddenReference"]

    two_arg = ("void set_io_mode(uint32_t gpio_base, uint32_t pin_mask) {\n"
               "    volatile uint32_t *GPIO_MODER = (uint32_t *)(gpio_base + 0x00);\n"
               "    *GPIO_MODER = pin_mask;\n}\n")
    rejected = vet_patch(two_arg, elem, table)
    assert isinstance(rejected, Rejection)
    assert rejected.reasons == ["WrongArity"]
    report(9, "vetting accepts the canonical text and rejects with exact reasons")


def test_criterion_10_token_similarity_oracle(kb_snippet_texts):
    def dp_distance(a, b):
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a) + 1):
            table[i][0] = i
        for j in range(len(b) + 1):
            table[0][j] = j
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                                  table[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
        return table[-1][-1]

    def oracle(a, b):
        sa, sb = normalize_tokens(a), normalize_tokens(b)
        if not sa and not sb:
            return 1.0
        return 1.0 - dp_distance(sa, sb) / max(len(sa), len(sb))

    rng = random.Random(5050)
    vocabulary = ["reg", "pin", "mask", "base", "mode", "x", "y", "0x20", "1",
                  "255", "+", "-", "<<", ">>", "&", "|", "=", ";", "(", ")", "*", "~"]
    pairs_checked = 0
    for _ in range(50):
        a = " ".join(rng.choice(vocabulary) for _ in range(rng.randrange(0, 50)))
        b = " ".join(rng.choice(vocabulary) for _ in range(rng.randrange(0, 50)))
        assert token_similarity(a, b) == pytest.approx(oracle(a, b), abs=1e-12)
        pairs_checked += 1
    assert pairs_checked == 50

    from halgen.c_ast import TokenKind, lex

    for name, text in kb_snippet_texts.items():
        idents = sorted({t.text for t in lex(text, name) if t.kind is TokenKind.IDENT})
        clone = text
        for i, ident in enumerate(idents):
            clone = re.sub(rf"\b{ident}\b", f"renamed_{i}", clone)
        assert clone != text
        assert token_similarity(text, clone) == 1.0, name
    report(10, "token similarity equals the DP oracle and is rename-invariant")
