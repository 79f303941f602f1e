"""Work shared across experiment iterations must not change any result.

One knowledge-base load serves a whole run, and embeddings are memoized by
text; reports stay byte-identical either way.
"""

import json

import pytest

from halgen.config import Config
from halgen.experiment import run_experiment
from halgen.generation import KnowledgeBase
from halgen.retrieval import embed


@pytest.fixture()
def kb_loads(monkeypatch):
    loads = []
    original = KnowledgeBase.load.__func__

    def counting(cls, directory):
        loads.append(directory)
        return original(cls, directory)

    monkeypatch.setattr(KnowledgeBase, "load", classmethod(counting))
    return loads


@pytest.mark.parametrize("kind, iterations", [("random_deletion", 6), ("full_hal", 2)])
def test_knowledge_base_loaded_once_per_run(kb_loads, kind, iterations):
    report = run_experiment(kind, iterations, Config())
    assert len(kb_loads) == 1
    per_deleted = 1 if kind == "random_deletion" else 12
    assert [it.calls for it in report.per_iteration] == [per_deleted] * iterations
    assert report.passes == iterations


def test_unloadable_knowledge_base_fails_every_iteration(kb_loads, tmp_path):
    report = run_experiment("random_deletion", 3, Config(kb_path=str(tmp_path)))
    assert len(kb_loads) == 3  # retried, so each iteration records its own error
    errors = {it.error for it in report.per_iteration}
    assert errors == {f"KnowledgeBaseError: missing manifest: {tmp_path / 'manifest.json'}"}
    assert report.passes == 0 and report.total_generation_calls == 0


@pytest.mark.parametrize("kind, iterations", [("random_deletion", 20), ("full_hal", 2)])
def test_reports_identical_with_cold_and_warm_embedding_memo(kind, iterations):
    def report_bytes():
        report = run_experiment(kind, iterations, Config(seed=42))
        return json.dumps(report.to_json_dict(), indent=2).encode("utf-8")

    embed.cache_clear()
    cold = report_bytes()
    hits_before = embed.cache_info().hits
    warm = report_bytes()
    assert embed.cache_info().hits > hits_before
    assert cold == warm
