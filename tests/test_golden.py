"""Byte equality of certificates and CLI output against tests/golden.json.

The data file was written by tests/make_golden.py; see its docstring for
what the corpora cover.
"""

import json

import pytest

import make_golden


@pytest.fixture(scope="module")
def built():
    return make_golden.build()


@pytest.fixture(scope="module")
def golden():
    return json.loads(make_golden.GOLDEN_PATH.read_text())


def test_representative_entries(built, golden):
    _, representative = built
    assert [key for key, _ in representative] == [
        entry["key"] for entry in golden["representative"]
    ]
    for (key, text), entry in zip(representative, golden["representative"]):
        assert text == entry["text"], key


@pytest.mark.parametrize(
    "name", ["eisenstein", "gauss-sample", "generated", "cli"]
)
def test_corpus_digest(built, golden, name):
    corpora, _ = built
    corpus = corpora[name]
    expected = golden["corpora"][name]
    assert len(corpus) == expected["count"]
    assert make_golden.digest(corpus) == expected["sha256"]
