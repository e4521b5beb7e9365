"""The environment-knob registry: typed readers, declarations, docs sync."""

from pathlib import Path

import pytest

from repro.analysis.knobs import (
    KNOBS,
    declared,
    env_flag,
    env_int,
    env_list,
    env_str,
    format_knob_table,
    knob_names,
)

DOCS = Path(__file__).resolve().parents[2] / "docs" / "STATIC_ANALYSIS.md"


class TestRegistry:
    def test_names_unique_and_prefixed(self):
        names = [k.name for k in KNOBS]
        assert len(names) == len(set(names))
        assert all(n.startswith("REPRO_") for n in names)

    def test_declared_lookup(self):
        assert declared("REPRO_TRACE").kind == "flag"
        with pytest.raises(KeyError, match="REPRO_TRACE"):
            declared("REPRO_NOPE")  # error message lists known knobs

    def test_every_knob_documents_itself(self):
        for knob in KNOBS:
            assert knob.description and knob.owner


class TestReaders:
    def test_env_flag_truthy_values(self, monkeypatch):
        for value in ("1", "true", "Yes", "ON"):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert env_flag("REPRO_TRACE") is True
        for value in ("", "0", "false", "off", "no"):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert env_flag("REPRO_TRACE") is False
        monkeypatch.delenv("REPRO_TRACE")
        assert env_flag("REPRO_TRACE") is False

    def test_env_int_parses_and_rejects(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG2_NV", raising=False)
        assert env_int("REPRO_LOG2_NV") is None
        monkeypatch.setenv("REPRO_LOG2_NV", "20")
        assert env_int("REPRO_LOG2_NV") == 20
        monkeypatch.setenv("REPRO_LOG2_NV", "twenty")
        with pytest.raises(ValueError, match="REPRO_LOG2_NV.*integer"):
            env_int("REPRO_LOG2_NV")

    def test_env_str_and_list(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEM_BUDGET", raising=False)
        assert env_str("REPRO_MEM_BUDGET", default="4G") == "4G"
        monkeypatch.setenv("REPRO_MEM_BUDGET", " 512M ")
        assert env_str("REPRO_MEM_BUDGET") == "512M"
        monkeypatch.setenv("REPRO_SAN", "overflow, float,,fork")
        assert env_list("REPRO_SAN") == ["overflow", "float", "fork"]

    def test_undeclared_name_rejected_by_readers(self, monkeypatch):
        monkeypatch.setenv("REPRO_NOT_A_KNOB", "1")
        with pytest.raises(KeyError):
            env_flag("REPRO_NOT_A_KNOB")


class TestDocsTable:
    def test_table_lists_every_knob(self):
        table = format_knob_table()
        for name in knob_names():
            assert name in table

    def test_docs_embed_generated_table_verbatim(self):
        # docs/STATIC_ANALYSIS.md carries the registry's own rendering;
        # regenerating it on registry changes is part of the contract
        # (RL012 makes the registry the single source of truth).
        docs = DOCS.read_text()
        for line in format_knob_table().splitlines():
            assert line in docs, f"docs table out of date, missing: {line}"
