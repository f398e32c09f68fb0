"""Docs are part of the contract: the serving API must pydoc-render with
full docstring coverage, and the docs tree must exist with live links
and live API attribute references."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_tree_exists_and_is_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text()
    for page in ("architecture.md", "serving.md", "benchmarks.md"):
        assert (REPO_ROOT / "docs" / page).exists(), f"docs/{page} missing"
        assert f"docs/{page}" in readme, f"README does not link docs/{page}"


def test_serving_api_renders_with_docstrings(tmp_path):
    check_docs = load_check_docs()
    failures = check_docs.render_api_docs(render_dir=tmp_path)
    failures += check_docs.check_public_docstrings()
    assert not failures, "\n".join(failures)


def test_no_dead_relative_links():
    check_docs = load_check_docs()
    failures = check_docs.check_links()
    assert not failures, "\n".join(failures)


def test_no_stale_attribute_references():
    """Every backticked ``Name.attr`` in README/docs names a live attribute
    of an exported API name, so a removed field fails here too."""
    check_docs = load_check_docs()
    failures = check_docs.check_attribute_refs()
    assert not failures, "\n".join(failures)


def test_stale_attribute_reference_with_a_value_is_flagged(tmp_path, monkeypatch):
    """A reference written with a value, index or expression after the
    attribute is checked like a bare one."""
    check_docs = load_check_docs()
    (tmp_path / "README.md").write_text(
        "`EnsemblerConfig.backend=\"batched\"` `EnsemblerConfig.stale[0]` "
        "`EnsemblerConfig.gone == 1` `EnsemblerConfig.num_nets=10` "
        "`EnsemblerConfig.sigma`\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    failures = check_docs.check_attribute_refs()
    assert [f.split("`")[1] for f in failures] == [
        "EnsemblerConfig.backend", "EnsemblerConfig.stale", "EnsemblerConfig.gone"]


def test_readme_documents_deadline_ignoring_max_batch():
    """PR 5 drift fix: the scheduler guide must not claim ``max_batch``
    is always honoured — the deadline policy ignores it."""
    readme = " ".join((REPO_ROOT / "README.md").read_text().split())
    assert ("`deadline` ignores it" in readme
            or "`max_batch` is ignored" in readme)
