#!/usr/bin/env python
"""Docs smoke check: render the serving API and verify links and names.

Three checks, all intended for CI (which also uploads ``docs/`` plus the
rendered API text as a workflow artifact):

* **pydoc render** — import every ``repro.serving``, ``repro.privacy``
  and ``repro.telemetry`` module and render its documentation with
  :mod:`pydoc` into
  ``build/docs-api/``.  This catches signature drift the moment it
  happens: a public class/function whose import breaks, or whose
  docstring disappears, fails the build.  Public API members (everything
  in each package's ``__all__`` and the public methods of exported
  classes) must carry docstrings.
* **link check** — every *relative* markdown link in ``README.md`` and
  ``docs/*.md`` must resolve to an existing file (external http(s) links
  are not fetched).  Dead links fail the build.
* **attribute references** — every backticked `` `Name.attr` `` (or
  `` `Name.attr(...)` ``, `` `Name.attr=value` ``, `` `Name.attr[key]` ``,
  `` `Name.attr == value` ``) in ``README.md`` and ``docs/*.md`` whose
  ``Name`` is exported by one of the API or reference packages (core,
  ci, experiments, attacks and defenses too) must name a real
  attribute: a class attribute (methods and properties included), a
  dataclass field, or an attribute the class assigns as ``self.attr``.
  A field renamed or removed in code thus fails the build until the
  docs follow.

Usage: ``python scripts/check_docs.py``
"""

import dataclasses
import inspect
import pydoc
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SERVING_MODULES = (
    "repro.nn.arena",
    "repro.serving",
    "repro.serving.autoscale",
    "repro.serving.checkpoint",
    "repro.serving.errors",
    "repro.serving.faults",
    "repro.serving.fleet",
    "repro.serving.overload",
    "repro.serving.protocol",
    "repro.serving.scheduler",
    "repro.serving.service",
    "repro.serving.session",
    "repro.serving.simulate",
    "repro.serving.traffic",
    "repro.privacy",
    "repro.privacy.accountant",
    "repro.privacy.budget",
    "repro.privacy.rotation",
    "repro.telemetry",
    "repro.telemetry.sketch",
)

#: Packages whose ``__all__`` (and exported classes' public methods) must
#: carry docstrings.
API_PACKAGES = ("repro.serving", "repro.privacy", "repro.telemetry")

#: Packages whose exported names the docs' backticked ``Name.attr``
#: references must resolve against.  ``repro.nn`` stays out: its
#: ``batched`` module export would match metric names such as
#: ``batched.conv_ms``.
REFERENCE_PACKAGES = API_PACKAGES + ("repro.core", "repro.ci", "repro.experiments",
                                     "repro.attacks", "repro.defenses")

RENDER_DIR = REPO_ROOT / "build" / "docs-api"

#: markdown inline links: [text](target); images and reference-style
#: definitions resolve through the same pattern.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: a backticked ``Name.attr`` reference, bare or followed by a call, a
#: value, an index or a spaced expression: `Name.attr(...)`,
#: `Name.attr="x"`, `Name.attr[k]`, `Name.attr == 0`.
_ATTR_REF = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:[(=\[ ][^`]*)?`")


def render_api_docs(render_dir: Path = RENDER_DIR) -> list[str]:
    """Pydoc-render the serving modules; returns failure messages."""
    failures = []
    render_dir.mkdir(parents=True, exist_ok=True)
    for name in SERVING_MODULES:
        try:
            module = __import__(name, fromlist=["_"])
            text = pydoc.render_doc(module, renderer=pydoc.plaintext)
        except Exception as exc:  # import or render breakage is the point
            failures.append(f"pydoc render failed for {name}: {exc!r}")
            continue
        out = render_dir / (name.replace(".", "_") + ".txt")
        out.write_text(text)
        shown = (out.relative_to(REPO_ROOT)
                 if out.is_relative_to(REPO_ROOT) else out)
        print(f"rendered {name} -> {shown} ({len(text.splitlines())} lines)")
    return failures


def check_public_docstrings() -> list[str]:
    """Every exported API symbol (and its public methods) has a doc."""
    failures = []
    for package_name in API_PACKAGES:
        package = __import__(package_name, fromlist=["_"])
        for symbol in package.__all__:
            obj = getattr(package, symbol)
            if not inspect.isclass(obj) and not callable(obj):
                continue  # constants (SCHEDULERS, WIRE_VERSION, PRIVACY_LADDER)
            if not inspect.getdoc(obj):
                failures.append(f"{package_name}.{symbol} has no docstring")
            if inspect.isclass(obj):
                for name, member in inspect.getmembers(obj):
                    if name.startswith("_") or not callable(member):
                        continue
                    if name in vars(obj) and not inspect.getdoc(member):
                        failures.append(
                            f"{package_name}.{symbol}.{name} has no docstring")
    return failures


def _iter_doc_files() -> list[Path]:
    return [REPO_ROOT / "README.md",
            *sorted((REPO_ROOT / "docs").glob("*.md"))]


def check_links() -> list[str]:
    """Relative markdown links in README/docs must resolve; returns failures."""
    failures = []
    for doc in _iter_doc_files():
        if not doc.exists():
            failures.append(f"missing documentation file: {doc.name}")
            continue
        for target in _LINK.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]  # drop in-page anchors
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                failures.append(
                    f"{doc.relative_to(REPO_ROOT)}: dead relative link "
                    f"'{target}'")
    return failures


def _has_attribute(obj, attr: str) -> bool:
    """Whether ``obj`` has ``attr`` as a class attribute, a dataclass
    field or (for classes) a ``self.attr`` assignment in its source."""
    if hasattr(obj, attr):
        return True
    if not inspect.isclass(obj):
        return False
    if dataclasses.is_dataclass(obj) and any(
            f.name == attr for f in dataclasses.fields(obj)):
        return True
    assign = re.compile(rf"\bself\.{attr}\s*(?::[^=\n]+)?=(?!=)")
    for cls in obj.__mro__:
        try:
            source = inspect.getsource(cls)
        except (OSError, TypeError):  # builtins and C types have no source
            continue
        if assign.search(source):
            return True
    return False


def check_attribute_refs() -> list[str]:
    """Backticked ``Name.attr`` references to exported API names must
    resolve; returns failures."""
    exported = {}
    for package_name in REFERENCE_PACKAGES:
        package = __import__(package_name, fromlist=["_"])
        for symbol in package.__all__:
            exported[symbol] = getattr(package, symbol)
    failures = []
    for doc in _iter_doc_files():
        if not doc.exists():
            continue  # check_links reports missing files
        for name, attr in _ATTR_REF.findall(doc.read_text()):
            if name in exported and not _has_attribute(exported[name], attr):
                failures.append(
                    f"{doc.relative_to(REPO_ROOT)}: `{name}.{attr}` names "
                    f"no attribute of {name}")
    return failures


def main() -> int:
    failures = (render_api_docs() + check_public_docstrings()
                + check_links() + check_attribute_refs())
    if failures:
        print("\nDOCS CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\ndocs check ok: serving and privacy APIs render with full "
          "docstring coverage; all relative links and API attribute "
          "references in README.md and docs/ resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
