"""Documentation quality gate: every public item carries a docstring.

Walks the whole package, importing every module, and asserts that modules,
public classes, public functions and public methods are documented — the
deliverable contract for the library's API surface.  Also checks that the
source files the prose documents name still exist.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re

import repro


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def is_local(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def test_every_module_has_docstring():
    missing = [
        module.__name__ for module in iter_modules() if not module.__doc__
    ]
    assert not missing, f"undocumented modules: {missing}"


def test_every_public_class_and_function_documented():
    missing = []
    for module in iter_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if not is_local(obj, module):
                continue
            if not inspect.getdoc(obj):
                missing.append(f"{module.__name__}.{name}")
    assert not missing, f"undocumented public items: {missing}"


def test_every_public_method_documented():
    missing = []
    for module in iter_modules():
        for class_name, cls in vars(module).items():
            if class_name.startswith("_") or not inspect.isclass(cls):
                continue
            if not is_local(cls, module):
                continue
            for method_name, method in vars(cls).items():
                if method_name.startswith("_"):
                    continue
                if not (
                    inspect.isfunction(method)
                    or isinstance(method, (property, classmethod, staticmethod))
                ):
                    continue
                target = method.fget if isinstance(method, property) else method
                if isinstance(method, (classmethod, staticmethod)):
                    target = method.__func__
                if not inspect.getdoc(target):
                    missing.append(
                        f"{module.__name__}.{class_name}.{method_name}"
                    )
    assert not missing, f"undocumented public methods: {missing}"


DOCUMENTS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md"]
SOURCE_PATH = re.compile(r"\b(repro|benchmarks)/[\w/.-]*\.py\b")


def test_every_source_path_named_in_the_documents_exists():
    root = pathlib.Path(__file__).resolve().parents[1]
    missing = []
    for pattern in DOCUMENTS:
        for document in sorted(root.glob(pattern)):
            for match in SOURCE_PATH.finditer(document.read_text()):
                base = root / "src" if match.group(1) == "repro" else root
                if not (base / match.group(0)).exists():
                    missing.append(f"{document.name}: {match.group(0)}")
    assert not missing, f"documents name files that do not exist: {missing}"
