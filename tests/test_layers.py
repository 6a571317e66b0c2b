"""The ``fairppm`` modules form one import order: each imports only modules
before it, and only at module level. ``__init__`` re-exports them all."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import fairppm

# bottom layer first; ``python -m fairppm`` runs the top one
LAYERS = (
    "records", "autodiff", "transport", "metrics", "eventlog", "encoding", "nn", "train", "cli",
    "__main__",
)
PACKAGE = Path(fairppm.__file__).parent


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def relative_imports(tree: ast.Module):
    """(line, module) for every relative import anywhere in ``tree``,
    function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            for name in names:
                yield node.lineno, name


def absolute_imports(tree: ast.Module):
    """The top-level package of every absolute import anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_every_module_has_a_layer():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_earlier_layers(module):
    earlier = LAYERS[: LAYERS.index(module)]
    imports = relative_imports(parse(module))
    assert [(line, name) for line, name in imports if name not in earlier] == []


@pytest.mark.parametrize("module", LAYERS)
def test_imports_sit_at_module_level(module):
    tree = parse(module)
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert nested == []


@pytest.mark.parametrize("module", LAYERS)
def test_only_records_imports_csv(module):
    # every CSV artifact is read and written through records
    assert ("csv" in absolute_imports(parse(module))) == (module == "records")


# the benchmark's span targets, read from its source; the three absent from
# the package wait for the benchmark to retarget them (ROADMAP item 2)
TRACER = Path(__file__).parents[1] / "benchmarks" / "tracer.py"
ABSENT_TARGETS = {
    "fairppm.nn.sinkhorn_distance", "fairppm.cli.read_samples_jsonl", "fairppm.cli.encode",
}


def test_every_benchmark_span_target_resolves_in_the_package():
    # a rename in the package fails here instead of reading 0 in a per-layer metric
    if not TRACER.is_file():
        pytest.skip("no benchmarks/tracer.py in this checkout")
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    unresolved = []
    for module, attr, _ in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.append(f"{module}.{attr}")
    assert [name for name in unresolved if name not in ABSENT_TARGETS] == []
