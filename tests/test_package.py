"""Source-level rules for the package."""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import specfactor
from specfactor import constructions, corpus, spectral, theorems


def test_no_assert_statements_in_package():
    # python -O strips assert, so runtime invariants must raise explicitly
    found = []
    for path in sorted(Path(specfactor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_lowest_set_bit_idiom_only_in_graph_bits():
    # graph.bits is the one bit iterator; other modules iterate through it
    idiom = re.compile(r"\b(\w+)\s*&\s*-\s*\1\b")
    found = []
    for path in sorted(Path(specfactor.__file__).parent.glob("*.py")):
        if path.name != "graph.py":
            found += [f"{path.name}: {m.group(0)}" for m in idiom.finditer(path.read_text())]
    assert found == []


def test_each_input_rule_is_stated_once():
    # graph.as_integer is the one integer rule, graph.as_count the one sign
    # rule and spectral.check_class the one statement of each class domain;
    # the rest call them
    texts = {
        path.name: path.read_text()
        for path in sorted(Path(specfactor.__file__).parent.glob("*.py"))
    }
    assert [name for name, text in texts.items() if "operator.index" in text] == ["graph.py"]
    for rule in (
        "must be non-negative",
        "m must be even with 2 <= m <= r+1",
        "m must satisfy 1 <= m <= r+1 and m == r (mod 2)",
    ):
        assert sum(text.count(rule) for text in texts.values()) == 1, rule


_NON_INTEGER_CALLS = [
    (theorems.verify_thm_2_1, (4.0, 2, 3), "r"),
    (theorems.verify_thm_2_1, (4, 2, 2.5), "samples"),
    (constructions.extremal_even, (4, 2.0), "m"),
    (constructions.extremal_odd_m1, (3.0,), "r"),
    (theorems.ordering_report, (4.0,), "r"),
    (corpus.random_class_member, (4.0, 2, "even", 0), "r"),
    (theorems.verify_thm_2_2, (3, 1.0, 3), "m"),
    (spectral.rho1, (4.0, 2), "r"),
    (theorems.classify_hypothesis, (4, 1.0, 4), "k"),
    (theorems.verify_thm_3_2, (4, 1, 4.0, [constructions.complete_graph(5)]), "m"),
    (theorems.check_lemma_3_1, (constructions.petersen(), "1", 2), "k"),
    (constructions.star, (2.5,), "leaf count"),
]


@pytest.mark.parametrize(
    "call, args, name",
    _NON_INTEGER_CALLS,
    ids=[f"{call.__name__}{args}" for call, args, _ in _NON_INTEGER_CALLS],
)
def test_class_and_hypothesis_parameters_must_be_integers(call, args, name):
    # refused through graph.as_integer, not run on floats or failing deep inside
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(*args)


def test_one_production_eigensolver():
    # eigvalsh is called only from spectral; the Jacobi reference lives in the tests
    found = []
    for path in sorted(Path(specfactor.__file__).parent.glob("*.py")):
        text = path.read_text()
        if "jacobi" in text.lower():
            found.append(f"{path.name}: jacobi")
        if path.name != "spectral.py" and "eigvalsh" in text:
            found.append(f"{path.name}: eigvalsh")
    assert found == []


def test_traced_names_are_bound():
    # the benchmark's traced run swaps these names for wrappers; a refactor
    # that drops one of them breaks it without failing any other test
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{ns.__name__}.{attr}"
        for ns, attr, *_ in tracing._wrap_points()
        if not hasattr(ns, attr)
    ]
    assert missing == []


def test_workload_names_are_bound():
    # the benchmark's workloads call the package by module attribute (for
    # example oracle.optimal_pairs, which no package code calls); each read
    # of <module>.<name> there must still resolve
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text())
    imported = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "specfactor"
        for a in node.names
    }
    assert {"cli", "factors", "oracle", "spectral", "theorems"} <= imported
    missing = [name for name in sorted(imported) if not hasattr(specfactor, name)]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and not hasattr(getattr(specfactor, node.value.id, None), node.attr)
        ):
            missing.append(f"{node.value.id}.{node.attr}")
    assert missing == []


def _imports(module: str) -> tuple[set[str], set[str]]:
    """(package modules, outside top-level modules) that a module imports."""
    tree = ast.parse((Path(specfactor.__file__).parent / f"{module}.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["specfactor" if node.level else "", node.module]))
            names += [f"{base}.{a.name}" for a in node.names] if base == "specfactor" else [base]
    parts = [name.split(".") for name in names]
    return {p[1] for p in parts if p[0] == "specfactor"}, {p[0] for p in parts if p[0] != "specfactor"}


def test_oracle_and_engine_are_independent():
    # the sweep checks the matching engine, so neither may lean on the other
    package, outside = _imports("oracle")
    assert package == {"graph"}
    assert outside - sys.stdlib_module_names == {"numpy"}
    for module in ("factors", "matching"):
        assert "oracle" not in _imports(module)[0]
