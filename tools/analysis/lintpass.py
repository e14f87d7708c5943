"""Lint pass (RA401-RA404): the dependency-free subset of ``ruff check``.

* **RA401 syntax-error** -- the file must parse (ruff E999);
* **RA402 unused-import** -- a module-level import never referenced and
  not re-exported via ``__all__`` (ruff F401; ``__init__`` modules are
  exempt: re-exporting is their job);
* **RA403 undefined-export** -- an ``__all__`` entry naming nothing
  defined or imported at module level (ruff F822);
* **RA404 duplicate-definition** -- a module-level function/class
  defined twice (ruff F811).

The pass runs under ``make analyze`` with every other rule; ``make
lint`` runs ``ruff check`` when it is installed.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Set, Tuple

from tools.analysis.core import Finding, Project, SourceFile


def collect_used_names(tree: ast.AST) -> Set[str]:
    """Every identifier the module references (including attribute roots
    and names quoted in ``__all__``-style string constants)."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # __all__ entries, typing forward refs
    return used


def module_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """Module-level ``(bound_name, lineno)`` pairs from import statements."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], \
                    node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue  # compiler directives, not bindings to use
            for alias in node.names:
                if alias.name == "*":
                    continue
                yield alias.asname or alias.name, node.lineno


def module_definitions(tree: ast.Module) -> Set[str]:
    """Names bound at module level (defs, classes, assignments, imports)."""
    defined: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for child in ast.walk(target):
                    if isinstance(child, ast.Name):
                        defined.add(child.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            defined.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(name for name, _ in module_imports(
                ast.Module(body=[node], type_ignores=[])))
    return defined


def dunder_all(tree: ast.Module) -> List[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets:
                try:
                    value = ast.literal_eval(node.value)
                except ValueError:
                    return []
                return [entry for entry in value if isinstance(entry, str)]
    return []


def lint_file(source: SourceFile) -> List[Finding]:
    if source.tree is None:
        error = source.syntax_error
        return [Finding(
            rule="RA401", path=source.path,
            line=error.lineno or 1 if error else 1,
            message=f"syntax error: "
                    f"{error.msg if error else 'unparseable'}")]
    tree = source.tree
    findings: List[Finding] = []
    used = collect_used_names(tree)
    exported = set(dunder_all(tree))
    is_init = os.path.basename(source.path) == "__init__.py"

    if not is_init:  # re-exporting is an __init__ module's job
        for name, lineno in module_imports(tree):
            if name.startswith("_"):
                continue
            if name not in used and name not in exported:
                findings.append(Finding(
                    rule="RA402", path=source.path, line=lineno,
                    message=f"{name!r} is imported but never used"))

    defined = module_definitions(tree)
    for entry in dunder_all(tree):
        if entry not in defined:
            findings.append(Finding(
                rule="RA403", path=source.path, line=1,
                message=f"__all__ names {entry!r} which is not defined "
                        f"in the module"))

    seen: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name in seen:
                findings.append(Finding(
                    rule="RA404", path=source.path, line=node.lineno,
                    message=f"{node.name!r} already defined on line "
                            f"{seen[node.name]}"))
            seen[node.name] = node.lineno
    return findings


def run(project: Project) -> List[Finding]:
    config = project.config
    findings: List[Finding] = []
    for source in project.files:
        findings.extend(f for f in lint_file(source)
                        if config.rule_applies(f.rule, source.path))
    return findings
