"""Rule base class and shared AST helpers."""

from __future__ import annotations

import ast
from typing import Any, ClassVar, Iterator, Mapping

from ..core import Finding, RelatedLocation, SourceFile, SourceTree

__all__ = [
    "Rule",
    "attr_chain",
    "call_name",
    "iter_classes",
    "iter_methods",
    "is_self_attribute",
    "path_in",
]


class Rule:
    """One checkable invariant: a code, a name, and a tree-wide check."""

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def check(self, tree: SourceTree, config: Mapping[str, Any]) -> list[Finding]:
        raise NotImplementedError

    def options(self, config: Mapping[str, Any]) -> Mapping[str, Any]:
        """This rule's option table from the merged configuration."""
        section = config.get(self.name, {})
        return section if isinstance(section, Mapping) else {}

    def finding(
        self,
        source: SourceFile,
        node: ast.AST,
        message: str,
        related: tuple[RelatedLocation, ...] = (),
    ) -> Finding:
        return source.finding(self.code, self.name, node, message, related)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.code})"


def iter_classes(source: SourceFile) -> Iterator[ast.ClassDef]:
    """Every class definition in a file (any nesting depth)."""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ClassDef):
            yield node


def iter_methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    """Direct (non-nested) methods of a class, async ones excluded."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node


def attr_chain(node: ast.AST) -> str:
    """Dotted name of an attribute chain (``np.random.default_rng``), or ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(node: ast.Call) -> str:
    """Dotted name of a call target, or ``""`` when not a plain name chain."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    return attr_chain(node.func)


def is_self_attribute(node: ast.AST) -> bool:
    """Whether ``node`` is a ``self.<attr>`` access."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def path_in(rel_path: str, prefixes: "tuple[str, ...]") -> bool:
    """Whether ``rel_path`` falls under any prefix (empty prefixes = everywhere)."""
    if not prefixes:
        return True
    return any(
        rel_path == prefix or rel_path.startswith(prefix.rstrip("/") + "/")
        for prefix in prefixes
    )
