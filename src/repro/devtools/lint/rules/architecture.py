"""Architecture rules: layering constraints between subpackages.

The shared simulation layers (``core/``, ``simulator/``) are the bottom of
the dependency stack — the profile and contention models they need live in
:mod:`repro.core.profiles` / :mod:`repro.core.contention`.  The real-run
package ``realrun/`` sits *above* them (it builds on those models), so an
import in the other direction is a layering inversion that would quietly
re-grow the cycle the promotion removed.
"""

from __future__ import annotations

import ast

from repro.devtools.lint.findings import SEVERITY_ERROR
from repro.devtools.lint.registry import Rule, register
from repro.devtools.lint.rules.base import RuleVisitor

#: The package the shared layers must not depend on.
_UPPER_LAYER = "repro.realrun"

#: The layers confined below it.
_LOWER_SCOPES = ("core", "simulator")


class RealrunImportVisitor(RuleVisitor):
    """Any import of ``repro.realrun`` from the shared simulation layers."""

    rule_id = "arch-realrun-import"
    severity = SEVERITY_ERROR

    def _flag(self, node: ast.AST, origin: str) -> None:
        self.emit(
            node,
            f"import of {origin} from the shared simulation layers inverts "
            "the dependency stack; the promoted models live in "
            "repro.core.profiles / repro.core.contention — import those "
            "instead",
        )

    def visit_Import(self, node: ast.Import) -> None:
        super().visit_Import(node)
        for alias in node.names:
            if alias.name == _UPPER_LAYER or alias.name.startswith(
                _UPPER_LAYER + "."
            ):
                self._flag(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        super().visit_ImportFrom(node)
        if node.level != 0 or node.module is None:
            return
        if node.module == _UPPER_LAYER or node.module.startswith(
            _UPPER_LAYER + "."
        ):
            self._flag(node, node.module)
        elif node.module == "repro":
            for alias in node.names:
                if alias.name == "realrun":
                    self._flag(node, _UPPER_LAYER)


register(
    Rule(
        id=RealrunImportVisitor.rule_id,
        family="arch",
        severity=RealrunImportVisitor.severity,
        scopes=_LOWER_SCOPES,
        exempt=(),
        rationale="core/ and simulator/ are below realrun/ in the layer "
                  "stack; importing upward re-creates the import cycle the "
                  "profile/contention promotion removed",
        visitor=RealrunImportVisitor,
    )
)
