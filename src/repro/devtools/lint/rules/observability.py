"""Observability rules.

Library code reports through the :mod:`logging` hierarchy (wired by
``--log-level`` / ``REPRO_LOG_LEVEL``) or through returned strings the CLI
prints.  A bare ``print()`` in a library module writes to stdout no matter
what the caller wanted, corrupts machine-readable output (``--json``
reports, piped query results) and cannot be silenced or redirected, so it
is confined to the CLI drivers and report renderers and flagged everywhere
else.
"""

from __future__ import annotations

import ast

from repro.devtools.lint.findings import SEVERITY_ERROR
from repro.devtools.lint.registry import Rule, register
from repro.devtools.lint.rules.base import RuleVisitor

#: Places where printing IS the job: the CLI drivers (``cli.py`` anywhere
#: in the tree), report renderers under ``analysis/``, the devtools
#: (their own small CLIs), and tests.
_PRINTING_LAYERS = ("cli.py", "analysis", "devtools", "tests")


class PrintVisitor(RuleVisitor):
    """Any bare ``print()`` call outside the printing layers."""

    rule_id = "obs-print"
    severity = SEVERITY_ERROR

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self.emit(
                node,
                "bare print() in library code writes to stdout "
                "unconditionally; use logging.getLogger(__name__) (wired "
                "via --log-level / REPRO_LOG_LEVEL) or return the text to "
                "the CLI layer",
            )
        self.generic_visit(node)


register(
    Rule(
        id=PrintVisitor.rule_id,
        family="obs",
        severity=PrintVisitor.severity,
        scopes=None,
        exempt=_PRINTING_LAYERS,
        rationale="print() in library modules bypasses the logging config "
                  "and corrupts piped/machine-readable CLI output",
        visitor=PrintVisitor,
    )
)
