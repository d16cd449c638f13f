"""Store-discipline rules.

Every persisted artifact — cache blobs (per-job records included), shard
manifests, decision traces — goes through :class:`repro.store.ResultStore`
and the atomic write/integrity-envelope helpers.  Direct
``open()``/``pickle`` I/O on cache or manifest paths bypasses atomic
publication, integrity envelopes and gc reference tracking, so
it is confined to ``store/`` (the codec layer) and flagged everywhere else.
"""

from __future__ import annotations

import ast
import re

from repro.devtools.lint.findings import SEVERITY_ERROR
from repro.devtools.lint.registry import Rule, register
from repro.devtools.lint.rules.base import RuleVisitor

#: Packages allowed to touch serialized bytes directly: the store backends
#: own the formats; tests craft corrupt/legacy blobs on purpose; devtools
#: reads source trees, not caches.
_CODEC_LAYERS = ("store", "tests", "devtools")

#: Identifier/string fragments that mark an expression as touching cache or
#: manifest state.  Deliberately broad — a false positive is one suppression
#: with a justification; a false negative is a torn cache nobody notices.
_CACHE_TOKEN = re.compile(r"cache|manifest|blob|shard|\.pkl", re.IGNORECASE)

_PICKLE_FUNCTIONS = frozenset({"load", "loads", "dump", "dumps", "Pickler", "Unpickler"})
_DIRECT_IO_ATTRS = frozenset(
    {"write_bytes", "read_bytes", "write_text", "read_text", "fdopen"}
)


class PickleVisitor(RuleVisitor):
    """Any ``pickle`` use outside the codec layers."""

    rule_id = "store-pickle"
    severity = SEVERITY_ERROR

    _MESSAGE = (
        "pickle outside store/ bypasses the integrity envelope "
        "and atomic publication; persist through ResultStore "
        "(repro.store.wrap_blob + store.put)"
    )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        super().visit_ImportFrom(node)
        if node.module == "pickle" and node.level == 0:
            self.emit(node, self._MESSAGE)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr in _PICKLE_FUNCTIONS:
            origin = self.resolve(node.func)
            if origin and origin.startswith("pickle."):
                self.emit(node, self._MESSAGE)
        self.generic_visit(node)


class DirectIOVisitor(RuleVisitor):
    """``open()``/``Path`` byte I/O aimed at cache/manifest-looking paths."""

    rule_id = "store-direct-io"
    severity = SEVERITY_ERROR

    def _touches_cache_state(self, node: ast.Call) -> bool:
        return any(_CACHE_TOKEN.search(name) for name in self.local_names(node))

    def visit_Call(self, node: ast.Call) -> None:
        direct = (
            isinstance(node.func, ast.Name) and node.func.id == "open"
        ) or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DIRECT_IO_ATTRS
        )
        if direct and self._touches_cache_state(node):
            self.emit(
                node,
                "direct file I/O on what looks like a cache/manifest path; "
                "route persistence through ResultStore and the atomic-write "
                "helpers (store.put / write_manifest)",
            )
        self.generic_visit(node)


register(
    Rule(
        id=PickleVisitor.rule_id,
        family="store",
        severity=PickleVisitor.severity,
        scopes=None,
        exempt=_CODEC_LAYERS,
        rationale="pickled payloads written outside the store layer skip "
                  "versioning and envelopes",
        visitor=PickleVisitor,
    )
)
register(
    Rule(
        id=DirectIOVisitor.rule_id,
        family="store",
        severity=DirectIOVisitor.severity,
        scopes=None,
        exempt=_CODEC_LAYERS,
        rationale="cache/manifest files written without the atomic helpers "
                  "can be observed torn by concurrent sweeps",
        visitor=DirectIOVisitor,
    )
)
