"""Developer tooling: the repro-lint static-analysis pass and format locks.

Nothing in here runs at simulation time — these are the checks CI (and a
developer, locally) runs over the *source tree*:

* :mod:`repro.devtools.lint` — an AST-based lint suite encoding the
  repository's determinism, store-discipline and exception-discipline
  invariants (``repro-sdpolicy lint`` / ``python -m repro.devtools.lint``);
* :mod:`repro.devtools.formats` — fingerprints every persisted schema
  (cache payloads, shard manifests, the per-job record dtype) into a
  committed ``formats.lock`` and fails when a schema changes without the
  matching format-version bump (``python -m repro.devtools.formats``).
"""

from repro.devtools.lint import Finding, LintReport, lint_paths

__all__ = ["Finding", "LintReport", "lint_paths"]
