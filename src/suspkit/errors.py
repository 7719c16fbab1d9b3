"""Shared exception hierarchy.

Every module raises subclasses of SuspkitError so the CLI can map any
pipeline failure to a structured error line and a data-error exit code.
"""


class SuspkitError(Exception):
    """Base class for all errors raised by this package."""


class MissingArtifact(SuspkitError):
    """A stage was invoked before the artifacts it depends on exist."""


class StaleArtifact(SuspkitError):
    """An input artifact does not match the artifacts it was built with."""


class SchemaMismatch(SuspkitError):
    """An input artifact lacks a field the stage that writes it gives
    it, or holds a value of another shape."""
