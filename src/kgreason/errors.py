"""Exception types shared across the toolkit.

The command line layer maps these onto exit codes, so library code should
raise the most specific class that applies instead of bare ValueError.
"""

from __future__ import annotations


class KgReasonError(Exception):
    """Base class for all toolkit errors."""


class DataError(KgReasonError):
    """Malformed or inconsistent input data."""


class IngestError(DataError):
    """A line of a text input could not be parsed.  Carries the 1-based line
    number, and what was wrong with the line when that is known."""

    def __init__(self, line_no: int, what: str, detail: str = ""):
        super().__init__(f"bad {what} on line {line_no}" + (detail and f": {detail}"))
        self.line_no = line_no


class UnknownSymbolError(DataError):
    """An entity or relation name (or id) is not present in the graph."""


class TemplateError(DataError):
    """A verbalization template is missing or malformed."""


class UsageError(KgReasonError):
    """The caller violated an operation precondition."""


class ClientError(KgReasonError):
    """The external model endpoint failed in a way that cannot be absorbed."""
