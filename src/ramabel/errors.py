"""Error types shared across the package.

Invalid arguments raise the built-in ValueError; only the failure modes
that are not plain bad input get their own classes.
"""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a configured resource budget."""


class InternalConsistencyError(RuntimeError):
    """A self-check failed; indicates a bug, never expected in normal use."""


class DamagedDumpError(ValueError):
    """A file starts with a table dump's magic but ends before its tables do,
    or fails the dump's crc32 check."""
