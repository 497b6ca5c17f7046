"""The common base of the library's errors.

Every error class the library defines derives from :class:`FullposeError`
as well as from the builtin it has always been (``ValueError`` for bad
input, ``RuntimeError`` for a request that cannot be met), so callers
can catch either; the CLI maps any of them to exit code 1 with a JSON
``error``.
"""


class FullposeError(Exception):
    """Base class of every error defined by the fullpose library."""
