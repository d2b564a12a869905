"""The root of every exception ``repro`` defines.

``python -m repro`` promises that anything a user can provoke ends in
one line on stderr and exit status 2, never a traceback.  That promise
needs a single type to catch: every exception class in the package
derives from :class:`ReproError` (``tests/core/test_cli.py`` walks the
package to enforce it), and ``repro.__main__.main`` holds the only
handler.  Anything else — an ``AssertionError``, a ``KeyError`` from a
bug — is deliberately *not* caught there, so defects stay loud.
"""


class ReproError(Exception):
    """Base class of every error raised on purpose by ``repro``."""


class UsageError(ReproError, ValueError):
    """A bad argument or input, raised where it is detected.

    Also a :class:`ValueError`: that is what these checks raised before
    they had a type of their own, and library callers catching
    ``ValueError`` keep working.
    """
