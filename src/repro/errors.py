"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-classes are deliberately
fine-grained: parsing problems, fragment violations (using a feature that a
restricted engine does not accept) and structural tree errors are distinct
failure modes with distinct recovery strategies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParseError(ReproError):
    """Raised when an XPath expression or tree literal cannot be parsed.

    Attributes:
        text: the full input being parsed.
        position: offset at which parsing failed, when known.
    """

    def __init__(self, message: str, text: str = "", position: int | None = None):
        self.text = text
        self.position = position
        if position is not None and text:
            pointer = " " * position + "^"
            message = f"{message}\n  {text}\n  {pointer}"
        super().__init__(message)


class TreeError(ReproError):
    """Raised on invalid structural operations on a :class:`DataTree`."""


class FragmentError(ReproError):
    """Raised when a query lies outside the XPath fragment an engine supports.

    The decision procedures of the paper are fragment-specific (Table 1 and
    Table 2); engines validate their inputs and raise this error rather than
    silently producing unsound answers.
    """


class NotConcreteError(FragmentError):
    """Raised when a non-concrete path (wildcard output) reaches an engine
    that, following the paper's presentation, assumes concrete paths."""


class WireError(ReproError, ValueError):
    """Raised when a wire value does not decode under its declared type
    (:mod:`repro.codec`); the service answers a malformed request."""


class StreamError(ReproError):
    """Raised on protocol misuse of the online enforcement stream
    (:mod:`repro.stream`): nested ``begin``, ``commit``/``rollback``
    outside a transaction, or operations on a closed stream."""


class CertifyError(ReproError):
    """Raised on template-algebra misuse (:mod:`repro.certify`): malformed
    hole declarations, bindings outside a hole's declared domain, or a
    certified submission whose guard fails (nothing is applied)."""


class ServiceError(ReproError):
    """Raised on misuse of the multi-document constraint service
    (:mod:`repro.service`): unknown or duplicate document / constraint-set
    names, a document already enforced under a different policy, or a
    malformed wire-level request."""


class ServerError(ReproError):
    """Raised on failures of the durable socket front end
    (:mod:`repro.server`): handshake/protocol-version mismatches, frames
    that exceed the wire limit, or submissions to a closed server."""


class JournalError(ServerError):
    """Raised when a durability journal cannot be written or replayed."""


class JournalCorruptError(JournalError):
    """Raised when recovery meets checksum-corrupt journal *history*.

    A torn tail (an interrupted final append) is expected after a crash
    and is silently truncated; a CRC mismatch on a complete record means
    the bytes on disk are not the bytes that were written — recovery
    refuses loudly rather than rebuild a silently wrong document.
    """

    def __init__(self, message: str, path: str = "", offset: int = 0):
        self.path = path
        self.offset = offset
        super().__init__(message)


class UnsupportedProblemError(ReproError):
    """Raised when no exact engine covers a problem instance and the caller
    asked for a definite answer (``require_decision=True``)."""
