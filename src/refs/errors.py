"""Exception hierarchy shared across the package."""

from __future__ import annotations


class RefsError(Exception):
    """Base class for every error raised by this package."""


class InvalidDoiError(RefsError, ValueError):
    """The input string is not a valid DOI."""


class BibcodeError(RefsError, ValueError):
    """Base class for bibcode parsing and formatting problems."""


class BibcodeLengthError(BibcodeError):
    """A bibcode string is not exactly 19 characters long."""


class BibcodeFormatError(BibcodeError):
    """A bibcode column holds a character its grammar refuses."""


class InvalidAuthorError(RefsError, ValueError):
    """An author name cannot be built, e.g. the surname is empty."""


class BibtexParseError(RefsError, ValueError):
    """A BibTeX entry could not be tokenized.

    ``offset`` is the character index into the input at which parsing failed.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.offset = offset


class BibtexCardinalityError(RefsError, ValueError):
    """The input did not contain exactly one BibTeX entry."""


class UnusableMetadataError(RefsError, ValueError):
    """Metadata builds no record: no author and no title, no DOI, or a year out of range."""


# What decoding a row refs wrote itself may raise when the row is damaged;
# RecursionError is JSON nested past the interpreter's recursion limit.
MODEL_REFUSALS = (AttributeError, LookupError, RecursionError, TypeError, ValueError)


class UnrenderableError(RefsError):
    """A record has no renderable fields at all."""

    def __init__(self, message: str = "record has no renderable fields"):
        super().__init__(message)


class TransportError(RefsError):
    """Base class for HTTP-level failures."""


class TransportTimeoutError(TransportError):
    """The transport timed out or could not connect."""


class FixtureMissingError(TransportError):
    """No recorded fixture matches the request; test setup is incomplete."""


class UpstreamError(TransportError):
    """An upstream service answered with an unexpected HTTP status."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class AuthError(UpstreamError):
    """Missing or rejected API token."""


class UpstreamUnavailableError(UpstreamError):
    """The upstream kept failing with 5xx or timeouts after all retries."""


class ResponseDecodeError(TransportError):
    """The response body could not be decoded into the expected shape."""


class UnknownDoiError(TransportError):
    """The DOI resolver does not know the requested DOI (HTTP 404)."""


class NoMetadataFormatError(TransportError):
    """The DOI is registered but no metadata is available in the requested format (HTTP 406)."""


class NoMatchError(TransportError):
    """A free-text bibliographic search returned zero results."""


class StoreError(RefsError):
    """Base class for persistence failures."""


class MissingEntryError(StoreError, KeyError):
    """A requested entry (global ID or cross-reference) does not exist.

    ``missing`` lists the offending identifiers.
    """

    def __init__(self, message: str, missing: list | None = None):
        Exception.__init__(self, message)
        self.missing = list(missing) if missing else []

    def __str__(self) -> str:  # KeyError would repr() the message otherwise
        return self.args[0]


class DuplicateEntryError(StoreError):
    """An entry with the same DOI set already exists.

    ``existing_id`` is the global ID of the entry already in the store.
    """

    def __init__(self, message: str, existing_id: int):
        super().__init__(message)
        self.existing_id = existing_id


class CrossRefConflictError(StoreError):
    """A (scope, parameter, local_id) key is already mapped to a different global ID."""


class ResolutionFailedError(RefsError):
    """Both the ADS path and the content-negotiation fallback failed.

    Carries the cause of each branch for diagnostics.
    """

    def __init__(self, ads_cause: str, fallback_cause: str):
        super().__init__(
            f"reference resolution failed: ADS path: {ads_cause}; fallback path: {fallback_cause}"
        )
        self.ads_cause = ads_cause
        self.fallback_cause = fallback_cause

