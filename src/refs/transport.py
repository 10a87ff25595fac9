"""HTTP transport abstraction: live requests, fixture playback, and fixture archives.

Resolvers never touch a socket directly; they hand an HttpRequest to a
transport. Tests replay recorded fixtures, so the whole suite runs offline
and deterministically. LiveTransport needs nothing outside the standard
library: http.client, and ssl with the system's certificate store
(``SSL_CERT_FILE`` and ``SSL_CERT_DIR`` point it elsewhere). Both are
imported only when a LiveTransport is built.

``refs add --record-fixtures`` checks the archive before the first request,
then writes it once (``write_archive``), from the exchanges the resolution's
Upstream kept, after the resolution ends or fails: a killed process loses
them. An add answered from the store makes no request and writes nothing.
"""

from __future__ import annotations

import functools
import json
import zlib
from pathlib import Path
from typing import Iterable, Protocol
from urllib.parse import urljoin, urlsplit

from . import __version__
from .errors import FixtureMissingError, TransportTimeoutError, UpstreamError
from .fileio import replace_files
from .values import Frozen, slot_setters


class HttpRequest(Frozen):
    """One outgoing GET, so ``body`` reads None. ``headers`` of None means no headers."""

    __slots__ = ("method", "url", "headers")
    method: str
    url: str
    headers: dict[str, str]

    def __init__(self, method: str, url: str, headers: dict[str, str] | None = None) -> None:
        if method != "GET":
            raise ValueError(f"every request is a GET, not {method!r}")
        _set_request_method(self, method)
        _set_request_url(self, url)
        _set_request_headers(self, {} if headers is None else headers)

    body = property(lambda self: None)

    @property
    def accept(self) -> str:
        for name, value in self.headers.items():
            if name.lower() == "accept":
                return value
        return ""


_set_request_method, _set_request_url, _set_request_headers = slot_setters(HttpRequest)


class HttpResponse(Frozen):
    """One response. ``headers`` of None means no headers."""

    __slots__ = ("status", "headers", "body")
    status: int
    headers: dict[str, str]
    body: bytes

    def __init__(self, status: int, headers: dict[str, str] | None = None,
                 body: bytes = b"") -> None:
        _set_response_status(self, status)
        _set_response_headers(self, {} if headers is None else headers)
        _set_response_body(self, body)

    def text(self) -> str:
        return self.body.decode("utf-8")

    def json(self) -> object:
        """The decoded body; a ValueError if a string in it holds a lone surrogate, or if it
        nests past the interpreter's recursion limit."""
        text = self.body.decode("utf-8")
        try:
            value = json.loads(text)
            if "\\ud" in text or "\\uD" in text:  # only a \u escape decodes to a surrogate
                json.dumps(value, ensure_ascii=False).encode("utf-8")  # UnicodeEncodeError if one did
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        return value


_set_response_status, _set_response_headers, _set_response_body = slot_setters(HttpResponse)


class Transport(Protocol):
    is_live: bool

    def execute(self, request: HttpRequest) -> HttpResponse: ...


REDIRECT_LIMIT = 10
_DEFAULT_PORTS = {"http": 80, "https": 443}
_DEFAULT_HEADERS = {"user-agent": "refs/" + __version__, "accept-encoding": "gzip, deflate",
                    "accept": "*/*"}


def _connect(scheme: str, netloc: str, timeout: float):
    """A new connection to one origin; module-level so tests can pass a fake one."""
    import http.client

    if scheme == "https":
        return http.client.HTTPSConnection(netloc, timeout=timeout, context=_tls_context())
    return http.client.HTTPConnection(netloc, timeout=timeout)


@functools.cache
def _tls_context():
    """The system certificate store, loaded once: each load takes tens of milliseconds."""
    import ssl

    return ssl.create_default_context()


def _origin(url: str) -> tuple[str, str, int]:
    """A URL's (scheme, host, port): what a connection is kept for and a token sent to."""
    parts = urlsplit(url)
    try:
        return parts.scheme, parts.hostname or "", parts.port or _DEFAULT_PORTS[parts.scheme]
    except (KeyError, ValueError):
        raise UpstreamError(f"cannot fetch {url!r}: not a valid http or https URL") from None


class LiveTransport:
    """Real HTTP on http.client, with one kept-alive connection per origin.

    Redirects are followed to depth REDIRECT_LIMIT. Authorization is dropped
    once a redirect leaves the first URL's origin (RFC 9110 section 15.4).
    """

    is_live = True

    def __init__(self, timeout: float = 30.0):
        import http.client

        self.timeout = timeout
        self._failures = (OSError, http.client.HTTPException, zlib.error)
        self._connections: dict[tuple[str, str, int], object] = {}

    def execute(self, request: HttpRequest) -> HttpResponse:
        url = request.url
        first_origin = _origin(url)
        # Field names are case-insensitive (RFC 9110 section 5.1): one spelling each.
        headers = _DEFAULT_HEADERS | {k.lower(): v for k, v in request.headers.items()}
        for _ in range(REDIRECT_LIMIT + 1):
            try:
                response, data = self._exchange(url, headers)
            except self._failures as exc:
                raise TransportTimeoutError(f"GET {url}: {exc!r}") from exc
            status, location = response.status, response.getheader("Location")
            if status not in (301, 302, 303, 307, 308) or location is None:
                return HttpResponse(status, dict(response.getheaders()), data)
            url = urljoin(url, location)
            if _origin(url) != first_origin:
                headers.pop("authorization", None)
        raise UpstreamError(f"{request.url} redirected more than {REDIRECT_LIMIT} times")

    def _exchange(self, url: str, headers: dict[str, str]):
        """One GET on the origin's kept connection, or a new one; the response and body."""
        origin, parts = _origin(url), urlsplit(url)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        conn = self._connections.pop(origin, None)
        retry = conn is not None
        if conn is None:
            conn = _connect(parts.scheme, parts.netloc, self.timeout)
        try:
            while True:
                try:
                    conn.request("GET", target, headers=headers)
                    response = conn.getresponse()
                    break
                except self._failures as exc:
                    # An idle connection that the server has closed fails before
                    # any response: the GET is sent once more on a fresh connection.
                    if not retry or isinstance(exc, TimeoutError):
                        raise
                    conn.close()
                    conn, retry = _connect(parts.scheme, parts.netloc, self.timeout), False
            data = response.read()
            if response.getheader("Content-Encoding", "").strip().lower() in ("gzip", "deflate"):
                data = zlib.decompress(data, 47)  # 32 + 15: a zlib or a gzip stream
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            self._connections[origin] = conn
        return response, data


def _archive_entries(path: Path) -> list[dict]:
    """The recorded exchanges of a fixture archive, a JSON ``{"entries": [...]}`` file.

    Each exchange is checked here, once, for every member playback reads.
    """
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
    except (LookupError, RecursionError, TypeError, ValueError) as exc:
        raise FixtureMissingError(f"{path} is not a fixture archive: {exc!r}") from exc
    if not isinstance(entries, list):
        raise FixtureMissingError(f"{path} is not a fixture archive: its entries are not a list")
    for index, entry in enumerate(entries):
        if problem := _exchange_problem(entry):
            raise FixtureMissingError(f"{path} entry {index} is not a recorded exchange: {problem}")
    return entries


def _exchange_problem(entry: object) -> str | None:
    """What playback could not read in one recorded exchange, or None."""
    if not isinstance(entry, dict):
        return f"a {type(entry).__name__}, not an object"
    request, response = entry.get("request"), entry.get("response")
    if not isinstance(request, dict):
        return "no request object"
    if not isinstance(request.get("url"), str):
        return "no request url"
    if not isinstance(response, dict):
        return "no response object"
    status = response.get("status")
    if not isinstance(status, int) or isinstance(status, bool):
        return "no integer response status"
    headers = response.get("headers", {})
    if not isinstance(headers, dict):
        return "response headers are not an object"
    members = [("request url", request["url"]),
               ("request method", request.get("method", "GET")),
               ("request accept", request.get("accept", "")),
               ("response body", response.get("body", ""))]
    for header, value in headers.items():
        members += [("response header name", header), (f"response header {header}", value)]
    for name, value in members:
        if not isinstance(value, str):
            return f"the {name} is not text"
        try:
            value.encode("utf-8")  # what playback and a recording onto the archive both do
        except UnicodeEncodeError:
            return f"the {name} holds a lone surrogate, which UTF-8 cannot encode"
    return None


class FixtureTransport:
    """Deterministic playback of recorded (request, response) pairs.

    Responses to GETs are keyed on (url, accept header); when several
    recordings share a key, the first one replays. A recording of another
    method is never replayed. No network I/O ever happens here.
    """

    is_live = False

    def __init__(self, entries: Iterable[dict] = ()):
        self._entries: dict[tuple[str, str], dict] = {}
        for entry in entries:
            req = entry["request"]
            if req.get("method", "GET").upper() == "GET":
                self._entries.setdefault((req["url"], req.get("accept", "")), entry)

    @classmethod
    def from_dir(cls, path: str | Path) -> "FixtureTransport":
        """Load every .json archive under a directory, in name order."""
        files = sorted(Path(path).glob("*.json"))
        if not files:
            raise FixtureMissingError(f"no fixture archives in {path}")
        return cls(entry for f in files for entry in _archive_entries(f))

    def execute(self, request: HttpRequest) -> HttpResponse:
        match = self._entries.get((request.url, request.accept))
        if match is None:
            raise FixtureMissingError(
                f"no fixture for GET {request.url} (accept={request.accept!r})")
        resp = match["response"]
        return HttpResponse(
            status=resp["status"],
            headers=resp.get("headers", {}),
            body=resp.get("body", "").encode("utf-8"),
        )


# The response headers a recording keeps (lower-cased): those a replay's caller
# reads, so a replayed 429 is refused on a long Retry-After, as live.
RECORDED_HEADERS = ("content-type", "retry-after")


def write_archive(path: Path, entries: list[dict],
                  exchanges: Iterable[tuple[HttpRequest, HttpResponse]]) -> None:
    """Replace a fixture archive, at once: ``entries``, then one entry per exchange.

    ``entries`` are the archive's own, as ``_archive_entries`` read them. An
    exchange keeps its response's RECORDED_HEADERS, and its body as UTF-8
    text, with U+FFFD for any byte that does not decode.
    """
    recorded = [{
        "request": {"method": request.method, "url": request.url, "accept": request.accept},
        "response": {
            "status": response.status,
            "headers": {k: v for k, v in response.headers.items() if k.lower() in RECORDED_HEADERS},
            "body": response.body.decode("utf-8", errors="replace"),
        },
    } for request, response in exchanges]
    text = json.dumps({"entries": entries + recorded}, indent=2, ensure_ascii=False) + "\n"
    replace_files([path], [(text,)])
