"""Stand-ins for the network and broken fixture archives, for more than one test module.

A helper module, like ``corpus.py``: test modules import it at the top,
and no test module imports another for it.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

from conftest import exchange


class FakeResponse:
    """The part of http.client.HTTPResponse that LiveTransport reads."""

    def __init__(self, status=200, headers=(), body=b"", will_close=False):
        self.status, self.headers, self.body, self.will_close = status, list(headers), body, will_close

    def getheader(self, name, default=None):
        values = [v for k, v in self.headers if k.lower() == name.lower()]
        return ", ".join(values) if values else default

    def getheaders(self):
        return list(self.headers)

    def read(self):
        return self.body


class Sent(NamedTuple):
    conn: "FakeConnection"
    method: str
    target: str
    body: bytes | None
    headers: dict[str, str]


class FakeConnection:
    """One connection to one origin; each request is answered by its network."""

    def __init__(self, network, scheme, netloc, timeout):
        self.network, self.scheme, self.netloc, self.timeout = network, scheme, netloc, timeout
        self.sent: list[Sent] = []
        self.closed = False

    def request(self, method, target, body=None, headers=None):
        assert not self.closed, "a closed connection was used again"
        self.sent.append(Sent(self, method, target, body, dict(headers or {})))
        self.network.sent.append(self.sent[-1])

    def getresponse(self):
        return self.network.answer(self.sent[-1])

    def close(self):
        self.closed = True


class FakeNetwork:
    """Stands in for ``transport._connect``: no socket is opened.

    ``answer(sent)`` returns the FakeResponse to one request, or raises what
    the connection would. ``connections`` and ``sent`` keep everything made.
    """

    def __init__(self, answer=None):
        self.answer = answer or (lambda sent: FakeResponse(body=b"ok"))
        self.connections: list[FakeConnection] = []
        self.sent: list[Sent] = []

    def __call__(self, scheme, netloc, timeout):
        self.connections.append(FakeConnection(self, scheme, netloc, timeout))
        return self.connections[-1]


def header(sent: Sent, name: str) -> str | None:
    """The value of one header of a sent request, its name in any case; None if not sent."""
    return next((v for k, v in sent.headers.items() if k.lower() == name.lower()), None)


# A file in a fixture directory that is not an archive: not JSON, JSON nested
# past the recursion limit, or no "entries".
MALFORMED_ARCHIVES = pytest.mark.parametrize("text, cause", [
    ("not json", "JSONDecodeError"),
    ('{"entries": ' + "[" * 100_000, "RecursionError"),
    ('{"items": []}', "KeyError('entries')"),
], ids=["not-json", "nested", "no-entries"])


def _reshaped(change):
    """A well-formed exchange with one change applied to it."""
    reshaped = exchange("https://x.test/a", "ok")
    change(reshaped)
    return reshaped


# One exchange that playback could not read, and the problem its refusal names.
MALFORMED_EXCHANGES = pytest.mark.parametrize("malformed, problem", [
    ("x", "a str, not an object"),
    (_reshaped(lambda e: e.pop("request")), "no request object"),
    (_reshaped(lambda e: e["request"].pop("url")), "no request url"),
    (_reshaped(lambda e: e.pop("response")), "no response object"),
    (_reshaped(lambda e: e["response"].update(status="200")), "no integer response status"),
    (_reshaped(lambda e: e["response"].update(status=True)), "no integer response status"),
    (_reshaped(lambda e: e["response"].update(headers=[])), "response headers are not an object"),
    (_reshaped(lambda e: e["request"].update(method=1)), "the request method is not text"),
    (_reshaped(lambda e: e["request"].update(accept=None)), "the request accept is not text"),
    (_reshaped(lambda e: e["response"].update(body=None)), "the response body is not text"),
    (_reshaped(lambda e: e["response"].update(body="\ud800 ok")),
     "the response body holds a lone surrogate, which UTF-8 cannot encode"),
    (_reshaped(lambda e: e["request"].update(url="https://x.test/\udcff")),
     "the request url holds a lone surrogate, which UTF-8 cannot encode"),
    (_reshaped(lambda e: e["response"].update(headers={"Retry-After": 5})),
     "the response header Retry-After is not text"),
    (_reshaped(lambda e: e["response"].update(headers={"Retry-After\udcff": "5"})),
     "the response header name holds a lone surrogate, which UTF-8 cannot encode"),
    (_reshaped(lambda e: e["response"].update(headers={"Retry-After": "\ud800"})),
     "the response header Retry-After holds a lone surrogate, which UTF-8 cannot encode"),
], ids=["not-an-object", "no-request", "no-url", "no-response", "text-status", "bool-status",
        "list-headers", "int-method", "null-accept", "null-response-body", "surrogate-body",
        "surrogate-url", "int-header", "surrogate-header-name", "surrogate-header-value"])
