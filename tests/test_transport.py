"""Fixture playback and recording behavior."""

from __future__ import annotations

import json
import os
import re

import pytest

from refs import FixtureMissingError, FixtureTransport, HttpRequest, HttpResponse
from refs.transport import RecordingTransport


def entry(url, body="ok", method="GET", accept="", status=200, request_body=None):
    e = {
        "request": {"method": method, "url": url, "accept": accept},
        "response": {"status": status, "headers": {}, "body": body},
    }
    if request_body is not None:
        e["request"]["body"] = request_body
    return e


class TestFixtureTransport:
    def test_playback_is_deterministic(self):
        t = FixtureTransport([entry("https://x.test/a", body="payload")])
        req = HttpRequest("GET", "https://x.test/a")
        assert t.execute(req).text() == "payload"
        assert t.execute(req).text() == "payload"

    def test_missing_fixture_raises(self):
        t = FixtureTransport([])
        with pytest.raises(FixtureMissingError):
            t.execute(HttpRequest("GET", "https://x.test/unknown"))

    def test_keyed_on_accept_header(self):
        t = FixtureTransport(
            [
                entry("https://x.test/a", body="json", accept="application/json"),
                entry("https://x.test/a", body="bib", accept="application/x-bibtex"),
            ]
        )
        assert t.execute(
            HttpRequest("GET", "https://x.test/a", headers={"Accept": "application/json"})
        ).text() == "json"
        assert t.execute(
            HttpRequest("GET", "https://x.test/a", headers={"Accept": "application/x-bibtex"})
        ).text() == "bib"

    def test_post_body_disambiguates(self):
        t = FixtureTransport(
            [
                entry("https://x.test/p", body="one", method="POST", request_body='{"n": 1}'),
                entry("https://x.test/p", body="two", method="POST", request_body='{"n": 2}'),
            ]
        )
        assert t.execute(
            HttpRequest("POST", "https://x.test/p", body=b'{"n": 2}')
        ).text() == "two"

    def test_is_offline(self):
        assert FixtureTransport([]).is_live is False

    def test_from_dir_loads_all_archives(self, fixture_dir):
        t = FixtureTransport.from_dir(fixture_dir)
        assert t._entries

    def test_from_dir_rejects_empty_directory(self, tmp_path):
        with pytest.raises(FixtureMissingError):
            FixtureTransport.from_dir(tmp_path)


class _StubTransport:
    is_live = True

    def __init__(self, response):
        self.response = response

    def execute(self, request):
        return self.response


class _EchoTransport:
    is_live = True

    def execute(self, request):
        return HttpResponse(status=200, body=request.url.encode("utf-8"))


class TestRecordingTransport:
    def test_records_then_replays(self, tmp_path):
        archive = tmp_path / "recorded.json"
        stub = _StubTransport(HttpResponse(status=200, headers={"Content-Type": "text/plain"},
                                           body=b"answer"))
        recorder = RecordingTransport(stub, archive)
        req = HttpRequest("GET", "https://x.test/live", headers={"Accept": "text/plain"})
        assert recorder.execute(req).text() == "answer"

        replay = FixtureTransport()
        replay.load_file(archive)
        assert replay.execute(req).text() == "answer"

    def test_records_post_bodies(self, tmp_path):
        archive = tmp_path / "recorded.json"
        recorder = RecordingTransport(_StubTransport(HttpResponse(status=200, body=b"ok")), archive)
        recorder.execute(HttpRequest("POST", "https://x.test/p", body=b'{"a": 1}'))
        data = json.loads(archive.read_text())
        assert data["entries"][0]["request"]["body"] == '{"a": 1}'

    def test_many_exchanges_replay_and_the_archive_is_replaced_not_rewritten(self, tmp_path):
        archive = tmp_path / "recorded.json"
        recorder = RecordingTransport(_EchoTransport(), archive)
        requests = [HttpRequest("GET", f"https://x.test/{n}") for n in range(25)]
        recorder.execute(requests[0])
        # A hard link keeps the first version's inode: an in-place write would change it.
        snapshot = tmp_path / "snapshot.json"
        os.link(archive, snapshot)
        first_version = snapshot.read_bytes()
        for req in requests[1:]:
            recorder.execute(req)

        replay = FixtureTransport()
        replay.load_file(archive)
        assert [replay.execute(req).text() for req in requests] == [r.url for r in requests]
        assert snapshot.read_bytes() == first_version
        assert sorted(p.name for p in tmp_path.iterdir()) == ["recorded.json", "snapshot.json"]

    def test_existing_archive_is_extended(self, tmp_path):
        archive = tmp_path / "recorded.json"
        first, second = HttpRequest("GET", "https://x.test/1"), HttpRequest("GET", "https://x.test/2")
        RecordingTransport(_EchoTransport(), archive).execute(first)
        RecordingTransport(_EchoTransport(), archive).execute(second)
        replay = FixtureTransport()
        replay.load_file(archive)
        assert [replay.execute(r).text() for r in (first, second)] == [first.url, second.url]

    def test_wrapped_transport_is_live(self, tmp_path):
        recorder = RecordingTransport(_StubTransport(HttpResponse(200)), tmp_path / "a.json")
        assert recorder.is_live is True


# A file in a fixture directory that is not an archive: not JSON, or no "entries".
MALFORMED_ARCHIVES = pytest.mark.parametrize("text, cause", [
    ("not json", "JSONDecodeError"),
    ('{"items": []}', "KeyError('entries')"),
], ids=["not-json", "no-entries"])


class TestMalformedArchive:
    @MALFORMED_ARCHIVES
    def test_loading_it_names_the_file(self, tmp_path, text, cause):
        archive = tmp_path / "bad.json"
        archive.write_text(text)
        with pytest.raises(FixtureMissingError, match=re.escape(f"bad.json is not a fixture archive: {cause}")):
            FixtureTransport.from_dir(tmp_path)

    @MALFORMED_ARCHIVES
    def test_recording_onto_it_names_the_file(self, tmp_path, text, cause):
        archive = tmp_path / "bad.json"
        archive.write_text(text)
        with pytest.raises(FixtureMissingError, match=re.escape(f"bad.json is not a fixture archive: {cause}")):
            RecordingTransport(_EchoTransport(), archive)
        assert archive.read_text() == text


def _reshaped(change):
    """A well-formed exchange with one change applied to it."""
    exchange = entry("https://x.test/a")
    change(exchange)
    return exchange


# One exchange that playback could not read, and the problem its refusal names.
MALFORMED_EXCHANGES = pytest.mark.parametrize("exchange, problem", [
    ("x", "a str, not an object"),
    (_reshaped(lambda e: e.pop("request")), "no request object"),
    (_reshaped(lambda e: e["request"].pop("url")), "no request url"),
    (_reshaped(lambda e: e.pop("response")), "no response object"),
    (_reshaped(lambda e: e["response"].update(status="200")), "no integer response status"),
    (_reshaped(lambda e: e["response"].update(status=True)), "no integer response status"),
    (_reshaped(lambda e: e["response"].update(headers=[])), "response headers are not an object"),
    (_reshaped(lambda e: e["request"].update(method=1)), "the request method is not text"),
    (_reshaped(lambda e: e["request"].update(accept=None)), "the request accept is not text"),
    (_reshaped(lambda e: e["request"].update(body=[1])), "the request body is not text"),
    (_reshaped(lambda e: e["response"].update(body=None)), "the response body is not text"),
], ids=["not-an-object", "no-request", "no-url", "no-response", "text-status", "bool-status",
        "list-headers", "int-method", "null-accept", "list-request-body", "null-response-body"])


class TestMalformedExchange:
    @MALFORMED_EXCHANGES
    def test_loading_it_names_the_file_and_entry(self, tmp_path, exchange, problem):
        archive = tmp_path / "bad.json"
        archive.write_text(json.dumps({"entries": [entry("https://x.test/ok"), exchange]}))
        with pytest.raises(FixtureMissingError) as caught:
            FixtureTransport.from_dir(tmp_path)
        assert str(caught.value) == f"{archive} entry 1 is not a recorded exchange: {problem}"

    @MALFORMED_EXCHANGES
    def test_recording_onto_it_names_the_file_and_entry(self, tmp_path, exchange, problem):
        archive = tmp_path / "bad.json"
        text = json.dumps({"entries": [exchange]})
        archive.write_text(text)
        with pytest.raises(FixtureMissingError, match=re.escape(f"entry 0 is not a recorded exchange: {problem}")):
            RecordingTransport(_EchoTransport(), archive)
        assert archive.read_text() == text

    def test_entries_that_are_not_a_list_are_no_archive(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"entries": {"request": {}}}')
        with pytest.raises(FixtureMissingError, match="bad.json is not a fixture archive: its entries are not a list"):
            FixtureTransport.from_dir(tmp_path)

    def test_optional_members_may_be_left_out_and_a_request_body_null(self, tmp_path):
        exchange = {"request": {"url": "https://x.test/a", "body": None}, "response": {"status": 204}}
        (tmp_path / "sparse.json").write_text(json.dumps({"entries": [exchange]}))
        response = FixtureTransport.from_dir(tmp_path).execute(HttpRequest("GET", "https://x.test/a"))
        assert (response.status, response.headers, response.body) == (204, {}, b"")
