"""Live HTTP over a fake connection, fixture playback, and the archive writer."""

from __future__ import annotations

import gzip
import http.client
import json
import os
import re
import zlib

import pytest

import refs.resolvers
import refs.transport
from refs import (
    AdsConfig,
    FixtureMissingError,
    FixtureTransport,
    HttpRequest,
    HttpResponse,
    Upstream,
    UpstreamError,
    UpstreamUnavailableError,
)
from refs.errors import TransportTimeoutError
from refs.transport import LiveTransport, _archive_entries, write_archive

from conftest import exchange
from fakes import MALFORMED_ARCHIVES, MALFORMED_EXCHANGES, FakeNetwork, FakeResponse, header


class TestHttpRequest:
    @pytest.mark.parametrize("method", ["POST", "HEAD", "get", ""])
    def test_any_method_but_get_is_refused(self, method):
        with pytest.raises(ValueError, match=f"every request is a GET, not {method!r}"):
            HttpRequest(method, "https://x.test/a")

    def test_a_get_has_no_body(self):
        request = HttpRequest("GET", "https://x.test/a", headers={"Accept": "text/plain"})
        assert request.body is None
        with pytest.raises(TypeError):
            HttpRequest("GET", "https://x.test/a", {}, b"{}")


class TestHttpResponseJson:
    @pytest.mark.parametrize("body, value", [
        (r'{"t": "x\ud83d\ude00"}', {"t": "x\U0001f600"}),
        (r'{"t": "x\\ud800"}', {"t": "x\\ud800"}),
        (r'{"t": "\u00e9"}', {"t": "\u00e9"}),
    ], ids=["surrogate-pair", "escaped-backslash", "bmp-escape"])
    def test_escapes_decode_to_text(self, body, value):
        assert HttpResponse(200, body=body.encode()).json() == value

    @pytest.mark.parametrize("body", [
        r'{"t": "A \ud800 B"}', r'["\uDFFF"]', r'{"\udc00": 1}', r'[1, {"t": ["\ude00\ud83d"]}]',
    ], ids=["high", "low-upper-case", "in-a-key", "reversed-pair"])
    def test_a_lone_surrogate_is_a_value_error(self, body):
        with pytest.raises(ValueError, match="surrogates not allowed"):
            HttpResponse(200, body=body.encode()).json()


class TestFixtureTransport:
    def test_playback_is_deterministic(self):
        t = FixtureTransport([exchange("https://x.test/a", "payload")])
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
                exchange("https://x.test/a", "json", accept="application/json"),
                exchange("https://x.test/a", "bib", accept="application/x-bibtex"),
            ]
        )
        assert t.execute(
            HttpRequest("GET", "https://x.test/a", headers={"Accept": "application/json"})
        ).text() == "json"
        assert t.execute(
            HttpRequest("GET", "https://x.test/a", headers={"Accept": "application/x-bibtex"})
        ).text() == "bib"

    def test_the_first_recording_of_a_key_replays(self):
        first, second = exchange("https://x.test/p", "one"), exchange("https://x.test/p", "two")
        first["request"]["body"] = '{"n": 1}'  # a request body in an archive is not read
        t = FixtureTransport([first, second])
        assert t.execute(HttpRequest("GET", "https://x.test/p")).text() == "one"

    def test_a_recorded_post_loads_and_never_replays(self):
        post = exchange("https://x.test/p", "ok")
        post["request"]["method"] = "POST"
        t = FixtureTransport([post])
        with pytest.raises(FixtureMissingError, match="no fixture for GET https://x.test/p"):
            t.execute(HttpRequest("GET", "https://x.test/p"))

    def test_is_offline(self):
        assert FixtureTransport([]).is_live is False

    def test_from_dir_loads_all_archives(self, fixture_dir):
        t = FixtureTransport.from_dir(fixture_dir)
        assert t._entries

    def test_from_dir_rejects_empty_directory(self, tmp_path):
        with pytest.raises(FixtureMissingError):
            FixtureTransport.from_dir(tmp_path)


def _echoed(*urls: str) -> list[tuple[HttpRequest, HttpResponse]]:
    """Exchanges in which each URL's GET is answered with the URL as its body."""
    return [(HttpRequest("GET", url), HttpResponse(200, body=url.encode("utf-8"))) for url in urls]


class TestWriteArchive:
    def test_records_then_replays(self, tmp_path):
        archive = tmp_path / "recorded.json"
        request = HttpRequest("GET", "https://x.test/live", headers={"Accept": "text/plain"})
        response = HttpResponse(status=200, headers={"Content-Type": "text/plain"}, body=b"answer")
        write_archive(archive, [], [(request, response)])

        replay = FixtureTransport(_archive_entries(archive))
        assert replay.execute(request).text() == "answer"

    def test_many_exchanges_replay_and_the_archive_is_replaced_not_rewritten(self, tmp_path):
        archive = tmp_path / "recorded.json"
        exchanges = _echoed(*(f"https://x.test/{n}" for n in range(25)))
        write_archive(archive, [], exchanges[:1])
        # A hard link keeps the first version's inode: an in-place write would change it.
        snapshot = tmp_path / "snapshot.json"
        os.link(archive, snapshot)
        first_version = snapshot.read_bytes()
        write_archive(archive, _archive_entries(archive), exchanges[1:])

        replay = FixtureTransport(_archive_entries(archive))
        assert [replay.execute(req).text() for req, _ in exchanges] == [
            req.url for req, _ in exchanges]
        assert snapshot.read_bytes() == first_version
        assert sorted(p.name for p in tmp_path.iterdir()) == ["recorded.json", "snapshot.json"]

    def test_existing_entries_come_first_as_they_were(self, tmp_path):
        archive = tmp_path / "recorded.json"
        # Only new exchanges have their headers filtered.
        kept = [exchange("https://x.test/1", "old", accept="text/plain",
                         headers={"X-Kept": "as read"})]
        write_archive(archive, kept, _echoed("https://x.test/2"))
        entries = json.loads(archive.read_text(encoding="utf-8"))["entries"]
        assert entries == [*kept, exchange("https://x.test/2", "https://x.test/2")]

    def test_only_recorded_headers_are_kept_and_a_body_decodes_with_replacement(self, tmp_path):
        archive = tmp_path / "recorded.json"
        response = HttpResponse(429, {"Content-Type": "text/plain", "Retry-After": "3",
                                      "Set-Cookie": "s=1"}, "Jäger ".encode() + b"\xff")
        write_archive(archive, [], [(HttpRequest("GET", "https://x.test/"), response)])
        text = archive.read_text(encoding="utf-8")
        assert json.loads(text)["entries"][0]["response"] == {
            "status": 429, "headers": {"Content-Type": "text/plain", "Retry-After": "3"},
            "body": "Jäger \ufffd"}
        assert "Jäger" in text and text.startswith('{\n  "entries": [\n    {\n')


class TestMalformedArchive:
    @MALFORMED_ARCHIVES
    def test_loading_it_names_the_file(self, tmp_path, text, cause):
        archive = tmp_path / "bad.json"
        archive.write_text(text)
        with pytest.raises(FixtureMissingError, match=re.escape(f"bad.json is not a fixture archive: {cause}")):
            FixtureTransport.from_dir(tmp_path)


class TestMalformedExchange:
    @MALFORMED_EXCHANGES
    def test_loading_it_names_the_file_and_entry(self, tmp_path, malformed, problem):
        archive = tmp_path / "bad.json"
        archive.write_text(json.dumps({"entries": [exchange("https://x.test/ok", "ok"),
                                                   malformed]}))
        with pytest.raises(FixtureMissingError) as caught:
            FixtureTransport.from_dir(tmp_path)
        assert str(caught.value) == f"{archive} entry 1 is not a recorded exchange: {problem}"

    def test_entries_that_are_not_a_list_are_no_archive(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"entries": {"request": {}}}')
        with pytest.raises(FixtureMissingError, match="bad.json is not a fixture archive: its entries are not a list"):
            FixtureTransport.from_dir(tmp_path)

    def test_optional_members_may_be_left_out_and_a_request_body_is_not_read(self, tmp_path):
        sparse = {"request": {"url": "https://x.test/a", "body": [1]}, "response": {"status": 204}}
        (tmp_path / "sparse.json").write_text(json.dumps({"entries": [sparse]}))
        response = FixtureTransport.from_dir(tmp_path).execute(HttpRequest("GET", "https://x.test/a"))
        assert (response.status, response.headers, response.body) == (204, {}, b"")


def redirect(status, location):
    return FakeResponse(status, [("Location", location)])


@pytest.fixture()
def network(monkeypatch):
    fake = FakeNetwork()
    monkeypatch.setattr(refs.transport, "_connect", fake)
    return fake


class TestLiveTransportRedirects:
    @pytest.mark.parametrize("location", ["https://elsewhere.test/b", "http://api.test/b",
                                          "https://api.test:8443/b"],
                             ids=["other-host", "other-scheme", "other-port"])
    def test_a_redirect_off_the_origin_never_carries_the_token(self, network, location):
        network.answer = lambda sent: (redirect(302, location) if sent.target == "/a"
                                       else FakeResponse())
        request = HttpRequest("GET", "https://api.test/a", {"Authorization": "Bearer s3cret"})
        assert LiveTransport().execute(request).status == 200
        first, second = network.sent
        assert header(first, "Authorization") == "Bearer s3cret"
        assert second.conn is not first.conn
        assert not any("s3cret" in f"{k}: {v}" for k, v in second.headers.items())

    def test_a_same_host_redirect_keeps_the_token(self, network):
        network.answer = lambda sent: (redirect(302, "/b?x=1") if sent.target == "/a"
                                       else FakeResponse())
        request = HttpRequest("GET", "https://api.test:443/a", {"Authorization": "Bearer s3cret"})
        LiveTransport().execute(request)
        assert [(s.target, header(s, "Authorization")) for s in network.sent] == [
            ("/a", "Bearer s3cret"), ("/b?x=1", "Bearer s3cret")]

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_each_redirect_status_is_followed(self, network, status):
        network.answer = lambda sent: (redirect(status, "https://b.test/c")
                                       if sent.conn.netloc == "a.test" else FakeResponse(body=b"c"))
        request = HttpRequest("GET", "https://a.test/", {"Accept": "application/x-bibtex"})
        assert LiveTransport().execute(request).body == b"c"
        assert [(s.conn.netloc, s.method, s.target, s.body, header(s, "Accept"))
                for s in network.sent] == [("a.test", "GET", "/", None, "application/x-bibtex"),
                                           ("b.test", "GET", "/c", None, "application/x-bibtex")]

    def test_ten_redirects_are_followed(self, network):
        network.answer = lambda sent: (redirect(302, f"/{int(sent.target[1:]) + 1}")
                                       if sent.target != "/10" else FakeResponse())
        assert LiveTransport().execute(HttpRequest("GET", "https://a.test/0")).status == 200
        assert len(network.sent) == 11

    def test_an_eleventh_redirect_is_an_upstream_error_and_not_retried(self, network):
        network.answer = lambda sent: redirect(302, f"/{int(sent.target[1:]) + 1}")
        upstream = Upstream(LiveTransport(), AdsConfig(backoff_base=0.0))
        with pytest.raises(UpstreamError, match=re.escape("https://a.test/0 redirected more than 10")):
            upstream.send(HttpRequest("GET", "https://a.test/0"), "A")
        assert len(network.sent) == 11

    def test_a_redirect_away_from_http_is_an_upstream_error(self, network):
        network.answer = lambda sent: redirect(302, "ftp://a.test/file")
        with pytest.raises(UpstreamError, match="not a valid http or https URL"):
            LiveTransport().execute(HttpRequest("GET", "https://a.test/"))


class TestLiveTransportFailures:
    @pytest.mark.parametrize("failure", [
        TimeoutError("timed out"),
        ConnectionRefusedError(111, "Connection refused"),
        http.client.BadStatusLine("HTTP/9"),
    ], ids=["timeout", "oserror", "httpexception"])
    def test_each_becomes_a_transport_timeout(self, network, failure):
        def answer(sent):
            raise failure

        network.answer = answer
        with pytest.raises(TransportTimeoutError, match="GET https://a.test/x"):
            LiveTransport().execute(HttpRequest("GET", "https://a.test/x"))
        assert network.connections[0].closed

    def test_a_body_that_does_not_decode_becomes_a_transport_timeout(self, network):
        network.answer = lambda sent: FakeResponse(headers=[("Content-Encoding", "gzip")],
                                                   body=b"not gzip")
        with pytest.raises(TransportTimeoutError):
            LiveTransport().execute(HttpRequest("GET", "https://a.test/"))

    def test_a_timeout_is_retried_by_upstream(self, network, monkeypatch):
        sleeps = []
        monkeypatch.setattr(refs.resolvers, "_sleep", sleeps.append)

        def answer(sent):
            if len(network.sent) < 3:
                raise TimeoutError("timed out")
            return FakeResponse(body=b"late")

        network.answer = answer
        upstream = Upstream(LiveTransport(), AdsConfig(backoff_base=1.0))
        assert upstream.send(HttpRequest("GET", "https://a.test/"), "A").body == b"late"
        assert sleeps == [1.0, 2.0]


class TestLiveTransportConnections:
    def test_requests_to_one_origin_share_one_connection(self, network):
        live = LiveTransport(timeout=7.0)
        for url in ("https://a.test/1", "https://a.test/2", "https://b.test/1",
                    "http://a.test/1"):
            live.execute(HttpRequest("GET", url))
        assert [(c.scheme, c.netloc, c.timeout, len(c.sent)) for c in network.connections] == [
            ("https", "a.test", 7.0, 2), ("https", "b.test", 7.0, 1), ("http", "a.test", 7.0, 1)]
        assert not any(c.closed for c in network.connections)

    def test_a_failed_connection_is_not_reused(self, network):
        def answer(sent):
            if len(network.sent) == 1:
                raise ConnectionResetError(104, "Connection reset by peer")
            return FakeResponse()

        network.answer = answer
        live = LiveTransport()
        with pytest.raises(TransportTimeoutError):
            live.execute(HttpRequest("GET", "https://a.test/1"))
        assert live.execute(HttpRequest("GET", "https://a.test/2")).status == 200
        first, second = network.connections
        assert first.closed and not second.closed
        assert [len(first.sent), len(second.sent)] == [1, 1]

    def test_a_connection_the_server_closes_is_not_reused(self, network):
        network.answer = lambda sent: FakeResponse(will_close=True)
        live = LiveTransport()
        live.execute(HttpRequest("GET", "https://a.test/1"))
        live.execute(HttpRequest("GET", "https://a.test/2"))
        assert [(c.closed, len(c.sent)) for c in network.connections] == [(True, 1), (True, 1)]

    def test_a_get_on_a_reset_idle_connection_is_sent_once_more(self, network):
        def answer(sent):
            if sent.conn is network.connections[0] and len(sent.conn.sent) == 2:
                raise http.client.RemoteDisconnected("Remote end closed connection")
            return FakeResponse(body=sent.target.encode())

        network.answer = answer
        live = LiveTransport()
        live.execute(HttpRequest("GET", "https://a.test/1"))
        assert live.execute(HttpRequest("GET", "https://a.test/2")).body == b"/2"
        first, second = network.connections
        assert first.closed and [s.target for s in second.sent] == ["/2"]

    def test_it_is_sent_once_more_only(self, network):
        def answer(sent):
            if len(network.sent) > 1:
                raise BrokenPipeError(32, "Broken pipe")
            return FakeResponse()

        network.answer = answer
        live = LiveTransport()
        live.execute(HttpRequest("GET", "https://a.test/1"))
        with pytest.raises(TransportTimeoutError):
            live.execute(HttpRequest("GET", "https://a.test/2"))
        assert len(network.connections) == 2 and len(network.sent) == 3

    def test_a_timeout_is_not_sent_once_more(self, network):
        def answer(sent):
            if len(network.sent) > 1:
                raise TimeoutError("timed out")
            return FakeResponse()

        network.answer = answer
        live = LiveTransport()
        live.execute(HttpRequest("GET", "https://a.test/1"))
        with pytest.raises(TransportTimeoutError):
            live.execute(HttpRequest("GET", "https://a.test/2"))
        assert len(network.connections) == 1 and len(network.sent) == 2


class TestLiveTransportMessages:
    def test_status_headers_and_body_pass_through(self, network):
        network.answer = lambda sent: FakeResponse(
            404, [("Content-Type", "text/plain"), ("Retry-After", "3")], b"missing")
        response = LiveTransport().execute(HttpRequest("GET", "https://a.test/x"))
        assert (response.status, response.headers, response.body) == (
            404, {"Content-Type": "text/plain", "Retry-After": "3"}, b"missing")

    def test_a_get_of_the_target_is_sent_without_a_body(self, network):
        LiveTransport().execute(HttpRequest("GET", "https://a.test/p/q?r=1&s=2"))
        assert [(s.method, s.target, s.body) for s in network.sent] == [
            ("GET", "/p/q?r=1&s=2", None)]

    def test_default_headers_and_the_requests_own(self, network):
        live = LiveTransport()
        live.execute(HttpRequest("GET", "https://a.test/"))
        live.execute(HttpRequest("GET", "https://a.test/", {"accept": "application/x-bibtex"}))
        bare, negotiated = network.sent
        assert bare.headers == {"user-agent": f"refs/{refs.__version__}",
                                "accept-encoding": "gzip, deflate", "accept": "*/*"}
        assert negotiated.headers == {**bare.headers, "accept": "application/x-bibtex"}

    @pytest.mark.parametrize("encoding, encode", [
        ("gzip", gzip.compress), ("deflate", zlib.compress), ("GZip", gzip.compress),
    ])
    def test_a_compressed_body_is_decoded(self, network, encoding, encode):
        text = "Jäger, A. and Øster, B."
        network.answer = lambda sent: FakeResponse(
            headers=[("Content-Encoding", encoding)], body=encode(text.encode()))
        assert LiveTransport().execute(HttpRequest("GET", "https://a.test/")).text() == text

    def test_recording_keeps_the_decoded_text(self, network, tmp_path):
        text = '{"title": "Spektren"}'
        network.answer = lambda sent: FakeResponse(
            headers=[("Content-Type", "application/json"), ("Content-Encoding", "gzip")],
            body=gzip.compress(text.encode()))
        archive = tmp_path / "recorded.json"
        request = HttpRequest("GET", "https://a.test/", {"Accept": "application/json"})
        upstream = Upstream(LiveTransport(), AdsConfig())
        upstream.send(request, "A")
        write_archive(archive, [], upstream.exchanges)
        recorded = json.loads(archive.read_text())["entries"][0]["response"]
        assert recorded == {"status": 200, "headers": {"Content-Type": "application/json"},
                            "body": text}
        assert FixtureTransport.from_dir(tmp_path).execute(request).text() == text

    def test_a_recorded_429_fails_at_once_on_replay_as_it_did_live(self, network, tmp_path,
                                                                     monkeypatch):
        sleeps = []
        monkeypatch.setattr(refs.resolvers, "_sleep", sleeps.append)
        network.answer = lambda sent: FakeResponse(
            429, [("Retry-After", "120"), ("Content-Type", "text/plain")], b"slow down")
        request = HttpRequest("GET", "https://a.test/")

        def fail(transport):
            upstream = Upstream(transport, AdsConfig(backoff_base=1.0))
            with pytest.raises(UpstreamUnavailableError, match="throttled for 120 s") as raised:
                upstream.send(request, "A")
            return raised.value.status, upstream.exchanges

        status, exchanges = fail(LiveTransport())
        write_archive(tmp_path / "recorded.json", [], exchanges)
        replayed_status, replayed = fail(FixtureTransport.from_dir(tmp_path))
        assert (status, len(exchanges)) == (replayed_status, len(replayed)) == (429, 1)
        assert replayed[0][1].headers == {"Retry-After": "120", "Content-Type": "text/plain"}
        assert sleeps == []
