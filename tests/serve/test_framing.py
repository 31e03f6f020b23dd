"""Request framing of ``slif serve``: its header reader and body limits.

Each test drives a real :class:`~repro.serve.app.SlifServer` over raw
sockets, since the point is what reaches the server byte for byte.
Every test's server must then answer a new connection and drain
cleanly: a request the server refused must not hold a request slot.
"""

import json
import socket
import threading

import pytest

from repro import api
from repro.api.types import canonical_json
from repro.serve.app import ServerConfig, SlifServer

ESTIMATE = b'{"spec": "fuzzy"}'


@pytest.fixture()
def server():
    srv = SlifServer(ServerConfig(port=0, cache_size=4))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    # the daemon still answers a new connection, then drains cleanly
    status, _, body = parse(exchange(
        srv, b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
    ))
    assert status == 200 and json.loads(body)["status"] == "ok"
    srv.initiate_drain()
    assert srv.wait_drained(2.0)
    assert srv.stats()["inflight"] == 0
    thread.join(timeout=10)
    srv.close()


def connect(server):
    return socket.create_connection((server.host, server.port), timeout=5)


def read_all(sock):
    """Everything the server sends until it closes the connection."""
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def exchange(server, raw):
    """Send ``raw`` on a new connection; return all the server sent."""
    with connect(server) as sock:
        sock.sendall(raw)
        return read_all(sock)


def responses(raw):
    """Every response in a raw byte stream, as ``(status, headers, body)``.

    Header names are lower-cased; each body is read by its length.
    """
    out = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        lines = head.decode("iso-8859-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers.setdefault(name.lower(), value.strip())
        length = int(headers.get("content-length", 0))
        out.append((int(lines[0].split()[1]), headers, raw[:length]))
        raw = raw[length:]
    return out


def parse(raw):
    """The only response in a raw byte stream."""
    [response] = responses(raw)
    return response


def post(headers, body=ESTIMATE):
    """A raw ``POST /v1/estimate`` with exactly these header lines."""
    return (
        b"POST /v1/estimate HTTP/1.1\r\n"
        + b"".join(h + b"\r\n" for h in headers)
        + b"\r\n"
        + body
    )


def direct_fuzzy():
    return canonical_json(api.estimate("fuzzy").to_dict()).encode("utf-8")


def statuses(raw):
    """The status code of every response in a raw byte stream."""
    return [status for status, _, _ in responses(raw)]


class TestHeaderReader:
    @pytest.mark.parametrize(
        "line",
        [
            b"X-No-Colon",
            b"Content-Length : 17",
            b"X-Slif-Tenant: a",
        ],
        ids=["no-colon", "space-before-colon", "obs-fold"],
    )
    def test_lines_rfc_9112_rejects_get_400(self, server, line):
        headers = [b"Content-Length: 17", line]
        if line.startswith(b"X-Slif-Tenant"):
            headers.append(b"\tcontinued")  # an obs-fold continuation
        [(status, got, _)] = responses(exchange(server, post(headers)))
        assert status == 400 and got["connection"] == "close"

    def test_whitespace_before_the_colon_is_not_a_header(self, server):
        # "X-Slif-Trace-Id :" must not be read as the trace id header
        response = exchange(server, post([
            b"Content-Length: 17", b"X-Slif-Trace-Id\t: spoofed",
        ]))
        assert statuses(response) == [400]
        assert b"spoofed" not in response

    def test_header_line_over_64k_gets_431(self, server):
        name = b"X-Big: "
        line = name + b"a" * (65537 - len(name) - 2)
        assert len(line + b"\r\n") == 65537
        # no blank line after it: the server stops reading at the line
        raw = b"GET /v1/healthz HTTP/1.1\r\n" + line + b"\r\n"
        assert statuses(exchange(server, raw)) == [431]

    def test_header_line_of_exactly_64k_is_read(self, server):
        name = b"X-Big: "
        line = name + b"a" * (65536 - len(name) - 2)
        raw = (
            b"GET /v1/healthz HTTP/1.1\r\n" + line
            + b"\r\nConnection: close\r\n\r\n"
        )
        assert statuses(exchange(server, raw)) == [200]

    def test_101_headers_get_431_and_100_are_read(self, server):
        def request(count):
            lines = [b"X-H%d: v" % i for i in range(count - 1)]
            return (
                b"GET /v1/healthz HTTP/1.1\r\n"
                + b"".join(line + b"\r\n" for line in lines)
                + b"Connection: close\r\n\r\n"
            )

        assert statuses(exchange(server, request(101))) == [431]
        assert statuses(exchange(server, request(100))) == [200]

    def test_duplicate_trace_id_echoes_the_first(self, server):
        response = exchange(server, post([
            b"Content-Length: 17",
            b"x-slif-trace-id: first",
            b"X-SLIF-TRACE-ID: second",
            b"Connection: close",
        ]))
        status, headers, body = parse(response)
        assert status == 200
        assert headers["x-slif-trace-id"] == "first"
        assert body == direct_fuzzy()

    def test_names_are_case_insensitive_and_values_trimmed(self, server):
        response = exchange(server, post([
            b"content-LENGTH:17",
            b"x-Slif-Trace-Id: \t padded \t",
            b"connection: CLOSE",
        ]))
        status, headers, body = parse(response)
        assert status == 200 and body == direct_fuzzy()
        assert headers["x-slif-trace-id"] == "padded"

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        with connect(server) as sock:
            sock.sendall(post(
                [b"Content-Length: 17", b"Expect: 100-continue",
                 b"Connection: close"],
                body=b"",
            ))
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                data = sock.recv(1)
                assert data, "closed before 100 Continue"
                interim += data
            assert interim.startswith(b"HTTP/1.1 100 Continue\r\n")
            sock.sendall(ESTIMATE)
            status, _, body = parse(read_all(sock))
        assert status == 200 and body == direct_fuzzy()

    def test_connection_close_closes(self, server):
        with connect(server) as sock:
            sock.sendall(
                b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
                b"GET /v1/healthz HTTP/1.1\r\n\r\n"
            )
            # read_all returns only once the server closes, after one
            # answer: the second request is never read
            assert statuses(read_all(sock)) == [200]

    def test_keep_alive_reads_each_body_by_its_length(self, server):
        body = b'{"spec": "ether"}'
        with connect(server) as sock:
            sock.sendall(
                post([b"Content-Length: 17"])
                + post([b"Content-Length: 17", b"Connection: close"], body)
            )
            response = read_all(sock)
        assert statuses(response) == [200, 200]
        expected = canonical_json(api.estimate("ether").to_dict())
        first, second = responses(response)
        assert first[2] == direct_fuzzy()
        assert second[2] == expected.encode("utf-8")


class TestBodyFraming:
    """Bodies the server cannot delimit are refused, never read."""

    @pytest.mark.parametrize(
        "lengths",
        [[b"-1"], [b"abc"], [b"+17"], [b"17, 17"], [b""], [b"\xb917"],
         [b"17", b"18"]],
        ids=["negative", "not-a-number", "signed", "list", "empty",
             "non-ascii-digit", "conflicting"],
    )
    def test_bad_content_length_gets_400_and_closes(self, server, lengths):
        headers = [b"Content-Length: " + value for value in lengths]
        # the body and a valid second request follow on the same
        # connection; neither may be read
        raw = post(headers) + post([b"Content-Length: 17"])
        response = exchange(server, raw)
        [(status, headers, _)] = responses(response)
        assert status == 400 and headers["connection"] == "close"
        assert server.stats()["requests"] == 0

    def test_repeated_equal_content_length_is_one(self, server):
        response = exchange(server, post([
            b"Content-Length: 17", b"Content-Length: 17",
            b"Connection: close",
        ]))
        status, _, body = parse(response)
        assert status == 200 and body == direct_fuzzy()

    @pytest.mark.parametrize("with_length", [False, True])
    def test_transfer_encoding_gets_501_and_closes(self, server, with_length):
        chunked = b"11\r\n" + ESTIMATE + b"\r\n0\r\n\r\n"
        headers = [b"Transfer-Encoding: chunked"]
        if with_length:
            headers.append(b"Content-Length: 17")
        # the chunk bytes and a valid request after them must not be
        # parsed as further requests (the shape of request smuggling)
        raw = post(headers, chunked) + post([b"Content-Length: 17"])
        response = exchange(server, raw)
        [(status, headers, _)] = responses(response)
        assert status == 501 and headers["connection"] == "close"
        assert server.stats()["requests"] == 0

    def test_negative_length_does_not_hold_a_request_slot(self, server):
        with connect(server) as sock:
            sock.sendall(post([b"Content-Length: -1"], body=b""))
            # answered at once, with the client still connected
            assert statuses(read_all(sock)) == [400]
            assert server.wait_drained(2.0)
