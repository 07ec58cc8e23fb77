#include "http/parser.h"

#include <gtest/gtest.h>

#include <chrono>

namespace dm::http {
namespace {

dm::net::DirectionStream stream_of(std::string data, std::uint64_t ts = 100) {
  dm::net::DirectionStream s;
  s.chunks.push_back({0, data.size(), ts});
  s.data = std::move(data);
  return s;
}

TEST(HttpParserTest, SimpleGetRequest) {
  const auto reqs =
      parse_requests_ex(stream_of("GET /index.html HTTP/1.1\r\nHost: example.com\r\n"
                                  "Referer: http://a.b/\r\n\r\n"))
          .requests;
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].method, "GET");
  EXPECT_EQ(reqs[0].uri, "/index.html");
  EXPECT_EQ(reqs[0].version, "HTTP/1.1");
  EXPECT_EQ(reqs[0].host(), "example.com");
  EXPECT_EQ(reqs[0].referrer().value(), "http://a.b/");
  EXPECT_EQ(reqs[0].ts_micros, 100u);
}

TEST(HttpParserTest, PostWithBody) {
  const auto reqs = parse_requests_ex(stream_of("POST /gate.php HTTP/1.1\r\nHost: c2\r\n"
                                                "Content-Length: 7\r\n\r\nid=1234"))
                        .requests;
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].method, "POST");
  EXPECT_EQ(reqs[0].body, "id=1234");
}

TEST(HttpParserTest, PipelinedRequests) {
  const auto reqs = parse_requests_ex(stream_of(
      "GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n")).requests;
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].uri, "/a");
  EXPECT_EQ(reqs[1].uri, "/b");
}

TEST(HttpParserTest, StopsAtMalformedRequestLine) {
  const auto reqs = parse_requests_ex(stream_of(
      "GET /ok HTTP/1.1\r\nHost: x\r\n\r\nNOT-A-METHOD gibberish\r\n\r\n")).requests;
  EXPECT_EQ(reqs.size(), 1u);
}

TEST(HttpParserTest, IncompleteBodyDropped) {
  const auto reqs = parse_requests_ex(stream_of(
      "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nshort")).requests;
  EXPECT_TRUE(reqs.empty());
}

TEST(HttpParserTest, ChunkedBodyIsExactlySized) {
  // 65 chunks of 1,000 bytes.  Appended chunk by chunk, a body's capacity
  // doubles past its size (to 128,000 bytes), and the body lives as long as
  // its transaction.
  std::string wire = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
  std::string want;
  for (int i = 0; i < 65; ++i) {
    const std::string chunk(1000, static_cast<char>('a' + i % 26));
    wire += "3e8\r\n" + chunk + "\r\n";
    want += chunk;
  }
  wire += "0\r\n\r\n";
  const auto resps = parse_responses_ex(stream_of(wire), false).responses;
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0].body, want);
  EXPECT_LE(resps[0].body.capacity(),
            resps[0].body.size() + std::string().capacity());
}

TEST(HttpParserTest, SimpleResponseWithContentLength) {
  const auto resps = parse_responses_ex(
      stream_of("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                "Content-Length: 5\r\n\r\nhello"),
      false).responses;
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0].status_code, 200);
  EXPECT_EQ(resps[0].reason, "OK");
  EXPECT_EQ(resps[0].body, "hello");
  EXPECT_EQ(resps[0].content_type().value(), "text/html");
}

TEST(HttpParserTest, RedirectResponse) {
  const auto resps = parse_responses_ex(
      stream_of("HTTP/1.1 302 Found\r\nLocation: http://next.example/\r\n"
                "Content-Length: 0\r\n\r\n"),
      false).responses;
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_TRUE(resps[0].is_redirect());
  EXPECT_EQ(resps[0].location().value(), "http://next.example/");
}

TEST(HttpParserTest, ChunkedResponseBody) {
  const auto resps = parse_responses_ex(
      stream_of("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"),
      false).responses;
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0].body, "hello world");
}

TEST(HttpParserTest, ChunkedWithExtensionsAndTrailers) {
  const auto resps = parse_responses_ex(
      stream_of("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                "3;ext=1\r\nabc\r\n0\r\nX-Trailer: v\r\n\r\n"),
      false).responses;
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0].body, "abc");
}

TEST(HttpParserTest, CloseDelimitedBodyRequiresClosedFlag) {
  const std::string wire = "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\nbody to end";
  EXPECT_TRUE(parse_responses_ex(stream_of(wire), false).responses.empty());
  const auto resps = parse_responses_ex(stream_of(wire), true).responses;
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0].body, "body to end");
}

TEST(HttpParserTest, BodylessStatusCodes) {
  const auto resps = parse_responses_ex(
      stream_of("HTTP/1.1 304 Not Modified\r\nETag: x\r\n\r\n"
                "HTTP/1.1 204 No Content\r\n\r\n"),
      false).responses;
  ASSERT_EQ(resps.size(), 2u);
  EXPECT_EQ(resps[0].status_code, 304);
  EXPECT_EQ(resps[1].status_code, 204);
}

TEST(HttpParserTest, MultiSpaceReasonPhrase) {
  const auto resps = parse_responses_ex(
      stream_of("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"), false).responses;
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0].reason, "Not Found");
}

TEST(HttpParserTest, StatusLineInsideAGarbageLineIsKept) {
  // The stream opens inside a body with no CRLF at its end: the body's tail
  // and the next status line share one line.
  const auto parsed = parse_responses_ex(
      stream_of("tail of an earlier bodyHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"),
      false);
  ASSERT_EQ(parsed.responses.size(), 1u);
  EXPECT_EQ(parsed.responses[0].status_code, 200);
  EXPECT_EQ(parsed.responses[0].body, "hi");
  ASSERT_EQ(parsed.errors.size(), 1u);
  EXPECT_EQ(parsed.errors[0].code, dm::util::DecodeErrorCode::kHttpBadStatusLine);
}

TEST(HttpParserTest, StatusLineInsideASkippedLineIsKept) {
  const auto parsed = parse_responses_ex(
      stream_of("garbage\r\nmore HTTP/1.x talk\r\nxxHTTP/1.0 404 Not Found\r\n"
                "Content-Length: 0\r\n\r\n"),
      false);
  ASSERT_EQ(parsed.responses.size(), 1u);
  EXPECT_EQ(parsed.responses[0].status_code, 404);
  EXPECT_EQ(parsed.errors.size(), 1u);
}

TEST(HttpParserTest, RequestLineInsideAGarbageLineNeedsItsVersion) {
  const auto kept = parse_requests_ex(
      stream_of("id=1234GET /b HTTP/1.1\r\nHost: x\r\n\r\n"));
  ASSERT_EQ(kept.requests.size(), 1u);
  EXPECT_EQ(kept.requests[0].uri, "/b");
  ASSERT_EQ(kept.errors.size(), 1u);
  EXPECT_EQ(kept.errors[0].code, dm::util::DecodeErrorCode::kHttpBadRequestLine);
  // A method name in prose is no anchor without the version at the end.
  const auto skipped = parse_requests_ex(
      stream_of("please GET /b now\r\nHost: x\r\n\r\n"));
  EXPECT_TRUE(skipped.requests.empty());
  EXPECT_EQ(skipped.errors.size(), 1u);
}

std::string repeated(std::string_view piece, std::size_t bytes) {
  std::string out = "x";
  while (out.size() < bytes) out += piece;
  return out;
}

TEST(HttpParserTest, LineOfRepeatedAnchorsIsSearchedInOnePass) {
  // The watched hosts write these bytes: a 2 MB line of message-start
  // anchors must cost one pass over it, not one pass per anchor (about
  // 10^11 byte steps here).
  constexpr std::size_t kLine = 2 << 20;
  const auto begin = std::chrono::steady_clock::now();
  for (const std::string_view anchor : {"HTTP/1.", "HTTP/1.1 "}) {
    const auto parsed = parse_responses_ex(
        stream_of(repeated(anchor, kLine) + "\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"),
        false);
    ASSERT_EQ(parsed.responses.size(), 1u) << anchor;
    EXPECT_EQ(parsed.responses[0].status_code, 200);
    EXPECT_EQ(parsed.errors.size(), 1u);
  }
  const auto requests = parse_requests_ex(stream_of(
      repeated("GET", kLine) + " HTTP/1.1\r\nGET /ok HTTP/1.1\r\nHost: x\r\n\r\n"));
  ASSERT_EQ(requests.requests.size(), 1u);
  EXPECT_EQ(requests.requests[0].uri, "/ok");
  EXPECT_EQ(requests.errors.size(), 1u);
  // Linear work takes milliseconds, sanitized too; a pass per anchor would
  // take minutes.
  EXPECT_LT(std::chrono::steady_clock::now() - begin, std::chrono::seconds(5));
}

TEST(HttpParserTest, HeaderLookupCaseInsensitive) {
  const auto reqs = parse_requests_ex(stream_of(
      "GET / HTTP/1.1\r\nHOST: UPPER.example\r\nuser-agent: UA\r\n\r\n")).requests;
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].host(), "upper.example");
  EXPECT_EQ(reqs[0].user_agent().value(), "UA");
}

TEST(HttpParserTest, HostHeaderPortStripped) {
  const auto reqs = parse_requests_ex(
      stream_of("GET / HTTP/1.1\r\nHost: example.com:8080\r\n\r\n")).requests;
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].host(), "example.com");
}

TEST(TransactionsFromFlowTest, PairsInOrderAndFillsEndpoints) {
  dm::net::TcpFlow flow;
  flow.client_ip = dm::net::Ipv4Address::from_octets(10, 0, 0, 2);
  flow.server_ip = dm::net::Ipv4Address::from_octets(1, 2, 3, 4);
  flow.server_port = 80;
  flow.client_to_server = stream_of(
      "GET /a HTTP/1.1\r\nHost: site.example\r\n\r\n"
      "GET /b HTTP/1.1\r\nHost: site.example\r\n\r\n");
  flow.server_to_client = stream_of(
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\naa"
      "HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nbb");
  const auto txns = transactions_from_flow(flow);
  ASSERT_EQ(txns.size(), 2u);
  EXPECT_EQ(txns[0].server_host, "site.example");
  EXPECT_EQ(txns[0].server_ip, "1.2.3.4");
  EXPECT_EQ(txns[0].client_host, "10.0.0.2");
  ASSERT_TRUE(txns[0].response.has_value());
  EXPECT_EQ(txns[0].response->status_code, 200);
  EXPECT_EQ(txns[1].response->status_code, 404);
}

TEST(TransactionsFromFlowTest, UnansweredRequestHasNoResponse) {
  dm::net::TcpFlow flow;
  flow.client_ip = dm::net::Ipv4Address::from_octets(10, 0, 0, 2);
  flow.server_ip = dm::net::Ipv4Address::from_octets(1, 2, 3, 4);
  flow.client_to_server =
      stream_of("GET /a HTTP/1.1\r\nHost: site.example\r\n\r\n");
  const auto txns = transactions_from_flow(flow);
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_FALSE(txns[0].response.has_value());
}

TEST(TransactionsFromFlowTest, FallsBackToIpWhenNoHostHeader) {
  dm::net::TcpFlow flow;
  flow.client_ip = dm::net::Ipv4Address::from_octets(10, 0, 0, 2);
  flow.server_ip = dm::net::Ipv4Address::from_octets(5, 6, 7, 8);
  flow.client_to_server = stream_of("GET / HTTP/1.1\r\n\r\n");
  const auto txns = transactions_from_flow(flow);
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_EQ(txns[0].server_host, "5.6.7.8");
}

}  // namespace
}  // namespace dm::http
