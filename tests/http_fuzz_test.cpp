// Robustness sweeps over the HTTP layer: malformed, truncated and
// adversarial message bytes must never crash the parser, the session
// extractor or the redirect miner.
#include <gtest/gtest.h>

#include "http/parser.h"
#include "http/redirect_miner.h"
#include "http/session.h"
#include "util/rng.h"

namespace dm::http {
namespace {

dm::net::DirectionStream stream_of(std::string data) {
  dm::net::DirectionStream s;
  s.chunks.push_back({0, data.size(), 42});
  s.data = std::move(data);
  return s;
}

const std::string kValidExchange =
    "GET /index.html HTTP/1.1\r\nHost: example.com\r\n"
    "Cookie: PHPSESSID=abc\r\nReferer: http://a.example/\r\n\r\n"
    "POST /submit HTTP/1.1\r\nHost: example.com\r\nContent-Length: 9\r\n\r\n"
    "key=value";

class HttpMutationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HttpMutationTest, MutatedRequestsNeverCrash) {
  dm::util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = kValidExchange;
    for (int i = 0; i < 8; ++i) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      text[at] = static_cast<char>(rng.uniform_int(0, 255));
    }
    const auto requests = parse_requests_ex(stream_of(text)).requests;
    for (const auto& req : requests) {
      EXPECT_FALSE(req.method.empty());
      EXPECT_LE(req.body.size(), text.size());
    }
  }
}

TEST_P(HttpMutationTest, TruncatedRequestsNeverCrash) {
  dm::util::Rng rng(GetParam() ^ 5);
  for (int trial = 0; trial < 100; ++trial) {
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kValidExchange.size())));
    const auto requests =
        parse_requests_ex(stream_of(kValidExchange.substr(0, len))).requests;
    EXPECT_LE(requests.size(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpMutationTest, ::testing::Values(3, 14, 15, 92));

TEST(HttpGarbageTest, PureGarbageYieldsNothing) {
  dm::util::Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(static_cast<std::size_t>(rng.uniform_int(0, 300)), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.uniform_int(0, 255));
    // Must not throw; usually yields zero messages.
    const auto requests = parse_requests_ex(stream_of(garbage)).requests;
    const auto responses = parse_responses_ex(stream_of(garbage), true).responses;
    EXPECT_LE(requests.size() + responses.size(), 8u);
  }
}

TEST(HttpGarbageTest, HugeContentLengthDoesNotAllocate) {
  const auto responses = parse_responses_ex(
      stream_of("HTTP/1.1 200 OK\r\nContent-Length: 99999999999999\r\n\r\nx"),
      false).responses;
  EXPECT_TRUE(responses.empty());  // body incomplete -> dropped
}

TEST(HttpGarbageTest, NegativeContentLengthRejected) {
  const auto responses = parse_responses_ex(
      stream_of("HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\nhello"), false).responses;
  EXPECT_TRUE(responses.empty());
}

TEST(HttpGarbageTest, MalformedChunkSizesRejected) {
  const auto responses = parse_responses_ex(
      stream_of("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                "ZZZ\r\nnot-hex\r\n0\r\n\r\n"),
      false).responses;
  EXPECT_TRUE(responses.empty());
}

TEST(RedirectMinerFuzzTest, RandomBodiesNeverCrash) {
  dm::util::Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    HttpTransaction txn;
    txn.server_host = "fuzz.example";
    txn.request.method = "GET";
    txn.request.uri = "/";
    HttpResponse res;
    res.status_code = 200;
    res.headers.add("Content-Type", "text/html");
    std::string body(static_cast<std::size_t>(rng.uniform_int(0, 2000)), ' ');
    for (auto& c : body) c = static_cast<char>(rng.uniform_int(1, 255));
    res.body = std::move(body);
    txn.response = std::move(res);
    const auto evidence = mine_redirects(txn);
    for (const auto& e : evidence) {
      EXPECT_FALSE(e.target_host.empty());
    }
  }
}

TEST(RedirectMinerFuzzTest, TruncatedObfuscationLayersNeverCrash) {
  // Half-finished escape sequences, unterminated quotes, cut-off atob calls.
  const char* cases[] = {
      "\\x",        "\\x4",          "\\u00",
      "unescape(",  "unescape('%4",  "atob(",
      "atob('YWJj", "window.location=\"http://",
      "<iframe src=",
      "<meta http-equiv=\"refresh\" content=\"0;url=",
  };
  for (const char* text : cases) {
    HttpTransaction txn;
    txn.server_host = "x";
    txn.request.method = "GET";
    txn.request.uri = "/";
    HttpResponse res;
    res.status_code = 200;
    res.headers.add("Content-Type", "text/html");
    res.body = text;
    txn.response = std::move(res);
    EXPECT_NO_THROW({ const auto out = mine_redirects(txn); (void)out; }) << text;
    EXPECT_NO_THROW(decode_obfuscated_layers(text)) << text;
  }
}

TEST(SessionFuzzTest, HostileCookieStringsNeverCrash) {
  const char* cases[] = {
      ";;;;",        "= = = =",        "PHPSESSID",
      "PHPSESSID==", "=value",         "a=b; c",
      ";PHPSESSID=x;", "sid=\x01\x02\x03",
  };
  for (const char* cookie : cases) {
    EXPECT_NO_THROW({ const auto sid = session_id_from_cookie(cookie); (void)sid; })
        << cookie;
  }
}

// Crash-regression corpus: explicit nasty byte sequences, one per mutator
// class the fault harness exercises (tests/fault_inject.h), pinned here so
// a parser change that reintroduces a crash or an unaccounted quarantine
// fails loudly.  Every case must (a) not throw and (b) count each reported
// error exactly once in FaultStats.
TEST(HttpCrashCorpusTest, KnownNastyStreamsStayQuarantined) {
  const char* corpus[] = {
      // header garbage / bad request line
      "\x00\x01\x02\x03 GET nothing\r\n\r\n",
      "GET\r\n\r\n",
      "/ HTTP/1.1 GET\r\n\r\n",
      // bad status line
      "HTTP/1.1 9999 Nope\r\n\r\n",
      "HTTP/banana 200 OK\r\n\r\n",
      // bad content length
      "HTTP/1.1 200 OK\r\nContent-Length: 0x10\r\n\r\nbody",
      "GET / HTTP/1.1\r\nContent-Length: 184467440737095516199\r\n\r\n",
      // broken chunking
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "ffffffffffffffffffff\r\n",
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab",
      // mid-stream EOF
      "GET / HTTP/1.1\r\nHost: cut.exam",
      "HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\nshort",
      // resync bait: garbage then a valid message
      "\xff\xfe\xfd\r\nGET /ok HTTP/1.1\r\nHost: x\r\n\r\n",
  };
  for (const char* bytes : corpus) {
    dm::util::FaultStats faults;
    const auto req = parse_requests_ex(stream_of(bytes), &faults);
    const auto res = parse_responses_ex(stream_of(bytes), true, &faults);
    EXPECT_EQ(faults.total(), req.errors.size() + res.errors.size()) << bytes;
  }
}

TEST(HttpCrashCorpusTest, SeededMutationSweepAccountsEveryError) {
  // Fixed seeds, byte corruption over a valid exchange: whatever the parser
  // salvages, the quarantine ledger must balance.
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    dm::util::Rng rng(seed);
    for (int trial = 0; trial < 100; ++trial) {
      std::string text = kValidExchange;
      for (int i = 0; i < 12; ++i) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
        text[at] = static_cast<char>(rng.uniform_int(0, 255));
      }
      dm::util::FaultStats faults;
      const auto result = parse_requests_ex(stream_of(text), &faults);
      EXPECT_EQ(faults.total(), result.errors.size());
      EXPECT_LE(result.requests.size(), 4u);
    }
  }
}

TEST(SessionFuzzTest, HostileUrisNeverCrash) {
  const char* cases[] = {
      "?", "??", "/a?#", "/a?sid", "/a?sid=#", "/a?&&&&", "/a?=x&=y",
  };
  for (const char* uri : cases) {
    EXPECT_NO_THROW({ const auto sid = session_id_from_uri(uri); (void)sid; }) << uri;
  }
}

}  // namespace
}  // namespace dm::http
