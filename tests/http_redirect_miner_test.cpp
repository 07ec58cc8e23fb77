#include "http/redirect_miner.h"

#include <gtest/gtest.h>

#include "synth/content.h"
#include "util/rng.h"

namespace dm::http {
namespace {

HttpTransaction txn_with_response(int status, std::string content_type,
                                  std::string body,
                                  std::string location = {}) {
  HttpTransaction txn;
  txn.server_host = "source.example";
  txn.request.method = "GET";
  txn.request.uri = "/";
  HttpResponse res;
  res.status_code = status;
  if (!content_type.empty()) res.headers.add("Content-Type", content_type);
  if (!location.empty()) res.headers.add("Location", location);
  res.body = std::move(body);
  txn.response = std::move(res);
  return txn;
}

TEST(HostOfUrlTest, Extraction) {
  EXPECT_EQ(host_of_url("http://EvIl.Example/path?q"), "evil.example");
  EXPECT_EQ(host_of_url("https://a.b:8080/x"), "a.b");
  EXPECT_EQ(host_of_url("ftp://nope/"), "");
  EXPECT_EQ(host_of_url("/relative/only"), "");
  EXPECT_EQ(host_of_url("http://"), "");
}

TEST(RedirectMinerTest, LocationHeader) {
  const auto txn = txn_with_response(302, "text/html", "moved",
                                     "http://next.example/landing");
  const auto evidence = mine_redirects(txn);
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].kind, RedirectKind::kLocationHeader);
  EXPECT_EQ(evidence[0].target_host, "next.example");
}

TEST(RedirectMinerTest, MetaRefresh) {
  const auto txn = txn_with_response(
      200, "text/html",
      "<html><head><meta http-equiv=\"refresh\" "
      "content=\"0;url=http://hop.example/x\"></head></html>");
  const auto evidence = mine_redirects(txn);
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].kind, RedirectKind::kMetaRefresh);
  EXPECT_EQ(evidence[0].target_host, "hop.example");
}

TEST(RedirectMinerTest, HiddenIframe) {
  const auto txn = txn_with_response(
      200, "text/html",
      "<body><iframe src=\"http://ek-landing.top/gate\" width=1></iframe></body>");
  const auto evidence = mine_redirects(txn);
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].kind, RedirectKind::kIframe);
  EXPECT_EQ(evidence[0].target_host, "ek-landing.top");
}

TEST(RedirectMinerTest, PlainJavaScriptLocation) {
  const auto txn = txn_with_response(
      200, "application/javascript",
      "var a=1; window.location=\"http://js-target.biz/p\";");
  const auto evidence = mine_redirects(txn);
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].kind, RedirectKind::kJavaScript);
  EXPECT_EQ(evidence[0].target_host, "js-target.biz");
}

TEST(RedirectMinerTest, HexEscapedJavaScript) {
  dm::util::Rng rng(1);
  const std::string body = dm::synth::redirect_body(
      dm::synth::RedirectTechnique::kHexEscapedJs, "http://hidden.pw/land", rng);
  const auto txn = txn_with_response(200, "application/javascript", body);
  const auto evidence = mine_redirects(txn);
  ASSERT_FALSE(evidence.empty());
  EXPECT_EQ(evidence[0].kind, RedirectKind::kObfuscatedJavaScript);
  EXPECT_EQ(evidence[0].target_host, "hidden.pw");
}

TEST(RedirectMinerTest, UnescapePercentEncoding) {
  dm::util::Rng rng(2);
  const std::string body = dm::synth::redirect_body(
      dm::synth::RedirectTechnique::kUnescapeJs, "http://pct.club/x", rng);
  const auto txn = txn_with_response(200, "application/javascript", body);
  const auto evidence = mine_redirects(txn);
  ASSERT_FALSE(evidence.empty());
  EXPECT_EQ(evidence[0].target_host, "pct.club");
}

TEST(RedirectMinerTest, Base64Atob) {
  dm::util::Rng rng(3);
  const std::string body = dm::synth::redirect_body(
      dm::synth::RedirectTechnique::kBase64Js, "http://b64.info/y", rng);
  const auto txn = txn_with_response(200, "application/javascript", body);
  const auto evidence = mine_redirects(txn);
  ASSERT_FALSE(evidence.empty());
  EXPECT_EQ(evidence[0].target_host, "b64.info");
}

TEST(RedirectMinerTest, DeobfuscationCanBeDisabled) {
  dm::util::Rng rng(4);
  const std::string body = dm::synth::redirect_body(
      dm::synth::RedirectTechnique::kHexEscapedJs, "http://hidden.pw/land", rng);
  const auto txn = txn_with_response(200, "application/javascript", body);
  RedirectMinerOptions options;
  options.deobfuscate = false;
  EXPECT_TRUE(mine_redirects(txn, options).empty());
}

TEST(RedirectMinerTest, NoFalsePositivesOnPlainPage) {
  const auto txn = txn_with_response(
      200, "text/html",
      "<html><body><a href=\"http://linked.example/a\">link</a>"
      "<img src=\"/local.png\"></body></html>");
  EXPECT_TRUE(mine_redirects(txn).empty());
}

TEST(RedirectMinerTest, BinaryBodiesSkipped) {
  const auto txn =
      txn_with_response(200, "application/octet-stream",
                        "MZ<iframe src=\"http://x.y/\"></iframe>");
  EXPECT_TRUE(mine_redirects(txn).empty());
}

TEST(RedirectMinerTest, NoResponseNoEvidence) {
  HttpTransaction txn;
  txn.request.method = "GET";
  EXPECT_TRUE(mine_redirects(txn).empty());
}

TEST(RedirectMinerTest, DuplicateEvidenceCollapsed) {
  const auto txn = txn_with_response(
      200, "text/html",
      "<iframe src=\"http://dup.example/a\"></iframe>"
      "<iframe src=\"http://dup.example/a\"></iframe>");
  EXPECT_EQ(mine_redirects(txn).size(), 1u);
}

TEST(DecodeObfuscatedTest, MultipleLayersConcatenated) {
  const std::string text =
      "var a=\"\\x68\\x69\"; document.write(unescape('%20%77')); eval(atob('eHl6'));";
  const std::string decoded = decode_obfuscated_layers(text);
  EXPECT_NE(decoded.find("hi"), std::string::npos);
  EXPECT_NE(decoded.find(" w"), std::string::npos);
  EXPECT_NE(decoded.find("xyz"), std::string::npos);
}

TEST(DecodeObfuscatedTest, UnicodeEscapes) {
  const std::string decoded = decode_obfuscated_layers("\"\\u0068\\u0074\\u0074\\u0070\"");
  EXPECT_NE(decoded.find("http"), std::string::npos);
}

TEST(DecodeObfuscatedTest, CleanTextYieldsEmpty) {
  EXPECT_TRUE(decode_obfuscated_layers("plain body, no obfuscation").empty());
}

TEST(DecodeObfuscatedTest, EscapesAtTheEdges) {
  EXPECT_EQ(decode_obfuscated_layers("\\x41rest"), "Arest");  // at the start
  EXPECT_EQ(decode_obfuscated_layers("lead\\x41"), "leadA");  // at the end
  EXPECT_EQ(decode_obfuscated_layers("lead\\u0041"), "leadA");
  // Truncated at the end: not an escape, so layer 1 yields nothing.
  EXPECT_TRUE(decode_obfuscated_layers("lead\\x4").empty());
  EXPECT_TRUE(decode_obfuscated_layers("lead\\u004").empty());
  EXPECT_TRUE(decode_obfuscated_layers("lead\\").empty());
  // A backslash that starts no escape is kept verbatim beside one that does.
  EXPECT_EQ(decode_obfuscated_layers("\\\\x41"), "\\A");
  // A unit >= 128 is consumed but emits nothing.
  EXPECT_EQ(decode_obfuscated_layers("\\u00e9x\\x41"), "xA");
  // No backslash: layer 1 is skipped, the later layers still decode.
  EXPECT_EQ(decode_obfuscated_layers("unescape('%41') atob('QQ==')"), "AA");
}

class AllTechniquesTest
    : public ::testing::TestWithParam<dm::synth::RedirectTechnique> {};

TEST_P(AllTechniquesTest, MinerRecoversEveryGeneratorTechnique) {
  dm::util::Rng rng(42);
  const std::string target = "http://target-host.top/gate.php";
  const auto technique = GetParam();
  HttpTransaction txn;
  txn.server_host = "src.example";
  txn.request.method = "GET";
  txn.request.uri = "/";
  HttpResponse res;
  if (technique == dm::synth::RedirectTechnique::kLocationHeader) {
    res.status_code = 302;
    res.headers.add("Location", target);
  } else {
    res.status_code = 200;
    res.headers.add("Content-Type", dm::synth::redirect_content_type(technique));
  }
  res.body = dm::synth::redirect_body(technique, target, rng);
  txn.response = std::move(res);

  const auto evidence = mine_redirects(txn);
  ASSERT_FALSE(evidence.empty());
  bool found = false;
  for (const auto& e : evidence) found |= e.target_host == "target-host.top";
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(
    Techniques, AllTechniquesTest,
    ::testing::Values(dm::synth::RedirectTechnique::kLocationHeader,
                      dm::synth::RedirectTechnique::kMetaRefresh,
                      dm::synth::RedirectTechnique::kIframe,
                      dm::synth::RedirectTechnique::kPlainJavaScript,
                      dm::synth::RedirectTechnique::kHexEscapedJs,
                      dm::synth::RedirectTechnique::kUnescapeJs,
                      dm::synth::RedirectTechnique::kBase64Js));

}  // namespace
}  // namespace dm::http
