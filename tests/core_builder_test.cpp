#include "core/wcg_builder.h"

#include <gtest/gtest.h>

namespace dm::core {
namespace {

using dm::http::HttpTransaction;

/// Test transaction factory with sane defaults.
struct Txn {
  std::string host = "site.example";
  std::string uri = "/";
  std::string method = "GET";
  std::string referrer = {};
  int status = 200;
  std::string content_type = "text/html";
  std::string body = "<html></html>";
  std::string location = {};
  std::uint64_t ts = 0;  // seconds offset, converted to micros

  HttpTransaction build() const {
    HttpTransaction txn;
    txn.client_host = "10.0.0.2";
    txn.server_host = host;
    txn.server_ip = "1.2.3.4";
    txn.server_port = 80;
    txn.request.method = method;
    txn.request.uri = uri;
    txn.request.version = "HTTP/1.1";
    txn.request.ts_micros = ts * 1000000;
    txn.request.headers.add("Host", host);
    if (!referrer.empty()) txn.request.headers.add("Referer", referrer);
    dm::http::HttpResponse res;
    res.status_code = status;
    res.ts_micros = ts * 1000000 + 100000;  // +100ms
    if (!content_type.empty()) res.headers.add("Content-Type", content_type);
    if (!location.empty()) res.headers.add("Location", location);
    res.body = body;
    txn.response = std::move(res);
    return txn;
  }
};

BuilderOptions no_weed_out() {
  BuilderOptions options;
  options.trusted = TrustedVendors::none();
  return options;
}

TEST(WcgBuilderTest, EmptyBuilderYieldsEmptyWcg) {
  WcgBuilder builder;
  const auto wcg = builder.build();
  EXPECT_EQ(wcg.node_count(), 0u);
}

TEST(WcgBuilderTest, BasicNodesAndEdges) {
  WcgBuilder builder(no_weed_out());
  builder.add(Txn{.host = "a.example", .ts = 1}.build());
  builder.add(Txn{.host = "b.example", .ts = 2}.build());
  const auto wcg = builder.build();
  // Nodes: origin(empty) + victim + 2 servers.
  EXPECT_EQ(wcg.node_count(), 4u);
  // Edges: 2 requests + 2 responses (no redirects, origin unknown).
  EXPECT_EQ(wcg.edge_count(), 4u);
  EXPECT_FALSE(wcg.annotations().origin_known);
  EXPECT_NE(wcg.victim(), dm::graph::kInvalidNode);
  EXPECT_EQ(wcg.node(wcg.victim()).type, NodeType::kVictim);
}

TEST(WcgBuilderTest, OriginFromExternalReferrer) {
  WcgBuilder builder(no_weed_out());
  builder.add(Txn{.host = "landing.example",
                  .referrer = "http://www.google.com/search?q=x",
                  .ts = 1}
                  .build());
  const auto wcg = builder.build();
  EXPECT_TRUE(wcg.annotations().origin_known);
  const auto origin = wcg.origin();
  ASSERT_NE(origin, dm::graph::kInvalidNode);
  EXPECT_EQ(wcg.node(origin).host, "www.google.com");
  EXPECT_EQ(wcg.node(origin).type, NodeType::kOrigin);
}

TEST(WcgBuilderTest, InternalReferrerIsNotOrigin) {
  WcgBuilder builder(no_weed_out());
  builder.add(Txn{.host = "a.example", .ts = 1}.build());
  builder.add(Txn{.host = "b.example", .referrer = "http://a.example/", .ts = 5}
                  .build());
  const auto wcg = builder.build();
  EXPECT_FALSE(wcg.annotations().origin_known);
}

TEST(WcgBuilderTest, TrustedVendorWeededOut) {
  BuilderOptions options;  // default trusted list
  WcgBuilder builder(options);
  EXPECT_FALSE(builder.add(Txn{.host = "update.microsoft.com"}.build()));
  EXPECT_FALSE(builder.add(Txn{.host = "dl.pypi.org"}.build()));
  EXPECT_TRUE(builder.add(Txn{.host = "random-site.example"}.build()));
  EXPECT_EQ(builder.transaction_count(), 1u);
}

TEST(WcgBuilderTest, LocationRedirectCreatesRedirectEdge) {
  WcgBuilder builder(no_weed_out());
  builder.add(Txn{.host = "hop1.example",
                  .status = 302,
                  .location = "http://hop2.example/next",
                  .ts = 1}
                  .build());
  builder.add(Txn{.host = "hop2.example",
                  .uri = "/next",
                  .referrer = "http://hop1.example/",
                  .ts = 1}
                  .build());
  const auto wcg = builder.build();
  EXPECT_EQ(wcg.annotations().total_redirects, 1u);
  EXPECT_EQ(wcg.annotations().longest_redirect_chain, 1u);
  const auto h1 = wcg.find_host("hop1.example");
  const auto h2 = wcg.find_host("hop2.example");
  EXPECT_TRUE(wcg.graph().has_edge(h1, h2));
}

TEST(WcgBuilderTest, RedirectChainLengthCounted) {
  WcgBuilder builder(no_weed_out());
  // hop1 -> hop2 -> hop3 via Location headers.
  builder.add(Txn{.host = "hop1.example", .status = 302,
                  .location = "http://hop2.example/a", .ts = 1}.build());
  builder.add(Txn{.host = "hop2.example", .uri = "/a", .status = 302,
                  .location = "http://hop3.example/b", .ts = 1}.build());
  builder.add(Txn{.host = "hop3.example", .uri = "/b", .ts = 2}.build());
  const auto wcg = builder.build();
  EXPECT_EQ(wcg.annotations().total_redirects, 2u);
  EXPECT_EQ(wcg.annotations().longest_redirect_chain, 2u);
  EXPECT_EQ(wcg.annotations().cross_domain_redirects, 2u);
}

TEST(WcgBuilderTest, SlowReferrerTransitionIsNavigation) {
  WcgBuilder builder(no_weed_out());
  builder.add(Txn{.host = "a.example", .ts = 10}.build());
  builder.add(Txn{.host = "b.example", .referrer = "http://a.example/", .ts = 60}
                  .build());
  const auto wcg = builder.build();
  EXPECT_EQ(wcg.annotations().total_redirects, 0u);
}

TEST(WcgBuilderTest, StageAssignment) {
  WcgBuilder builder(no_weed_out());
  // Pre-download: 302 before any exploit payload.
  builder.add(Txn{.host = "hop.example", .status = 302,
                  .location = "http://exploit.example/l", .ts = 1}.build());
  // Download: exe payload.
  builder.add(Txn{.host = "exploit.example", .uri = "/payload.exe",
                  .content_type = "application/octet-stream",
                  .body = "MZ....", .ts = 2}.build());
  // Post-download: POST to a fresh host afterwards.
  builder.add(Txn{.host = "9.9.9.9", .uri = "/gate.php", .method = "POST",
                  .content_type = "text/plain", .body = "ok", .ts = 30}.build());
  const auto wcg = builder.build();

  const auto& ann = wcg.annotations();
  EXPECT_TRUE(ann.has_download_stage);
  EXPECT_TRUE(ann.has_post_download_stage);

  bool saw_pre = false;
  bool saw_download = false;
  bool saw_post = false;
  for (const auto& edge : wcg.edges()) {
    saw_pre |= edge.stage == Stage::kPreDownload;
    saw_download |= edge.stage == Stage::kDownload;
    saw_post |= edge.stage == Stage::kPostDownload;
  }
  EXPECT_TRUE(saw_pre);
  EXPECT_TRUE(saw_download);
  EXPECT_TRUE(saw_post);
}

TEST(WcgBuilderTest, MaliciousNodeTyping) {
  WcgBuilder builder(no_weed_out());
  builder.add(Txn{.host = "exploit.example", .uri = "/p.swf",
                  .content_type = "application/x-shockwave-flash",
                  .body = "CWS...", .ts = 1}.build());
  builder.add(Txn{.host = "innocent.example", .uri = "/img.png",
                  .content_type = "image/png", .ts = 2}.build());
  const auto wcg = builder.build();
  EXPECT_EQ(wcg.node(wcg.find_host("exploit.example")).type, NodeType::kMalicious);
  EXPECT_EQ(wcg.node(wcg.find_host("innocent.example")).type, NodeType::kRemote);
}

TEST(WcgBuilderTest, HeaderTallies) {
  WcgBuilder builder(no_weed_out());
  builder.add(Txn{.host = "a.example", .ts = 1}.build());
  builder.add(Txn{.host = "a.example", .uri = "/p", .method = "POST", .ts = 2}
                  .build());
  builder.add(Txn{.host = "a.example", .uri = "/m",
                  .referrer = "http://a.example/", .status = 404, .ts = 3}
                  .build());
  const auto wcg = builder.build();
  const auto& ann = wcg.annotations();
  EXPECT_EQ(ann.get_count, 2u);
  EXPECT_EQ(ann.post_count, 1u);
  EXPECT_EQ(ann.response_class_counts[1], 2u);  // 2 x 200
  EXPECT_EQ(ann.response_class_counts[3], 1u);  // 1 x 404
  EXPECT_EQ(ann.referrer_count, 1u);
  EXPECT_EQ(ann.no_referrer_count, 2u);
}

TEST(WcgBuilderTest, TimingAnnotations) {
  WcgBuilder builder(no_weed_out());
  builder.add(Txn{.host = "a.example", .ts = 0}.build());
  builder.add(Txn{.host = "a.example", .uri = "/b", .ts = 10}.build());
  builder.add(Txn{.host = "a.example", .uri = "/c", .ts = 20}.build());
  const auto wcg = builder.build();
  EXPECT_NEAR(wcg.annotations().duration_s, 20.1, 0.2);
  EXPECT_NEAR(wcg.annotations().avg_inter_transaction_s, 10.0, 0.1);
  EXPECT_EQ(wcg.annotations().transaction_count, 3u);
}

TEST(WcgBuilderTest, XFlashVersionDetected) {
  WcgBuilder builder(no_weed_out());
  auto txn = Txn{.host = "a.example", .ts = 1}.build();
  txn.request.headers.add("X-Flash-Version", "18.0.0.232");
  builder.add(std::move(txn));
  const auto wcg = builder.build();
  EXPECT_TRUE(wcg.annotations().x_flash_version_set);
  EXPECT_EQ(wcg.annotations().x_flash_version, "18.0.0.232");
}

TEST(WcgBuilderTest, TldDiversityAcrossRedirects) {
  WcgBuilder builder(no_weed_out());
  builder.add(Txn{.host = "a.example.com", .status = 302,
                  .location = "http://b.shady.top/x", .ts = 1}.build());
  builder.add(Txn{.host = "b.shady.top", .uri = "/x", .status = 302,
                  .location = "http://c.other.ru/y", .ts = 1}.build());
  builder.add(Txn{.host = "c.other.ru", .uri = "/y", .ts = 2}.build());
  const auto wcg = builder.build();
  EXPECT_EQ(wcg.annotations().tld_diversity, 3u);  // com, top, ru
}

TEST(WcgBuilderTest, ObfuscatedRedirectMinedIntoEdge) {
  WcgBuilder builder(no_weed_out());
  builder.add(Txn{.host = "landing.example",
                  .content_type = "application/javascript",
                  .body = "var p=\"\\x77\\x69\\x6e\\x64\\x6f\\x77\\x2e\\x6c\\x6f"
                          "\\x63\\x61\\x74\\x69\\x6f\\x6e\\x3d\\x22\\x68\\x74\\x74"
                          "\\x70\\x3a\\x2f\\x2f\\x65\\x76\\x69\\x6c\\x2e\\x74\\x6f"
                          "\\x70\\x2f\\x22\\x3b\";eval(p);",
                  .ts = 1}
                  .build());
  const auto wcg = builder.build();
  EXPECT_GE(wcg.annotations().total_redirects, 1u);
  EXPECT_NE(wcg.find_host("evil.top"), dm::graph::kInvalidNode);
}

TEST(WcgBuilderTest, MinerCanBeDisabled) {
  BuilderOptions options = no_weed_out();
  options.miner.deobfuscate = false;
  WcgBuilder builder(options);
  builder.add(Txn{.host = "landing.example",
                  .content_type = "application/javascript",
                  .body = "var p=\"\\x68\\x74\\x74\\x70\\x3a\\x2f\\x2f\\x65\\x76"
                          "\\x69\\x6c\\x2e\\x74\\x6f\\x70\\x2f\";"
                          "window.location=p;",
                  .ts = 1}
                  .build());
  const auto wcg = builder.build();
  EXPECT_EQ(wcg.find_host("evil.top"), dm::graph::kInvalidNode);
}

}  // namespace
}  // namespace dm::core
