#include "synth/pcap_export.h"

#include <algorithm>
#include <map>

#include "net/packet_builder.h"

namespace dm::synth {
namespace {

void render_headers(std::string& out, const dm::http::Headers& headers,
                    std::size_t body_size, bool force_content_length) {
  bool saw_content_length = false;
  for (const auto& [name, value] : headers) {
    if (name == "Content-Length") {
      // Always serialize a length that matches the actual body.
      out += "Content-Length: " + std::to_string(body_size) + "\r\n";
      saw_content_length = true;
      continue;
    }
    out.append(name).append(": ").append(value).append("\r\n");
  }
  if (!saw_content_length && (force_content_length || body_size > 0)) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += "\r\n";
}

}  // namespace

std::string render_request(const dm::http::HttpRequest& request) {
  std::string out = request.method + " " + request.uri + " " +
                    (request.version.empty() ? "HTTP/1.1" : request.version) +
                    "\r\n";
  render_headers(out, request.headers, request.body.size(),
                 /*force_content_length=*/false);
  out += request.body;
  return out;
}

std::string render_response(const dm::http::HttpResponse& response) {
  std::string out = (response.version.empty() ? "HTTP/1.1" : response.version) +
                    " " + std::to_string(response.status_code) + " " +
                    (response.reason.empty() ? "OK" : response.reason) + "\r\n";
  // Responses always carry Content-Length so the parser never needs
  // close-delimited bodies on keep-alive connections.
  render_headers(out, response.headers, response.body.size(),
                 /*force_content_length=*/true);
  out += response.body;
  return out;
}

dm::net::PcapFile episode_to_pcap(const Episode& episode) {
  using dm::net::TcpConversationBuilder;

  // One TCP connection per (client, server-host) pair, keep-alive.
  struct Conversation {
    TcpConversationBuilder builder;
    std::uint64_t last_ts = 0;
  };
  std::map<std::string, Conversation> conversations;
  std::uint16_t next_port = 40200;

  for (const auto& txn : episode.transactions) {
    const std::string key = txn.client_host + "|" + txn.server_host;
    auto it = conversations.find(key);
    if (it == conversations.end()) {
      const auto client_ip =
          dm::net::Ipv4Address::parse(txn.client_host).value_or(
              dm::net::Ipv4Address::from_octets(10, 0, 0, 2));
      const auto server_ip =
          dm::net::Ipv4Address::parse(txn.server_ip).value_or(
              HostNameGen::ip_for(txn.server_host));
      Conversation conv{
          TcpConversationBuilder(client_ip, next_port++, server_ip,
                                 txn.server_port ? txn.server_port : 80),
          0};
      // Handshake completes just before the first request.
      const std::uint64_t hs =
          txn.request.ts_micros > 1500 ? txn.request.ts_micros - 1500 : 0;
      conv.builder.handshake(hs);
      it = conversations.emplace(key, std::move(conv)).first;
    }
    Conversation& conv = it->second;
    conv.builder.client_send(txn.request.ts_micros, render_request(txn.request));
    conv.last_ts = txn.request.ts_micros;
    if (txn.response) {
      conv.builder.server_send(txn.response->ts_micros,
                               render_response(*txn.response));
      conv.last_ts = std::max(conv.last_ts, txn.response->ts_micros);
    }
  }

  dm::net::PcapFile capture;
  for (auto& [key, conv] : conversations) {
    conv.builder.teardown(conv.last_ts + 1000);
    for (auto& pkt : conv.builder.take_packets()) {
      capture.packets.push_back(std::move(pkt));
    }
  }
  std::stable_sort(capture.packets.begin(), capture.packets.end(),
                   [](const dm::net::PcapPacket& a, const dm::net::PcapPacket& b) {
                     return a.ts_micros < b.ts_micros;
                   });
  return capture;
}

}  // namespace dm::synth
