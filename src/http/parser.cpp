#include "http/parser.h"

#include <algorithm>

#include "util/log.h"
#include "util/rate_limit.h"
#include "util/strings.h"

namespace dm::http {
namespace {

using dm::util::DecodeError;
using dm::util::DecodeErrorCode;
using dm::util::parse_long;
using dm::util::trim;

/// A chunk claiming more than this is a corrupt size field, not a body.
constexpr std::size_t kMaxChunkBytes = 64 * 1024 * 1024;

/// Cursor over a reassembled stream with timestamp lookups.
struct Cursor {
  const dm::net::DirectionStream& stream;
  std::size_t pos = 0;

  bool at_end() const noexcept { return pos >= stream.data.size(); }
  std::size_t remaining() const noexcept { return stream.data.size() - pos; }
  std::string_view rest() const noexcept {
    return std::string_view(stream.data).substr(pos);
  }
  std::uint64_t timestamp() const noexcept { return stream.timestamp_at(pos); }

  /// Reads up to CRLF (or LF); nullopt when no full line is available.
  std::optional<std::string_view> read_line() {
    const auto view = rest();
    const auto nl = view.find('\n');
    if (nl == std::string_view::npos) return std::nullopt;
    std::string_view line = view.substr(0, nl);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    pos += nl + 1;
    return line;
  }

  std::optional<std::string> read_bytes(std::size_t n) {
    if (remaining() < n) return std::nullopt;
    std::string out(stream.data, pos, n);
    pos += n;
    return out;
  }

  /// Appends the next `n` bytes to `out`; false when fewer are left.
  bool append_bytes(std::size_t n, std::string& out) {
    if (remaining() < n) return false;
    out.append(stream.data, pos, n);
    pos += n;
    return true;
  }
};

void quarantine(std::vector<DecodeError>& errors, dm::util::FaultStats* faults,
                DecodeErrorCode code, std::size_t offset, std::string reason) {
  DecodeError error{code, offset, std::move(reason)};
  if (faults) faults->record(error);
  static dm::util::EveryN gate(256);
  dm::util::log_every_n(gate, dm::util::LogLevel::kWarn,
                        "http: quarantined: ", error.to_string());
  errors.push_back(std::move(error));
}

/// Calls `field(name, value)` with the trimmed views of each header line up
/// to the blank line ending the block; false when the stream ends first.
template <typename Field>
bool for_each_field(Cursor& cursor, Field&& field) {
  while (true) {
    const auto line = cursor.read_line();
    if (!line) return false;  // incomplete block
    if (line->empty()) return true;
    const auto colon = line->find(':');
    if (colon == std::string_view::npos) continue;  // tolerate garbage lines
    field(trim(line->substr(0, colon)), trim(line->substr(colon + 1)));
  }
}

/// Two walks over the block: the first sizes it, so the second adds every
/// field into one allocation of exactly that size.
bool parse_header_block(Cursor& cursor, Headers& headers) {
  Cursor sizing = cursor;
  std::size_t bytes = 0;
  if (!for_each_field(sizing, [&](std::string_view name, std::string_view value) {
        bytes += Headers::entry_bytes(name, value);
      })) {
    return false;
  }
  headers.reserve(bytes);
  return for_each_field(cursor, [&](std::string_view name, std::string_view value) {
    headers.add(name, value);
  });
}

/// Reads a chunked body.  The error distinguishes a stream that merely ends
/// mid-body (truncated — stop parsing) from a corrupt size field (malformed
/// — quarantine and resync past it).
dm::util::Expected<std::string> read_chunked_body(Cursor& cursor) {
  const auto fail = [&](DecodeErrorCode code, std::string reason) {
    return DecodeError{code, cursor.pos, std::move(reason)};
  };
  std::string body;
  while (true) {
    const auto size_line = cursor.read_line();
    if (!size_line) {
      return fail(DecodeErrorCode::kHttpTruncatedMessage,
                  "stream ends before chunk size");
    }
    // Chunk extensions after ';' are ignored.
    const auto semi = size_line->find(';');
    const auto hex = trim(semi == std::string_view::npos ? *size_line
                                                         : size_line->substr(0, semi));
    if (hex.empty() || hex.size() > 16) {
      return fail(DecodeErrorCode::kHttpBadChunk, "bad chunk-size field");
    }
    std::size_t chunk_size = 0;
    for (char c : hex) {
      int v;
      if (c >= '0' && c <= '9') v = c - '0';
      else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
      else return fail(DecodeErrorCode::kHttpBadChunk, "non-hex chunk size");
      chunk_size = chunk_size * 16 + static_cast<std::size_t>(v);
    }
    if (chunk_size > kMaxChunkBytes) {
      return fail(DecodeErrorCode::kHttpBadChunk, "chunk size over cap");
    }
    if (chunk_size == 0) {
      // Trailer section: read lines until the empty terminator.
      while (true) {
        const auto t = cursor.read_line();
        if (!t) {
          return fail(DecodeErrorCode::kHttpTruncatedMessage,
                      "stream ends inside chunk trailer");
        }
        if (t->empty()) {
          // The body grew geometrically; it lives as long as its
          // transaction, so it leaves at its exact size.
          body.shrink_to_fit();
          return body;
        }
      }
    }
    if (!cursor.append_bytes(chunk_size, body)) {
      return fail(DecodeErrorCode::kHttpTruncatedMessage,
                  "stream ends inside chunk");
    }
    const auto crlf = cursor.read_line();
    if (!crlf) {
      return fail(DecodeErrorCode::kHttpTruncatedMessage,
                  "stream ends after chunk data");
    }
  }
}

constexpr std::string_view kMethods[] = {
    "GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "PATCH", "TRACE", "CONNECT"};

bool is_known_method(std::string_view m) {
  return std::find(std::begin(kMethods), std::end(kMethods), m) != std::end(kMethods);
}

bool is_request_line(std::string_view line) {
  const auto parts = dm::util::split_trimmed(line, ' ');
  return parts.size() >= 3 && is_known_method(parts[0]);
}

bool is_status_line(std::string_view line) {
  if (!dm::util::istarts_with(line, "HTTP/")) return false;
  const auto parts = dm::util::split_trimmed(line, ' ');
  if (parts.size() < 2) return false;
  const long code = parse_long(parts[1], -1);
  return code >= 100 && code <= 599;
}

/// Where a status line starts inside `line` after its first byte, or npos:
/// a response that follows a body with no CRLF at its end shares that
/// body's last line.  The tail must open with "HTTP/1.<digit> <code>",
/// checked in place, so a line of repeated anchors costs one pass.
std::size_t status_line_inside(std::string_view line) {
  const auto in = [&](std::size_t i, char lo, char hi) {
    return i < line.size() && line[i] >= lo && line[i] <= hi;
  };
  for (auto at = line.find("HTTP/1.", 1); at != std::string_view::npos;
       at = line.find("HTTP/1.", at + 1)) {
    const std::size_t code = at + 9;  // "HTTP/1.1 200"
    if (in(at + 7, '0', '9') && in(at + 8, ' ', ' ') && in(code, '1', '5') &&
        in(code + 1, '0', '9') && in(code + 2, '0', '9') &&
        (code + 3 == line.size() || line[code + 3] == ' ')) {
      return at;
    }
  }
  return std::string_view::npos;
}

/// The same for a request line, held to a stricter anchor, since a method
/// name is a common word: the tail must end in " HTTP/1.0" or " HTTP/1.1".
/// The first method name followed by a space decides: only blanks can lie
/// between a later one and the version, so no later tail is a request line.
std::size_t request_line_inside(std::string_view line) {
  if (!line.ends_with(" HTTP/1.0") && !line.ends_with(" HTTP/1.1")) {
    return std::string_view::npos;
  }
  std::size_t first = std::string_view::npos;
  for (const auto method : kMethods) {
    for (auto at = line.find(method, 1); at < first; at = line.find(method, at + 1)) {
      if (at + method.size() < line.size() && line[at + method.size()] == ' ') first = at;
    }
  }
  return first != std::string_view::npos && is_request_line(line.substr(first))
             ? first
             : std::string_view::npos;
}

/// Skips forward to the next message start: a line satisfying
/// `looks_like_start`, or the tail of a line that `start_inside` finds.  The
/// cursor is left AT that start.  False when the stream holds no further
/// start.
template <typename Pred, typename Inside>
bool resync(Cursor& cursor, Pred&& looks_like_start, Inside&& start_inside) {
  while (!cursor.at_end()) {
    const std::size_t at = cursor.pos;
    const auto line = cursor.read_line();
    if (!line) return false;  // trailing partial line: nothing left to find
    if (looks_like_start(*line)) {
      cursor.pos = at;
      return true;
    }
    if (const auto inside = start_inside(*line); inside != std::string_view::npos) {
      cursor.pos = at + inside;
      return true;
    }
  }
  return false;
}

bool resync_request(Cursor& cursor) {
  return resync(cursor, is_request_line, request_line_inside);
}

bool resync_response(Cursor& cursor) {
  return resync(cursor, is_status_line, status_line_inside);
}

}  // namespace

RequestParseResult parse_requests_ex(const dm::net::DirectionStream& stream,
                                     dm::util::FaultStats* faults) {
  RequestParseResult out;
  Cursor cursor{stream};
  while (!cursor.at_end()) {
    const std::size_t start = cursor.pos;
    const std::uint64_t ts = cursor.timestamp();
    const auto line = cursor.read_line();
    if (!line) break;  // trailing partial line: wait-for-more, not a fault
    if (line->empty()) continue;  // stray CRLF between pipelined requests

    const auto parts = dm::util::split_trimmed(*line, ' ');
    if (parts.size() < 3 || !is_known_method(parts[0])) {
      // Garbage where a request line should be: quarantine the region up to
      // the next plausible request start and keep parsing there.
      quarantine(out.errors, faults, DecodeErrorCode::kHttpBadRequestLine,
                 start, "garbage request line");
      cursor.pos = start;  // a request may start inside the garbage line
      if (!resync_request(cursor)) break;
      continue;
    }
    HttpRequest req;
    req.method = std::string(parts[0]);
    req.uri = std::string(parts[1]);
    req.version = std::string(parts[2]);
    req.ts_micros = ts;
    if (!parse_header_block(cursor, req.headers)) {
      quarantine(out.errors, faults, DecodeErrorCode::kHttpTruncatedMessage,
                 start, "stream ends inside request headers");
      break;
    }

    if (const auto te = req.headers.get("Transfer-Encoding");
        te && dm::util::ifind(*te, "chunked") != std::string_view::npos) {
      auto body = read_chunked_body(cursor);
      if (!body) {
        out.errors.push_back(body.error());
        if (faults) faults->record(body.error());
        if (body.error().code == DecodeErrorCode::kHttpBadChunk &&
            resync_request(cursor)) {
          continue;  // corrupt framing: skip this message, keep the rest
        }
        break;  // truncated: nothing more to salvage
      }
      req.body = std::move(*body);
    } else if (const auto cl = req.headers.get("Content-Length")) {
      const long n = parse_long(*cl, -1);
      if (n < 0) {
        quarantine(out.errors, faults, DecodeErrorCode::kHttpBadContentLength,
                   start, "unparseable Content-Length");
        if (!resync_request(cursor)) break;
        continue;
      }
      auto body = cursor.read_bytes(static_cast<std::size_t>(n));
      if (!body) {
        quarantine(out.errors, faults, DecodeErrorCode::kHttpTruncatedMessage,
                   start, "stream ends inside request body");
        break;
      }
      req.body = std::move(*body);
    }
    out.requests.push_back(std::move(req));
  }
  return out;
}

ResponseParseResult parse_responses_ex(const dm::net::DirectionStream& stream,
                                       bool connection_closed,
                                       dm::util::FaultStats* faults) {
  ResponseParseResult out;
  Cursor cursor{stream};
  while (!cursor.at_end()) {
    const std::size_t start = cursor.pos;
    const std::uint64_t ts = cursor.timestamp();
    const auto line = cursor.read_line();
    if (!line) break;
    if (line->empty()) continue;

    if (!is_status_line(*line)) {
      quarantine(out.errors, faults, DecodeErrorCode::kHttpBadStatusLine,
                 start, "garbage status line");
      cursor.pos = start;  // a response may start inside the garbage line
      if (!resync_response(cursor)) break;
      continue;
    }
    const auto parts = dm::util::split_trimmed(*line, ' ');
    HttpResponse res;
    res.version = std::string(parts[0]);
    res.status_code = static_cast<int>(parse_long(parts[1], -1));
    if (parts.size() >= 3) {
      // Reason phrase may contain spaces: rejoin everything after the code.
      const auto code_pos = line->find(parts[1]);
      res.reason = std::string(trim(line->substr(code_pos + parts[1].size())));
    }
    res.ts_micros = ts;
    if (!parse_header_block(cursor, res.headers)) {
      quarantine(out.errors, faults, DecodeErrorCode::kHttpTruncatedMessage,
                 start, "stream ends inside response headers");
      break;
    }

    // 1xx/204/304 have no body.
    const bool bodyless = res.status_code < 200 || res.status_code == 204 ||
                          res.status_code == 304;
    if (!bodyless) {
      if (const auto te = res.headers.get("Transfer-Encoding");
          te && dm::util::ifind(*te, "chunked") != std::string_view::npos) {
        auto body = read_chunked_body(cursor);
        if (!body) {
          out.errors.push_back(body.error());
          if (faults) faults->record(body.error());
          if (body.error().code == DecodeErrorCode::kHttpBadChunk &&
              resync_response(cursor)) {
            continue;
          }
          break;
        }
        res.body = std::move(*body);
      } else if (const auto cl = res.headers.get("Content-Length")) {
        const long n = parse_long(*cl, -1);
        if (n < 0) {
          quarantine(out.errors, faults,
                     DecodeErrorCode::kHttpBadContentLength, start,
                     "unparseable Content-Length");
          if (!resync_response(cursor)) break;
          continue;
        }
        auto body = cursor.read_bytes(static_cast<std::size_t>(n));
        if (!body) {
          quarantine(out.errors, faults,
                     DecodeErrorCode::kHttpTruncatedMessage, start,
                     "stream ends inside response body");
          break;
        }
        res.body = std::move(*body);
      } else if (connection_closed) {
        // Close-delimited body: everything to end of stream.
        res.body = std::string(cursor.rest());
        cursor.pos = stream.data.size();
      } else {
        // No length framing and the connection is still open: the body is
        // not yet complete, so stop without emitting this response.
        break;
      }
    }
    out.responses.push_back(std::move(res));
  }
  return out;
}

std::vector<HttpTransaction> transactions_from_flow(
    const dm::net::TcpFlow& flow, dm::util::FaultStats* faults) {
  auto requests = parse_requests_ex(flow.client_to_server, faults).requests;
  auto responses =
      parse_responses_ex(flow.server_to_client, flow.closed, faults).responses;

  std::vector<HttpTransaction> transactions;
  transactions.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    HttpTransaction txn;
    txn.client_host = flow.client_ip.to_string();
    txn.server_ip = flow.server_ip.to_string();
    txn.server_port = flow.server_port;
    txn.request = std::move(requests[i]);
    const std::string host = txn.request.host();
    txn.server_host = host.empty() ? txn.server_ip : host;
    if (i < responses.size()) txn.response = std::move(responses[i]);
    transactions.push_back(std::move(txn));
  }
  return transactions;
}

}  // namespace dm::http
