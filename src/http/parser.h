// HTTP/1.x stream parser: turns the two reassembled byte streams of a TCP
// flow into a sequence of paired HttpTransactions.  Supports
// Content-Length-delimited and chunked bodies, plus close-delimited
// responses (body runs to end of stream on a closed flow).
//
// Pairing follows HTTP/1.1 pipelining rules: the k-th response on a
// connection answers the k-th request.
//
// Parsing is best-effort: malformed framing (garbage request line, bad
// Content-Length, broken chunk header) quarantines the bad region — a
// util::DecodeError naming the fault and its byte offset — and the parser
// RESYNCS to the next plausible message start instead of abandoning the
// rest of the stream.  Exploit kits ship deliberately broken messages
// exactly so that naive parsers give up before the payload; the resync
// keeps later transactions (and their infection evidence) visible.
// A stream that merely ends mid-message is "truncated", not malformed:
// already-parsed messages are returned and the cut is reported once.
#pragma once

#include <vector>

#include "http/message.h"
#include "net/tcp_reassembly.h"
#include "util/expected.h"
#include "util/fault_stats.h"

namespace dm::http {

/// Requests salvaged from a client->server stream plus the quarantined
/// faults (in stream order).
struct RequestParseResult {
  std::vector<HttpRequest> requests;
  std::vector<dm::util::DecodeError> errors;
};

/// Responses salvaged from a server->client stream plus quarantined faults.
struct ResponseParseResult {
  std::vector<HttpResponse> responses;
  std::vector<dm::util::DecodeError> errors;
};

/// Best-effort request parse with resync and fault accounting.
RequestParseResult parse_requests_ex(const dm::net::DirectionStream& stream,
                                     dm::util::FaultStats* faults = nullptr);

/// Best-effort response parse; `connection_closed` allows a final
/// close-delimited body to be accepted.
ResponseParseResult parse_responses_ex(const dm::net::DirectionStream& stream,
                                       bool connection_closed,
                                       dm::util::FaultStats* faults = nullptr);

/// Full flow -> paired transactions, with endpoint metadata filled in.
/// Quarantined parse faults are counted into `faults` when given.
std::vector<HttpTransaction> transactions_from_flow(
    const dm::net::TcpFlow& flow, dm::util::FaultStats* faults = nullptr);

}  // namespace dm::http
