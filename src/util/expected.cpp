#include "util/expected.h"

namespace dm::util {

std::string_view decode_layer_name(DecodeLayer layer) noexcept {
  switch (layer) {
    case DecodeLayer::kPcap: return "pcap";
    case DecodeLayer::kFrame: return "frame";
    case DecodeLayer::kTcp: return "tcp";
    case DecodeLayer::kHttp: return "http";
  }
  return "?";
}

std::string_view decode_error_name(DecodeErrorCode code) noexcept {
  switch (code) {
    case DecodeErrorCode::kPcapTruncatedHeader: return "truncated-header";
    case DecodeErrorCode::kPcapBadMagic: return "bad-magic";
    case DecodeErrorCode::kPcapTruncatedRecord: return "truncated-record";
    case DecodeErrorCode::kPcapOversizedRecord: return "oversized-record";
    case DecodeErrorCode::kFrameUndecodable: return "undecodable-frame";
    case DecodeErrorCode::kTcpPendingOverflow: return "pending-overflow";
    case DecodeErrorCode::kTcpStreamOverflow: return "stream-overflow";
    case DecodeErrorCode::kHttpBadRequestLine: return "bad-request-line";
    case DecodeErrorCode::kHttpBadStatusLine: return "bad-status-line";
    case DecodeErrorCode::kHttpBadContentLength: return "bad-content-length";
    case DecodeErrorCode::kHttpBadChunk: return "bad-chunk";
    case DecodeErrorCode::kHttpTruncatedMessage: return "truncated-message";
    case DecodeErrorCode::kCount_: break;
  }
  return "?";
}

DecodeLayer layer_of(DecodeErrorCode code) noexcept {
  switch (code) {
    case DecodeErrorCode::kPcapTruncatedHeader:
    case DecodeErrorCode::kPcapBadMagic:
    case DecodeErrorCode::kPcapTruncatedRecord:
    case DecodeErrorCode::kPcapOversizedRecord:
      return DecodeLayer::kPcap;
    case DecodeErrorCode::kFrameUndecodable:
      return DecodeLayer::kFrame;
    case DecodeErrorCode::kTcpPendingOverflow:
    case DecodeErrorCode::kTcpStreamOverflow:
      return DecodeLayer::kTcp;
    case DecodeErrorCode::kHttpBadRequestLine:
    case DecodeErrorCode::kHttpBadStatusLine:
    case DecodeErrorCode::kHttpBadContentLength:
    case DecodeErrorCode::kHttpBadChunk:
    case DecodeErrorCode::kHttpTruncatedMessage:
    case DecodeErrorCode::kCount_:  // sentinel, never counted
      return DecodeLayer::kHttp;
  }
  return DecodeLayer::kHttp;
}

std::string DecodeError::to_string() const {
  std::string out;
  out.append(decode_layer_name(layer_of(code)));
  out.push_back('/');
  out.append(decode_error_name(code));
  out.append(" @");
  out.append(std::to_string(offset));
  if (!reason.empty()) {
    out.append(": ");
    out.append(reason);
  }
  return out;
}

}  // namespace dm::util
