// Structured decode errors for the fault-tolerant decode pipeline.
//
// The on-the-wire deployment (§V-B) parses adversarial traffic by
// definition: exploit kits ship deliberately broken headers and truncated
// bodies.  A malformed record/segment/message must therefore be *quarantined*
// — described by a DecodeError, counted in util::FaultStats — while the
// stream continues.  Exceptions remain reserved for file-level I/O and
// construction errors; the hot decode path reports through these types.
//
// DecodeError pinpoints a fault as (code, byte offset, reason);
// Expected<T> is the value-or-DecodeError return type for decode steps that
// cannot produce a partial result.
#pragma once

#include <cassert>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace dm::util {

/// Pipeline layer a fault was detected in.
enum class DecodeLayer {
  kPcap,     // capture-file record iteration
  kFrame,    // Ethernet/IPv4/TCP header parsing
  kTcp,      // stream reassembly
  kHttp,     // HTTP/1.x message parsing
};

std::string_view decode_layer_name(DecodeLayer layer) noexcept;

/// Every distinct fault class the decode pipeline can quarantine.  Keep in
/// sync with decode_error_name(); kCount_ is a sentinel for FaultStats
/// arrays.  Each code has a producer on some decode path
/// (fault_injection_test fences that).  Engine events (detector failures,
/// sheds, observe() after finish()) are not decode faults: runtime::Stats
/// counts them.
enum class DecodeErrorCode {
  // pcap layer
  kPcapTruncatedHeader,
  kPcapBadMagic,
  kPcapTruncatedRecord,
  kPcapOversizedRecord,
  // frame layer
  kFrameUndecodable,
  // tcp layer
  kTcpPendingOverflow,
  kTcpStreamOverflow,
  // http layer
  kHttpBadRequestLine,
  kHttpBadStatusLine,
  kHttpBadContentLength,
  kHttpBadChunk,
  kHttpTruncatedMessage,
  kCount_,
};

inline constexpr std::size_t kDecodeErrorCodeCount =
    static_cast<std::size_t>(DecodeErrorCode::kCount_);

std::string_view decode_error_name(DecodeErrorCode code) noexcept;
/// The layer a code belongs to: the one code-to-layer map.
DecodeLayer layer_of(DecodeErrorCode code) noexcept;

/// One quarantined fault: what went wrong, at which byte offset of its
/// layer's input (the layer follows from the code), and a short
/// human-readable reason.
struct DecodeError {
  DecodeErrorCode code = DecodeErrorCode::kCount_;
  std::size_t offset = 0;
  std::string reason;

  /// "pcap/truncated-record @1534: record needs 96 bytes, 12 left"
  std::string to_string() const;
};

/// Minimal value-or-error.  BasicExpected is the generic form: any error
/// payload E works (the ml layer uses it with its own LoadError for model
/// deserialization).  The decode pipeline's Expected<T> alias below fixes
/// E = DecodeError and is what every decoder returns when a fault means no
/// usable value (e.g. an unusable capture header).  Steps that can salvage
/// a prefix return the partial value plus a DecodeError list instead.
template <typename T, typename E>
class BasicExpected {
 public:
  BasicExpected(T value) : v_(std::in_place_index<0>, std::move(value)) {}
  BasicExpected(E error) : v_(std::in_place_index<1>, std::move(error)) {}

  bool has_value() const noexcept { return v_.index() == 0; }
  explicit operator bool() const noexcept { return has_value(); }

  T& value() noexcept {
    assert(has_value());
    return std::get<0>(v_);
  }
  const T& value() const noexcept {
    assert(has_value());
    return std::get<0>(v_);
  }
  T& operator*() noexcept { return value(); }
  const T& operator*() const noexcept { return value(); }
  T* operator->() noexcept { return &value(); }
  const T* operator->() const noexcept { return &value(); }

  const E& error() const noexcept {
    assert(!has_value());
    return std::get<1>(v_);
  }

  T value_or(T fallback) const {
    return has_value() ? std::get<0>(v_) : std::move(fallback);
  }

 private:
  std::variant<T, E> v_;
};

template <typename T>
using Expected = BasicExpected<T, DecodeError>;

}  // namespace dm::util
