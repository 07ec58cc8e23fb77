// Quarantine accounting for the fault-tolerant decode pipeline: one atomic
// counter per DecodeErrorCode.  A single FaultStats can be shared by every
// decode stage of one reconstruction run (pcap decode, frame parse, TCP
// reassembly, HTTP parse) and by concurrent workers — record() is
// lock-free.  Reports read a plain-value FaultStatsSnapshot.  The detection
// engine is not a stage here: runtime::Stats counts its failures and sheds.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/expected.h"

namespace dm::util {

/// Plain-value copy of the counters at one instant.
struct FaultStatsSnapshot {
  std::array<std::uint64_t, kDecodeErrorCodeCount> counts{};

  std::uint64_t count(DecodeErrorCode code) const noexcept {
    return counts[static_cast<std::size_t>(code)];
  }
  std::uint64_t total() const noexcept;

  /// "pcap/truncated-record=3 http/bad-chunk=1", or "none".
  std::string summary() const;
};

/// Thread-safe live counters.
class FaultStats {
 public:
  void record(DecodeErrorCode code) noexcept {
    counts_[static_cast<std::size_t>(code)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void record(const DecodeError& error) noexcept { record(error.code); }

  std::uint64_t count(DecodeErrorCode code) const noexcept {
    return counts_[static_cast<std::size_t>(code)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t total() const noexcept;

  FaultStatsSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kDecodeErrorCodeCount> counts_{};
};

}  // namespace dm::util
