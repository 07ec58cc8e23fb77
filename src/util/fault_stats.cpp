#include "util/fault_stats.h"

namespace dm::util {

std::uint64_t FaultStatsSnapshot::total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto c : counts) sum += c;
  return sum;
}

std::string FaultStatsSnapshot::summary() const {
  std::string out;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const auto code = static_cast<DecodeErrorCode>(i);
    if (!out.empty()) out.push_back(' ');
    out.append(decode_layer_name(layer_of(code)));
    out.push_back('/');
    out.append(decode_error_name(code));
    out.push_back('=');
    out.append(std::to_string(counts[i]));
  }
  return out.empty() ? "none" : out;
}

std::uint64_t FaultStats::total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& c : counts_) sum += c.load(std::memory_order_relaxed);
  return sum;
}

FaultStatsSnapshot FaultStats::snapshot() const {
  FaultStatsSnapshot snap;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

}  // namespace dm::util
