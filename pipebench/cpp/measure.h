// The benchmark's own arithmetic: percentile selection, an in-memory span
// recorder with self-time accounting, and clean-heap child runs that also
// measure peak RSS.
// Everything here is independent of the program under test, so its tests
// (tests/measure_test.cpp) pin the numbers the report is built from.
#pragma once

#include <chrono>
#include <cstring>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace pipebench {

// --- percentiles -------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an ascending-sorted sample;
/// 0 for an empty sample.
double percentile(std::span<const double> sorted, double p);

/// Median of an unsorted sample (mean of the middle pair for even sizes).
double median(std::vector<double> values);

/// Samples strictly above the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

bool percentile_supported(std::size_t n, double p);

/// Highest entry of `ladder` (ascending) that percentile_supported() allows
/// for n samples; nullopt when none does.
std::optional<double> highest_supported_percentile(
    std::size_t n, std::span<const double> ladder);

/// The ladder the report walks: p50, p90, p95, p99, p99.9.
std::span<const double> default_percentile_ladder();

// --- spans -------------------------------------------------------------------

/// One timed interval.  `name` must outlive the recorder (string literals).
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same span vector, -1 = root
  std::uint32_t lane = 0;    // thread lane: 0 = main thread, k = shard k-1
};

/// Single-threaded in-memory span log.  begin() parents the new span under
/// the innermost span still open on this recorder; end() closes it, and
/// spans must close innermost-first.  One recorder per thread; lanes let
/// several be written to one file.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(std::uint32_t lane = 0,
                        Clock::time_point epoch = Clock::now());

  std::int32_t begin(const char* name);
  void end(std::int32_t id);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  Clock::time_point epoch() const noexcept { return epoch_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::int64_t now_ns() const;

  std::uint32_t lane_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Per-span self time: duration minus the part of the interval covered by
/// its children, where overlapping children are counted once and a child
/// reaching outside its parent is clipped to it.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Writes spans as Chrome trace-event JSON ("X" events, microseconds; each
/// event's args carry its index and parent index).  Returns false on I/O
/// failure.
bool write_trace_json(const std::string& path, const std::vector<Span>& spans);

// --- clean-heap children -------------------------------------------------------

namespace detail {
/// Forks; the child hands its heap back to the kernel (malloc_trim), resets
/// its RSS high-water mark, runs `work` (which writes `size` bytes to its
/// argument) and reports.  Returns the peak RSS growth in MB, or nullopt
/// when the child or the probe failed.
std::optional<double> run_in_child(const std::function<void(void*)>& work,
                                   void* out, std::size_t size);
}  // namespace detail

template <typename T>
struct ChildResult {
  double growth_mb = 0;  // peak RSS during the work minus RSS before it
  T value{};
};

/// Runs `work` in a forked child that starts from the same state every
/// time: the parent's heap as it stood, with freed memory returned to the
/// kernel, so neither the timing nor the peak RSS depends on what earlier
/// passes left behind.  `work` returns a trivially copyable summary.  The
/// caller must have no other threads running.
template <typename Fn>
auto run_in_child(Fn&& work) -> std::optional<ChildResult<decltype(work())>> {
  using T = decltype(work());
  static_assert(std::is_trivially_copyable_v<T>);
  ChildResult<T> result;
  const auto growth = detail::run_in_child(
      [&work](void* out) {
        const T value = work();
        std::memcpy(out, &value, sizeof(T));
      },
      &result.value, sizeof(T));
  if (!growth) return std::nullopt;
  result.growth_mb = *growth;
  return result;
}

}  // namespace pipebench
