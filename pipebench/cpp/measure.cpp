#include "measure.h"

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>

namespace pipebench {

// --- percentiles -------------------------------------------------------------

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

constexpr std::array<double, 5> kLadder{50.0, 90.0, 95.0, 99.0, 99.9};

}  // namespace

double percentile(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

bool percentile_supported(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= kMinSamplesBeyond;
}

std::optional<double> highest_supported_percentile(
    std::size_t n, std::span<const double> ladder) {
  std::optional<double> best;
  for (const double p : ladder) {
    if (percentile_supported(n, p)) best = p;
  }
  return best;
}

std::span<const double> default_percentile_ladder() { return kLadder; }

// --- spans -------------------------------------------------------------------

SpanRecorder::SpanRecorder(std::uint32_t lane, Clock::time_point epoch)
    : lane_(lane), epoch_(epoch) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int32_t SpanRecorder::begin(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now_ns(), 0, parent, lane_});
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
      children[static_cast<std::size_t>(parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (const std::int32_t c : children[i]) {
      const Span& child = spans[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(child.start_ns, s.start_ns);
      const std::int64_t hi = std::min(child.end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (run_hi < run_lo || lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool write_trace_json(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",\n", s.name, s.lane,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
  }
  std::fputs("\n]}\n", out);
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

// --- clean-heap children ------------------------------------------------------------------

namespace {

/// A "Vm...:" line of /proc/self/status in KiB; -1 when unreadable.
long status_kib(std::string_view key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtol(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return -1;
}

/// Resets VmHWM to the current RSS (Linux >= 4.0).
bool reset_high_water() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

bool read_all(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

}  // namespace

namespace detail {

std::optional<double> run_in_child(const std::function<void(void*)>& work,
                                   void* out, std::size_t size) {
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  std::fflush(nullptr);  // the child must not replay buffered output
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    ::close(fds[0]);
    // Reply: ok flag, growth in MB, then the work's `size` bytes.
    std::vector<char> reply(2 * sizeof(double) + size, 0);
    double header[2] = {0, 0};
    try {
      ::malloc_trim(0);
      if (reset_high_water()) {
        const long base = status_kib("VmRSS:");
        work(reply.data() + sizeof(header));
        const long peak = status_kib("VmHWM:");
        if (base >= 0 && peak >= base) {
          header[0] = 1;
          header[1] = static_cast<double>(peak - base) * 1024.0 / 1e6;
        }
      }
    } catch (...) {
      header[0] = 0;
    }
    std::memcpy(reply.data(), header, sizeof(header));
    const char* p = reply.data();
    std::size_t left = reply.size();
    while (left > 0) {
      const ssize_t wrote = ::write(fds[1], p, left);
      if (wrote <= 0) ::_exit(1);
      p += wrote;
      left -= static_cast<std::size_t>(wrote);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  double header[2] = {0, 0};
  const bool got = read_all(fds[0], header, sizeof(header)) &&
                   read_all(fds[0], out, size);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!got || header[0] != 1.0 || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return header[1];
}

}  // namespace detail

}  // namespace pipebench
