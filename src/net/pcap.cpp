#include "net/pcap.h"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/rate_limit.h"

namespace dm::net {
namespace {

using dm::util::DecodeError;
using dm::util::DecodeErrorCode;

constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNanos = 0xa1b23c4d;
constexpr std::uint32_t kMagicMicrosSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNanosSwapped = 0x4d3cb2a1;
constexpr std::size_t kGlobalHeaderSize = 24;
constexpr std::size_t kRecordHeaderSize = 16;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

std::uint32_t swap32(std::uint32_t v) {
  return ((v & 0xff) << 24) | ((v & 0xff00) << 8) | ((v >> 8) & 0xff00) |
         (v >> 24);
}

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  bool remaining(std::size_t n) const noexcept { return pos_ + n <= size_; }
  std::size_t left() const noexcept { return size_ - pos_; }
  std::size_t pos() const noexcept { return pos_; }

  std::uint32_t u32(bool swapped) {
    std::uint32_t v;
    std::memcpy(&v, data_ + pos_, 4);
    pos_ += 4;
    return swapped ? swap32(v) : v;
  }

  void skip(std::size_t n) { pos_ += n; }

  const std::uint8_t* cursor() const noexcept { return data_ + pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Records the decode loop will keep from `r` on: it stops at an oversized
/// record or a truncated one, and so does this count.
std::size_t count_kept_records(Reader r, bool swapped,
                               std::size_t max_record_bytes) {
  std::size_t kept = 0;
  while (r.remaining(kRecordHeaderSize)) {
    r.skip(8);  // ts_sec, ts_frac
    const std::uint32_t incl_len = r.u32(swapped);
    r.skip(4);  // orig_len
    if (incl_len > max_record_bytes || !r.remaining(incl_len)) break;
    r.skip(incl_len);
    ++kept;
  }
  return kept;
}

void quarantine(PcapViewDecodeResult& result, dm::util::FaultStats* faults,
                DecodeError error) {
  if (faults) faults->record(error);
  static dm::util::EveryN gate(256);
  dm::util::log_every_n(gate, dm::util::LogLevel::kWarn,
                        "pcap: quarantined: ", error.to_string());
  result.errors.push_back(std::move(error));
}

}  // namespace

std::vector<std::uint8_t> write_pcap(const PcapFile& file) {
  std::vector<std::uint8_t> out;
  out.reserve(24 + file.packets.size() * 64);
  put_u32(out, kMagicMicros);
  put_u16(out, 2);   // version major
  put_u16(out, 4);   // version minor
  put_u32(out, 0);   // thiszone
  put_u32(out, 0);   // sigfigs
  put_u32(out, 65535);  // snaplen
  put_u32(out, file.link_type);
  for (const auto& pkt : file.packets) {
    put_u32(out, static_cast<std::uint32_t>(pkt.ts_micros / 1000000));
    put_u32(out, static_cast<std::uint32_t>(pkt.ts_micros % 1000000));
    put_u32(out, static_cast<std::uint32_t>(pkt.data.size()));  // incl_len
    put_u32(out, static_cast<std::uint32_t>(pkt.data.size()));  // orig_len
    out.insert(out.end(), pkt.data.begin(), pkt.data.end());
  }
  return out;
}

PcapViewDecodeResult decode_pcap_view(std::span<const std::uint8_t> bytes,
                                      const PcapDecodeOptions& options,
                                      dm::util::FaultStats* faults) {
  PcapViewDecodeResult result;
  if (bytes.size() < kGlobalHeaderSize) {
    result.fatal = true;
    quarantine(result, faults,
               {DecodeErrorCode::kPcapTruncatedHeader, 0,
                "global header needs 24 bytes, " +
                    std::to_string(bytes.size()) + " given"});
    return result;
  }
  Reader r(bytes.data(), bytes.size());

  const std::uint32_t raw_magic = r.u32(false);
  bool swapped = false;
  bool nanos = false;
  switch (raw_magic) {
    case kMagicMicros: break;
    case kMagicNanos: nanos = true; break;
    case kMagicMicrosSwapped: swapped = true; break;
    case kMagicNanosSwapped: swapped = true; nanos = true; break;
    default:
      result.fatal = true;
      quarantine(result, faults,
                 {DecodeErrorCode::kPcapBadMagic, 0, "unrecognized magic"});
      return result;
  }
  // Header layout after magic: version(4) thiszone(4) sigfigs(4) snaplen(4)
  // network(4) — 24 bytes total.
  r.skip(4 + 4 + 4 + 4);  // version, thiszone, sigfigs, snaplen
  result.file.link_type = r.u32(swapped);

  // A walk over the record headers first, so the packet array is allocated
  // once at its final size instead of doubling through the decode.
  result.file.packets.reserve(
      count_kept_records(r, swapped, options.max_record_bytes));
  while (r.remaining(kRecordHeaderSize)) {
    const std::size_t record_start = r.pos();
    const std::uint32_t ts_sec = r.u32(swapped);
    const std::uint32_t ts_frac = r.u32(swapped);
    const std::uint32_t incl_len = r.u32(swapped);
    r.skip(4);  // orig_len
    const std::uint64_t frac_micros = nanos ? ts_frac / 1000 : ts_frac;
    const std::uint64_t ts_micros =
        static_cast<std::uint64_t>(ts_sec) * 1000000 + frac_micros;

    if (incl_len > options.max_record_bytes) {
      // A corrupt length prefix makes everything after it unaddressable:
      // quarantine the tail as one fault and stop.
      quarantine(result, faults,
                 {DecodeErrorCode::kPcapOversizedRecord, record_start,
                  "record claims " + std::to_string(incl_len) + " bytes, cap " +
                      std::to_string(options.max_record_bytes)});
      if (options.keep_quarantined) {
        result.quarantined.push_back(
            {ts_micros,
             std::span<const std::uint8_t>(
                 r.cursor(), std::min<std::size_t>(r.left(), incl_len))});
      }
      return result;
    }
    if (!r.remaining(incl_len)) {
      // Truncated final record: keep the successfully-parsed prefix and flag
      // the cut instead of discarding the capture.
      result.truncated_tail = true;
      quarantine(result, faults,
                 {DecodeErrorCode::kPcapTruncatedRecord, record_start,
                  "record needs " + std::to_string(incl_len) + " bytes, " +
                      std::to_string(r.left()) + " left"});
      if (options.keep_quarantined) {
        result.quarantined.push_back(
            {ts_micros, std::span<const std::uint8_t>(r.cursor(), r.left())});
      }
      return result;
    }
    // Zero-copy: the packet is a slice of the input buffer, not an owned
    // copy.
    result.file.packets.push_back(
        {ts_micros, std::span<const std::uint8_t>(r.cursor(), incl_len)});
    r.skip(incl_len);
  }
  if (r.left() > 0) {
    // 1..15 trailing bytes: a record header itself was cut mid-write.
    result.truncated_tail = true;
    quarantine(result, faults,
               {DecodeErrorCode::kPcapTruncatedRecord, r.pos(),
                "trailing " + std::to_string(r.left()) +
                    " bytes are a cut record header"});
    if (options.keep_quarantined) {
      result.quarantined.push_back(
          {0, std::span<const std::uint8_t>(r.cursor(), r.left())});
    }
  }
  return result;
}

PcapFile quarantine_capture(const PcapViewDecodeResult& result) {
  PcapFile capture;
  capture.link_type = result.file.link_type;
  capture.packets.reserve(result.quarantined.size());
  for (const auto& pkt : result.quarantined) {
    capture.packets.push_back(
        {pkt.ts_micros, {pkt.data.begin(), pkt.data.end()}});
  }
  return capture;
}

void write_pcap_file(const std::string& path, const PcapFile& file) {
  const auto bytes = write_pcap(file);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("pcap: cannot open for write: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("pcap: write failed: " + path);
}

}  // namespace dm::net
