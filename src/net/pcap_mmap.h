// mmap-backed zero-copy capture reading (DESIGN.md §15).
//
// MappedFile maps a file read-only and hands out one std::span over the
// mapping; MappedPcap couples a mapping with a decode_pcap_view() result so
// the packet slices and the bytes they alias share one owner.  Lifetime
// rule: NO slice — packet view, quarantined view, TCP payload string_view
// derived from one — may outlive the MappedPcap that produced it.  The safe
// pattern (the only one the pipelines use) is: decode, reconstruct
// transactions (HttpTransaction owns all of its strings), drop the mapping.
//
// Per the repo convention, opening or reading a file throws on I/O error;
// malformed capture *bytes* never throw — they quarantine through the view
// decoder.  MappedFile maps only a regular file of nonzero size.  Anything
// else (a pipe, a FIFO, a device, an empty file) and a failed mmap are read
// to their end from the descriptor already opened, into an owned buffer:
// callers get the same span-of-bytes interface either way.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/pcap.h"
#include "util/fault_stats.h"

namespace dm::net {

/// Read-only file mapping (move-only RAII).  Throws std::runtime_error on
/// open/stat/read failure; reads into an owned buffer what it cannot map.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }
  std::size_t size() const noexcept { return size_; }
  /// False when bytes() points at an owned buffer read from the descriptor
  /// instead of a mapping (behaviourally identical, just copies).
  bool mapped() const noexcept { return mapped_; }

 private:
  void reset() noexcept;

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::uint8_t> fallback_;  // owns bytes when !mapped_
};

/// A capture file decoded in place over its own mapping.  The packet views
/// in file() alias the mapping and die with this object.
class MappedPcap {
 public:
  explicit MappedPcap(const std::string& path,
                      const PcapDecodeOptions& options = {},
                      dm::util::FaultStats* faults = nullptr);

  MappedPcap(MappedPcap&&) noexcept = default;
  MappedPcap& operator=(MappedPcap&&) noexcept = default;
  MappedPcap(const MappedPcap&) = delete;
  MappedPcap& operator=(const MappedPcap&) = delete;

  const PcapFileView& file() const noexcept { return result_.file; }
  const PcapViewDecodeResult& result() const noexcept { return result_; }
  const MappedFile& mapping() const noexcept { return mapping_; }

 private:
  // Declaration order matters: result_'s spans alias mapping_, so the
  // mapping must be constructed first and destroyed last.
  MappedFile mapping_;
  PcapViewDecodeResult result_;
};

}  // namespace dm::net
