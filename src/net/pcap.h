// Classic libpcap capture-file format, implemented from scratch (no libpcap
// dependency).  Supports reading both the microsecond (0xa1b2c3d4) and
// nanosecond (0xa1b23c4d) magics in either byte order, and writing the
// microsecond little-endian variant.  Link type is Ethernet (DLT_EN10MB).
//
// This is the on-disk interface between the synthetic trace generator
// (which WRITES infection/benign episodes as real pcap files) and the
// offline analytics stage (which READS them back through full TCP/HTTP
// reconstruction), mirroring the paper's PCAP-driven Stage 1.
//
// There is one decoder, decode_pcap_view(): its packets are slices of the
// caller's bytes, and files reach it only through MappedPcap
// (pcap_mmap.h).  Decoding is fault-tolerant and never throws on malformed
// bytes.  A bad record is quarantined — described by a util::DecodeError,
// counted in util::FaultStats, optionally retained for a forensic
// quarantine capture — and iteration continues with whatever can still be
// salvaged.  Only file-level I/O throws (MappedFile / write_pcap_file),
// per the repo convention: exceptions for environment errors, structured
// errors for wire data.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/expected.h"
#include "util/fault_stats.h"

namespace dm::net {

/// One captured frame: timestamp plus raw link-layer bytes.
struct PcapPacket {
  std::uint64_t ts_micros = 0;  // absolute time in microseconds
  std::vector<std::uint8_t> data;
};

/// A capture that owns its packets: what write_pcap serializes, what the
/// trace generator builds and what quarantine_capture copies out.
struct PcapFile {
  std::uint32_t link_type = 1;  // DLT_EN10MB
  std::vector<PcapPacket> packets;
};

/// One captured frame as a zero-copy slice of the caller's buffer.
/// Lifetime rule: the slice must not outlive the buffer that was decoded —
/// for mmap-backed captures that buffer is the mapping (see MappedPcap in
/// pcap_mmap.h), and DESIGN.md §15 spells out who may hold slices when.
struct PcapPacketView {
  std::uint64_t ts_micros = 0;  // absolute time in microseconds
  std::span<const std::uint8_t> data;
};

/// A parsed capture whose packets alias the decoded buffer.
struct PcapFileView {
  std::uint32_t link_type = 1;  // DLT_EN10MB
  std::vector<PcapPacketView> packets;
};

/// Serializes packets into pcap bytes (little-endian, usec resolution).
std::vector<std::uint8_t> write_pcap(const PcapFile& file);

struct PcapDecodeOptions {
  /// Records claiming more than this many bytes are treated as corrupt
  /// length fields (quarantined, iteration stops — a broken length prefix
  /// makes the rest of the byte stream unaddressable).
  std::size_t max_record_bytes = 16 * 1024 * 1024;
  /// Retain slices of quarantined records in
  /// PcapViewDecodeResult::quarantined so they can be re-wrapped into a
  /// forensic capture (quarantine_capture()).
  bool keep_quarantined = false;
};

/// Outcome of a best-effort decode: the salvaged packets plus a precise
/// account of everything that was quarantined.  Packets and quarantined
/// records are spans into the decoded bytes.
struct PcapViewDecodeResult {
  PcapFileView file;
  /// One entry per quarantined fault, in input order.
  std::vector<dm::util::DecodeError> errors;
  /// Slices of quarantined records (only with keep_quarantined); the
  /// timestamp is the record's own if its header was readable.
  std::vector<PcapPacketView> quarantined;
  /// The capture ended mid-record: the salvaged prefix is complete but the
  /// final record was cut (a truncated tail must not discard the parsed
  /// prefix).
  bool truncated_tail = false;
  /// The global header was unusable (bad magic / too short): nothing could
  /// be decoded at all.
  bool fatal = false;
};

/// Best-effort zero-copy decode.  Never throws on malformed input; every
/// fault is appended to `errors` and (when given) counted in `faults`.  The
/// result aliases `bytes` (see PcapPacketView lifetime rule).  A first walk
/// over the record headers counts the records the decode keeps, so the
/// packet array is allocated once and its capacity equals its size.
PcapViewDecodeResult decode_pcap_view(std::span<const std::uint8_t> bytes,
                                      const PcapDecodeOptions& options = {},
                                      dm::util::FaultStats* faults = nullptr);

/// Copies the quarantined records of a decode into a capture of their own
/// (forensic dump; write with write_pcap / write_pcap_file).  The copy
/// owns its bytes, so it outlives the decoded buffer.
PcapFile quarantine_capture(const PcapViewDecodeResult& result);

/// Writes `file` to `path`.  Throws std::runtime_error on I/O error.
void write_pcap_file(const std::string& path, const PcapFile& file);

}  // namespace dm::net
