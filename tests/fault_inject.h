// Deterministic fault injectors for the robustness suite.  Every mutator
// takes an explicit util::Rng (or is fully deterministic) and returns the
// number of faults it injected, so tests can assert quarantine accounting
// exactly: counters must equal injected counts, not merely be non-zero.
//
// Two families:
//  * byte-level mutators over serialized pcap bytes (pcap-layer faults:
//    corruption, truncation, broken length prefixes, cut record headers),
//  * frame-level mutators over an owning net::PcapFile (frame/TCP-layer
//    faults: undecodable ethertype, duplicate and overlapping segments,
//    record reorder, mid-stream EOF).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "net/pcap.h"
#include "util/rng.h"

namespace dm::faultinject {

// ---------------------------------------------------------------------------
// Byte-level mutators (operate on write_pcap() output: LE, usec magic).
// ---------------------------------------------------------------------------

struct RecordSpan {
  std::size_t header_offset = 0;  // offset of the 16-byte record header
  std::size_t incl_len = 0;       // captured payload length
};

/// Walks the record headers of a well-formed little-endian capture.
inline std::vector<RecordSpan> pcap_records(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<RecordSpan> records;
  std::size_t at = 24;  // global header
  while (at + 16 <= bytes.size()) {
    const std::size_t incl_len =
        static_cast<std::size_t>(bytes[at + 8]) |
        static_cast<std::size_t>(bytes[at + 9]) << 8 |
        static_cast<std::size_t>(bytes[at + 10]) << 16 |
        static_cast<std::size_t>(bytes[at + 11]) << 24;
    if (at + 16 + incl_len > bytes.size()) break;
    records.push_back({at, incl_len});
    at += 16 + incl_len;
  }
  return records;
}

/// Flips `count` random bytes anywhere past the global header.  Returns the
/// number of bytes flipped (faults *injected*, not faults that will be
/// *detected* — random body corruption may land in payload bytes the pcap
/// layer has no checksum to notice).
inline std::size_t corrupt_random_bytes(std::vector<std::uint8_t>& bytes,
                                        std::size_t count, dm::util::Rng& rng) {
  if (bytes.size() <= 24) return 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(24, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[at] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
  }
  return count;
}

/// Flips `count` random bytes inside record *payloads* only — pcap framing
/// stays intact, so the whole capture still iterates and the damage lands
/// in the frame/TCP/HTTP layers.  Returns the number of bytes flipped.
inline std::size_t corrupt_payload_bytes(std::vector<std::uint8_t>& bytes,
                                         std::size_t count,
                                         dm::util::Rng& rng) {
  const auto records = pcap_records(bytes);
  std::vector<RecordSpan> with_payload;
  for (const auto& r : records) {
    if (r.incl_len > 0) with_payload.push_back(r);
  }
  if (with_payload.empty()) return 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& r = with_payload[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(with_payload.size()) - 1))];
    const auto at = r.header_offset + 16 +
                    static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<std::int64_t>(r.incl_len) - 1));
    bytes[at] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
  }
  return count;
}

/// Cuts the capture mid-way through the final record's payload: the decoder
/// must salvage every earlier record and flag exactly one truncated-record
/// fault.  Returns 1 (faults injected) or 0 if the capture has no record
/// with a non-empty payload to cut.
inline std::size_t truncate_final_record(std::vector<std::uint8_t>& bytes,
                                         dm::util::Rng& rng) {
  const auto records = pcap_records(bytes);
  if (records.empty() || records.back().incl_len == 0) return 0;
  const RecordSpan& last = records.back();
  // Keep the full 16-byte header plus [0, incl_len) payload bytes.
  const auto keep = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(last.incl_len) - 1));
  bytes.resize(last.header_offset + 16 + keep);
  return 1;
}

/// Overwrites the incl_len of record `index` with an absurd value — a broken
/// length prefix makes everything after it unaddressable, so the decoder
/// must quarantine one oversized-record fault and stop.  Returns 1, or 0 if
/// there is no such record.
inline std::size_t oversize_record_length(std::vector<std::uint8_t>& bytes,
                                          std::size_t index) {
  const auto records = pcap_records(bytes);
  if (index >= records.size()) return 0;
  const std::size_t at = records[index].header_offset + 8;
  bytes[at] = 0xff;
  bytes[at + 1] = 0xff;
  bytes[at + 2] = 0xff;
  bytes[at + 3] = 0x7f;  // 0x7fffffff, far over any sane record cap
  return 1;
}

/// Appends 1..15 junk bytes after the last record — a record header cut
/// mid-write.  Returns 1 (one truncated-record fault expected).
inline std::size_t cut_record_header(std::vector<std::uint8_t>& bytes,
                                     dm::util::Rng& rng) {
  const auto junk = static_cast<std::size_t>(rng.uniform_int(1, 15));
  for (std::size_t i = 0; i < junk; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  return 1;
}

// ---------------------------------------------------------------------------
// Frame-level mutators (operate on a decoded capture).
// ---------------------------------------------------------------------------

/// An owning copy of decoded packets, for the frame-level mutators below to
/// edit (decode_pcap_view's packets are read-only slices of its input).
inline dm::net::PcapFile owning_copy(const dm::net::PcapFileView& view) {
  dm::net::PcapFile capture;
  capture.link_type = view.link_type;
  capture.packets.reserve(view.packets.size());
  for (const auto& pkt : view.packets) {
    capture.packets.push_back(
        {pkt.ts_micros, {pkt.data.begin(), pkt.data.end()}});
  }
  return capture;
}

/// Offset of the TCP sequence-number field inside an Ethernet/IPv4/TCP
/// frame, or 0 if the frame does not decode as one.
inline std::size_t tcp_seq_offset(const std::vector<std::uint8_t>& frame) {
  if (!dm::net::parse_ethernet_ipv4_tcp(frame)) return 0;
  const std::size_t ihl = static_cast<std::size_t>(frame[14] & 0x0f) * 4;
  return 14 + ihl + 4;
}

/// Indices of frames carrying at least `min_payload` TCP payload bytes.
inline std::vector<std::size_t> data_frame_indices(
    const dm::net::PcapFile& capture, std::size_t min_payload = 1) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < capture.packets.size(); ++i) {
    const auto parsed =
        dm::net::parse_ethernet_ipv4_tcp(capture.packets[i].data);
    if (parsed && parsed->payload.size() >= min_payload) indices.push_back(i);
  }
  return indices;
}

/// Garbles the ethertype of `count` distinct TCP data frames so they no
/// longer decode.  Returns the number of frames garbled — each must show up
/// as exactly one frame/undecodable-frame quarantine.
inline std::size_t garble_ethertype(dm::net::PcapFile& capture,
                                    std::size_t count, dm::util::Rng& rng) {
  auto candidates = data_frame_indices(capture);
  rng.shuffle(candidates);
  const std::size_t n = std::min(count, candidates.size());
  for (std::size_t i = 0; i < n; ++i) {
    auto& frame = capture.packets[candidates[i]].data;
    frame[12] = 0xde;  // not 0x0800: parse_ethernet_ipv4_tcp rejects it
    frame[13] = 0xad;
  }
  return n;
}

/// Duplicates `count` random data frames in place (each copy inserted right
/// after its original — a classic TCP retransmission).  Structure-
/// preserving: reassembly must drop every copy as a pure duplicate, so the
/// transaction stream is identical to the clean capture.  Returns the number
/// of duplicates inserted.
inline std::size_t duplicate_segments(dm::net::PcapFile& capture,
                                      std::size_t count, dm::util::Rng& rng) {
  auto candidates = data_frame_indices(capture);
  if (candidates.empty()) return 0;
  rng.shuffle(candidates);
  const std::size_t n = std::min(count, candidates.size());
  // Insert from the highest index down so earlier indices stay valid.
  std::vector<std::size_t> chosen(candidates.begin(), candidates.begin() + n);
  std::sort(chosen.rbegin(), chosen.rend());
  for (const std::size_t at : chosen) {
    capture.packets.insert(
        capture.packets.begin() + static_cast<std::ptrdiff_t>(at) + 1,
        capture.packets[at]);
  }
  return n;
}

/// Inserts, after `count` random data frames, a copy whose sequence number
/// is shifted forward by half the payload — an overlapping segment whose
/// front half re-sends delivered bytes and whose tail injects garbage.
/// Corrupting by design: downstream layers must quarantine, not crash.
/// Returns the number of overlapping segments inserted (reassembly counts at
/// least this many overlaps; follow-on trims may add more).
inline std::size_t overlap_segments(dm::net::PcapFile& capture,
                                    std::size_t count, dm::util::Rng& rng) {
  auto candidates = data_frame_indices(capture, /*min_payload=*/2);
  if (candidates.empty()) return 0;
  rng.shuffle(candidates);
  const std::size_t n = std::min(count, candidates.size());
  std::vector<std::size_t> chosen(candidates.begin(), candidates.begin() + n);
  std::sort(chosen.rbegin(), chosen.rend());
  for (const std::size_t at : chosen) {
    auto copy = capture.packets[at];
    const auto parsed = dm::net::parse_ethernet_ipv4_tcp(copy.data);
    const std::size_t seq_at = tcp_seq_offset(copy.data);
    const std::uint32_t shift =
        static_cast<std::uint32_t>(parsed->payload.size() / 2);
    const std::uint32_t seq = parsed->seq + shift;
    copy.data[seq_at] = static_cast<std::uint8_t>(seq >> 24);
    copy.data[seq_at + 1] = static_cast<std::uint8_t>(seq >> 16);
    copy.data[seq_at + 2] = static_cast<std::uint8_t>(seq >> 8);
    copy.data[seq_at + 3] = static_cast<std::uint8_t>(seq);
    capture.packets.insert(
        capture.packets.begin() + static_cast<std::ptrdiff_t>(at) + 1,
        std::move(copy));
  }
  return n;
}

/// Shuffles the record order of the capture (timestamps untouched).  TCP
/// reassembly sequences by seq number, so the transaction *set* must
/// survive; nothing may crash.
inline void reorder_records(dm::net::PcapFile& capture, dm::util::Rng& rng) {
  rng.shuffle(capture.packets);
}

/// Drops the trailing `fraction` of records — every connection still open at
/// the cut sees a mid-stream EOF.  Returns the number of records dropped.
inline std::size_t drop_tail(dm::net::PcapFile& capture, double fraction) {
  const auto keep = static_cast<std::size_t>(
      static_cast<double>(capture.packets.size()) * (1.0 - fraction));
  const std::size_t dropped = capture.packets.size() - keep;
  capture.packets.resize(keep);
  return dropped;
}

}  // namespace dm::faultinject
