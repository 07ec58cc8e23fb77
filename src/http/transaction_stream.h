// End-to-end extraction: pcap bytes -> TCP reassembly -> HTTP parsing ->
// time-ordered transaction stream.  This is the entry point of the paper's
// Stage 1 pipeline ("Given a stream of HTTP transactions...").
//
// The whole path is fault-tolerant: undecodable frames, reassembly-cap
// drops and malformed HTTP messages are quarantined into the (optional)
// util::FaultStats while every salvageable transaction still comes out.
#pragma once

#include <string>
#include <vector>

#include "http/message.h"
#include "net/pcap.h"
#include "util/fault_stats.h"

namespace dm::http {

/// Reconstructs every HTTP transaction in a capture, ordered by request
/// timestamp.  Frames that do not decode as Ethernet/IPv4/TCP are skipped;
/// when `faults` is given each skip is counted (frame/undecodable-frame —
/// benign in mixed traffic, a corruption signal in TCP-only captures), as
/// are TCP- and HTTP-layer quarantine events.
std::vector<HttpTransaction> transactions_from_pcap(
    const dm::net::PcapFile& capture, dm::util::FaultStats* faults = nullptr);

/// Zero-copy overload: identical reconstruction over packet views.  Packet
/// bytes are first copied when their flow is reassembled; flows are
/// reassembled and parsed one at a time, so at most one flow's bytes are
/// held beside the transactions built so far.  The returned transactions
/// own all of their strings — nothing in them aliases the capture's
/// buffer, so the backing mapping may be dropped as soon as this returns.
std::vector<HttpTransaction> transactions_from_pcap(
    const dm::net::PcapFileView& capture,
    dm::util::FaultStats* faults = nullptr);

/// Reconstructs every HTTP transaction in a capture file.  The file is
/// mapped (or read, when it cannot be mapped: see MappedFile), decoded as
/// views in place, reconstructed, and released before this returns
/// (DESIGN.md §15 lifetime rule).  Throws std::runtime_error on an I/O
/// error, and on an unusable global header when `faults` is null; with
/// `faults`, that header is counted and the stream is empty.  Every other
/// decode fault is quarantined.
std::vector<HttpTransaction> transactions_from_pcap_file(
    const std::string& path, dm::util::FaultStats* faults = nullptr);

}  // namespace dm::http
