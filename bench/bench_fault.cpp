// Fault-path overhead benchmark (google-benchmark): what does quarantine
// cost?  Three questions:
//
//  1. Clean-path tax: pcap decode + full Stage-1 reconstruction of a clean
//     capture, before vs after the structured-error rework — the fault
//     plumbing (per-record checks, FaultStats pointer threading) must be
//     invisible on clean traffic.  Compare BM_DecodeClean/BM_ReconstructClean
//     against the seed's bench_micro numbers.
//  2. Corruption overhead: the same capture with injected faults — each
//     quarantine event is a counter bump plus a rate-limited log line, so
//     corrupted traffic must decode at nearly clean-traffic speed.
//  3. Counter cost: FaultStats::record in a hot loop (the per-event price
//     every quarantine site pays).
#include <benchmark/benchmark.h>

#include <vector>

#include "../tests/fault_inject.h"
#include "http/transaction_stream.h"
#include "net/pcap.h"
#include "synth/pcap_export.h"
#include "util/fault_stats.h"
#include "util/rng.h"

namespace {

const std::vector<std::uint8_t>& clean_bytes() {
  static const auto bytes = [] {
    dm::synth::TraceGenerator gen(4242);
    dm::net::PcapFile capture;
    for (int i = 0; i < 24; ++i) {
      auto episode = gen.benign();
      auto pcap = dm::synth::episode_to_pcap(episode);
      for (auto& pkt : pcap.packets) capture.packets.push_back(std::move(pkt));
    }
    return dm::net::write_pcap(capture);
  }();
  return bytes;
}

/// Clean capture with ~1% of its payload bytes corrupted plus a truncated
/// tail — the "hostile capture" workload.  Payload-only corruption keeps the
/// record framing intact so the decoder walks the *whole* capture and the
/// damage exercises the frame/TCP/HTTP quarantine paths; corrupting record
/// headers would just truncate the capture at the first bad length and make
/// the "corrupted" benchmark measure an 8 KB prefix.
const std::vector<std::uint8_t>& corrupted_bytes() {
  static const auto bytes = [] {
    auto mutated = clean_bytes();
    dm::util::Rng rng(99);
    dm::faultinject::corrupt_payload_bytes(mutated, mutated.size() / 100, rng);
    dm::faultinject::truncate_final_record(mutated, rng);
    return mutated;
  }();
  return bytes;
}

void BM_DecodeClean(benchmark::State& state) {
  const auto& bytes = clean_bytes();
  for (auto _ : state) {
    const auto result = dm::net::decode_pcap_view(bytes);
    benchmark::DoNotOptimize(result.file.packets.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeClean)->Unit(benchmark::kMillisecond);

void BM_DecodeCorrupted(benchmark::State& state) {
  const auto& bytes = corrupted_bytes();
  std::uint64_t quarantined = 0;
  for (auto _ : state) {
    dm::util::FaultStats faults;
    const auto result = dm::net::decode_pcap_view(bytes, {}, &faults);
    benchmark::DoNotOptimize(result.file.packets.size());
    quarantined = faults.total();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
  state.counters["faults"] = static_cast<double>(quarantined);
}
BENCHMARK(BM_DecodeCorrupted)->Unit(benchmark::kMillisecond);

void BM_ReconstructClean(benchmark::State& state) {
  const auto decoded = dm::net::decode_pcap_view(clean_bytes());
  for (auto _ : state) {
    const auto txns = dm::http::transactions_from_pcap(decoded.file);
    benchmark::DoNotOptimize(txns.size());
  }
}
BENCHMARK(BM_ReconstructClean)->Unit(benchmark::kMillisecond);

void BM_ReconstructCorrupted(benchmark::State& state) {
  // Frame-level damage on top of the byte-level damage: undecodable
  // ethertypes and overlapping segments exercise the TCP/HTTP quarantine
  // paths, not just the pcap one.
  auto capture = dm::faultinject::owning_copy(
      dm::net::decode_pcap_view(corrupted_bytes()).file);
  dm::util::Rng rng(7);
  dm::faultinject::garble_ethertype(capture, 32, rng);
  dm::faultinject::overlap_segments(capture, 32, rng);
  std::uint64_t quarantined = 0;
  for (auto _ : state) {
    dm::util::FaultStats faults;
    const auto txns = dm::http::transactions_from_pcap(capture, &faults);
    benchmark::DoNotOptimize(txns.size());
    quarantined = faults.total();
  }
  state.counters["faults"] = static_cast<double>(quarantined);
}
BENCHMARK(BM_ReconstructCorrupted)->Unit(benchmark::kMillisecond);

void BM_FaultStatsRecord(benchmark::State& state) {
  dm::util::FaultStats stats;
  for (auto _ : state) {
    stats.record(dm::util::DecodeErrorCode::kHttpBadChunk);
  }
  benchmark::DoNotOptimize(stats.total());
}
BENCHMARK(BM_FaultStatsRecord);

}  // namespace

BENCHMARK_MAIN();
