// Micro-benchmarks (google-benchmark): throughput/latency of the pipeline
// stages — pcap parsing, TCP reassembly + HTTP reconstruction, WCG
// construction, feature extraction (including the graph-metrics sweep), and
// ERF prediction.  These bound the per-transaction cost of on-the-wire
// deployment (§V-B).  BM_LoadForest and BM_ShardedEngineStart time the two
// parts of engine set-up: parsing the shipped model, and starting a 3-shard
// engine on it.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "core/detector.h"
#include "core/trainer.h"
#include "core/wcg_builder.h"
#include "graph/metrics.h"
#include "http/transaction_stream.h"
#include "ml/serialization.h"
#include "runtime/sharded_online.h"
#include "synth/dataset.h"
#include "synth/pcap_export.h"

namespace {

using dm::synth::TraceGenerator;

const dm::synth::Episode& sample_infection() {
  static const dm::synth::Episode episode = [] {
    TraceGenerator gen(7);
    return gen.infection(dm::synth::family_by_name("Angler"));
  }();
  return episode;
}

const dm::net::PcapFile& sample_capture() {
  static const dm::net::PcapFile capture =
      dm::synth::episode_to_pcap(sample_infection());
  return capture;
}

void BM_PcapSerialize(benchmark::State& state) {
  const auto& capture = sample_capture();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto out = dm::net::write_pcap(capture);
    bytes += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PcapSerialize);

void BM_PcapParse(benchmark::State& state) {
  const auto bytes = dm::net::write_pcap(sample_capture());
  std::size_t processed = 0;
  for (auto _ : state) {
    const auto parsed = dm::net::decode_pcap_view(bytes);
    processed += bytes.size();
    benchmark::DoNotOptimize(parsed.file.packets.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(processed));
}
BENCHMARK(BM_PcapParse);

void BM_TcpHttpReconstruction(benchmark::State& state) {
  const auto& capture = sample_capture();
  for (auto _ : state) {
    const auto txns = dm::http::transactions_from_pcap(capture);
    benchmark::DoNotOptimize(txns.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(sample_infection().transactions.size()));
}
BENCHMARK(BM_TcpHttpReconstruction);

void BM_WcgBuild(benchmark::State& state) {
  const auto& episode = sample_infection();
  for (auto _ : state) {
    const auto wcg = dm::core::build_wcg(episode.transactions);
    benchmark::DoNotOptimize(&wcg);
  }
}
BENCHMARK(BM_WcgBuild);

void BM_FeatureExtraction(benchmark::State& state) {
  const auto wcg = dm::core::build_wcg(sample_infection().transactions);
  for (auto _ : state) {
    const auto features = dm::core::extract_features(wcg);
    benchmark::DoNotOptimize(features.data());
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_GraphMetricsBySize(benchmark::State& state) {
  // Chain-plus-chords graph of n nodes, the worst realistic WCG shape.
  const auto n = static_cast<std::size_t>(state.range(0));
  dm::graph::Digraph g(n);
  for (dm::graph::NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  for (dm::graph::NodeId v = 0; v + 5 < n; v += 5) g.add_edge(v, v + 5);
  for (auto _ : state) {
    const auto metrics = dm::graph::compute_metrics(g);
    benchmark::DoNotOptimize(&metrics);
  }
}
BENCHMARK(BM_GraphMetricsBySize)->Arg(8)->Arg(32)->Arg(128)->Arg(404);

void BM_ErfPredict(benchmark::State& state) {
  static const dm::core::Detector detector = [] {
    const auto gt = dm::synth::generate_ground_truth(11, 0.05);
    std::vector<dm::core::Wcg> infections;
    std::vector<dm::core::Wcg> benign;
    for (const auto& e : gt.infections) {
      infections.push_back(dm::core::build_wcg(e.transactions));
    }
    for (const auto& e : gt.benign) {
      benign.push_back(dm::core::build_wcg(e.transactions));
    }
    return dm::core::Detector(dm::core::train_dynaminer(
        dm::core::dataset_from_wcgs(infections, benign), 11));
  }();
  const auto features =
      dm::core::extract_features(dm::core::build_wcg(sample_infection().transactions));
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.flat_forest().predict_proba(features));
  }
}
BENCHMARK(BM_ErfPredict);

void BM_EndToEndEpisodeScore(benchmark::State& state) {
  // Full Stage-1 path for one episode: transactions -> WCG -> features.
  const auto& episode = sample_infection();
  for (auto _ : state) {
    const auto wcg = dm::core::build_wcg(episode.transactions);
    const auto features = dm::core::extract_features(wcg);
    benchmark::DoNotOptimize(features.data());
  }
}
BENCHMARK(BM_EndToEndEpisodeScore);

void BM_LoadForest(benchmark::State& state) {
  for (auto _ : state) {
    const auto forest = dm::ml::load_forest_file(DM_SHIPPED_MODEL);
    benchmark::DoNotOptimize(forest.trees().data());
  }
}
BENCHMARK(BM_LoadForest);

void BM_ShardedEngineStart(benchmark::State& state) {
  // pipebench's set-up minus the model parse: compile the loaded forest and
  // start three shard workers.  The forest is copied into each Detector
  // (pipebench moves it); joining the workers is left out of the time.
  const auto forest = dm::ml::load_forest_file(DM_SHIPPED_MODEL);
  dm::runtime::ShardedOptions options;
  options.num_shards = 3;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto engine = std::make_unique<dm::runtime::ShardedOnlineEngine>(
        std::make_shared<const dm::core::Detector>(forest), options);
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    engine.reset();
  }
}
BENCHMARK(BM_ShardedEngineStart)->UseManualTime();

}  // namespace

BENCHMARK_MAIN();
