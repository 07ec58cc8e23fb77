#include "runtime/parallel_ingest.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "http/transaction_stream.h"
#include "obs/pipeline.h"
#include "obs/timer.h"
#include "runtime/worker_pool.h"
#include "util/log.h"

namespace dm::runtime {
namespace {

IngestResult run_engine(std::vector<dm::http::HttpTransaction> stream,
                        std::shared_ptr<const dm::core::Detector> detector,
                        const ShardedOptions& options) {
  IngestResult result;
  result.transactions = stream.size();
  ShardedOnlineEngine engine(std::move(detector), options);
  for (auto& txn : stream) {
    engine.observe(std::move(txn));
  }
  engine.finish();
  result.alerts = engine.merged_alerts();
  result.online = engine.aggregated_stats();
  result.runtime = engine.runtime_stats();
  return result;
}

}  // namespace

IngestResult detect_transactions(
    std::vector<dm::http::HttpTransaction> stream,
    std::shared_ptr<const dm::core::Detector> detector,
    const ShardedOptions& options) {
  return run_engine(std::move(stream), std::move(detector), options);
}

IngestResult detect_pcap(const dm::net::PcapFile& capture,
                         std::shared_ptr<const dm::core::Detector> detector,
                         const ShardedOptions& options) {
  dm::util::FaultStats faults;
  IngestResult result = run_engine(
      dm::http::transactions_from_pcap(capture, &faults), std::move(detector),
      options);
  result.faults = faults.snapshot();
  dm::obs::record_fault_counts(result.faults);
  return result;
}

IngestResult detect_pcap_files(
    const std::vector<std::string>& paths,
    std::shared_ptr<const dm::core::Detector> detector,
    const IngestOptions& options) {
  // Stage-1 reconstruction fan-out: one task per capture file.  Each slot is
  // written by exactly one task and read only after drain(), so the vector
  // needs no lock.
  std::vector<std::vector<dm::http::HttpTransaction>> per_file(paths.size());
  std::vector<std::string> errors(paths.size());
  // One FaultStats shared by every reconstruction task — its counters are
  // atomics, so the fan-out needs no extra synchronization.
  dm::util::FaultStats faults;
  {
    WorkerPool pool({options.ingest_workers, /*queue_capacity=*/64});
    for (std::size_t i = 0; i < paths.size(); ++i) {
      pool.submit([&, i] {
        auto span = dm::obs::StageTimer{}.span(
            dm::obs::pipeline_metrics().ingest_reconstruct_ns);
        try {
          // Zero-copy reconstruction: each task maps its capture, decodes
          // views in place, and drops the mapping with the task — only the
          // owned transactions cross into the merge.
          per_file[i] = dm::http::transactions_from_pcap_file(paths[i], &faults);
        } catch (const std::exception& e) {
          errors[i] = e.what();
          span.cancel();  // I/O failure, not a reconstruction latency
        }
      });
    }
    pool.drain();
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!errors[i].empty()) {
      throw std::runtime_error("detect_pcap_files: " + paths[i] + ": " +
                               errors[i]);
    }
  }

  std::size_t total = 0;
  for (const auto& txns : per_file) total += txns.size();
  std::vector<dm::http::HttpTransaction> merged;
  merged.reserve(total);
  for (auto& txns : per_file) {
    merged.insert(merged.end(), std::make_move_iterator(txns.begin()),
                  std::make_move_iterator(txns.end()));
  }
  // Each per-file stream is already request-time ordered; a global stable
  // sort re-establishes one wire ordering across captures.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const dm::http::HttpTransaction& a,
                      const dm::http::HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  dm::util::log_info("parallel ingest: ", paths.size(), " captures -> ",
                     merged.size(), " transactions");
  IngestResult result =
      run_engine(std::move(merged), std::move(detector), options.sharded);
  result.faults = faults.snapshot();
  dm::obs::record_fault_counts(result.faults);
  if (result.faults.total() > 0) {
    dm::util::log_warn("parallel ingest: quarantined decode faults: ",
                       result.faults.summary());
  }
  return result;
}

}  // namespace dm::runtime
