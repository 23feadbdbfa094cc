#ifndef GEMREC_TESTS_TESTING_METRICS_H_
#define GEMREC_TESTS_TESTING_METRICS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace gemrec::testing {

/// Value of counter `name` in `snapshot`; 0 when it is absent.
inline uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                             std::string_view name) {
  const obs::MetricValue* metric = snapshot.Find(name);
  return metric == nullptr ? 0 : metric->counter;
}

inline uint64_t CounterValue(const obs::MetricsRegistry& registry,
                             std::string_view name) {
  return CounterValue(registry.Snapshot(), name);
}

/// Ingest records acknowledged so far, applied or refused: what the
/// ingestion queue's Flush waits on.
inline uint64_t IngestProcessed(const obs::MetricsSnapshot& snapshot) {
  return CounterValue(snapshot, "gemrec_ingest_applied_total") +
         CounterValue(snapshot, "gemrec_ingest_rejected_total");
}

/// The network front-end's counter gemrec_net_<name>_total.
inline uint64_t NetCounter(const obs::MetricsSnapshot& snapshot,
                           std::string_view name) {
  return CounterValue(snapshot,
                      "gemrec_net_" + std::string(name) + "_total");
}

/// Value of gauge `name` in `snapshot`; 0 when it is absent.
inline int64_t GaugeValue(const obs::MetricsSnapshot& snapshot,
                          std::string_view name) {
  const obs::MetricValue* metric = snapshot.Find(name);
  return metric == nullptr ? 0 : metric->gauge;
}

}  // namespace gemrec::testing

#endif  // GEMREC_TESTS_TESTING_METRICS_H_
