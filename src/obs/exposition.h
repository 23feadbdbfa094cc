#ifndef GEMREC_OBS_EXPOSITION_H_
#define GEMREC_OBS_EXPOSITION_H_

#include <string>

#include "obs/metrics.h"

namespace gemrec::obs {

/// Renders a snapshot in the Prometheus text exposition format, one
/// `name{label} value` line per sample, in registration order:
///
///   # HELP gemrec_service_queries_total Queries served.
///   # TYPE gemrec_service_queries_total counter
///   gemrec_service_queries_total 123
///   # TYPE gemrec_net_round_trip_us histogram
///   gemrec_net_round_trip_us_bucket{le="1"} 0
///   gemrec_net_round_trip_us_bucket{le="+Inf"} 9
///   gemrec_net_round_trip_us_sum 4031
///   gemrec_net_round_trip_us_count 9
///
/// Histogram buckets are cumulative (Prometheus `le` semantics) and
/// empty trailing buckets are elided; the `+Inf` bucket always closes
/// the series. The format is byte-locked by
/// tests/obs/exposition_test.cc — change it deliberately.
std::string RenderText(const MetricsSnapshot& snapshot);

}  // namespace gemrec::obs

#endif  // GEMREC_OBS_EXPOSITION_H_
