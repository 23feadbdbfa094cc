#include "obs/exposition.h"

#include <cstdio>

namespace gemrec::obs {
namespace {

void AppendU64(uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out->append(buf);
}

void AppendI64(int64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out->append(buf);
}

void RenderHistogram(const MetricValue& m, std::string* out) {
  const HistogramData& h = m.histogram;
  // Highest nonzero bucket bounds the series; a fully-empty histogram
  // still emits the +Inf bucket so scrapers see a well-formed series.
  uint32_t last = 0;
  for (uint32_t i = 0; i < kHistogramBuckets; ++i) {
    if (h.buckets[i] != 0) last = i;
  }
  uint64_t cumulative = 0;
  for (uint32_t i = 0; i <= last && h.count > 0; ++i) {
    cumulative += h.buckets[i];
    out->append(m.name);
    out->append("_bucket{le=\"");
    AppendU64(HistogramBucketUpperBound(i), out);
    out->append("\"} ");
    AppendU64(cumulative, out);
    out->push_back('\n');
  }
  out->append(m.name);
  out->append("_bucket{le=\"+Inf\"} ");
  AppendU64(h.count, out);
  out->push_back('\n');
  out->append(m.name);
  out->append("_sum ");
  AppendU64(h.sum, out);
  out->push_back('\n');
  out->append(m.name);
  out->append("_count ");
  AppendU64(h.count, out);
  out->push_back('\n');
}

}  // namespace

std::string RenderText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricValue& m : snapshot.metrics) {
    if (!m.help.empty()) {
      out.append("# HELP ");
      out.append(m.name);
      out.push_back(' ');
      out.append(m.help);
      out.push_back('\n');
    }
    out.append("# TYPE ");
    out.append(m.name);
    out.push_back(' ');
    out.append(MetricTypeName(m.type));
    out.push_back('\n');
    switch (m.type) {
      case MetricType::kCounter:
        out.append(m.name);
        out.push_back(' ');
        AppendU64(m.counter, &out);
        out.push_back('\n');
        break;
      case MetricType::kGauge:
        out.append(m.name);
        out.push_back(' ');
        AppendI64(m.gauge, &out);
        out.push_back('\n');
        break;
      case MetricType::kHistogram:
        RenderHistogram(m, &out);
        break;
    }
  }
  return out;
}

}  // namespace gemrec::obs
