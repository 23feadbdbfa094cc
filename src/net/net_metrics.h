#ifndef GEMREC_NET_NET_METRICS_H_
#define GEMREC_NET_NET_METRICS_H_

#include <cstdint>

#include "obs/metrics.h"

namespace gemrec::net::internal {

/// Registry-backed metric handles of the network front-end: reactor
/// threads and service workers bump these concurrently with readers
/// snapshotting them. Registered into the owning backend's registry
/// (QueryBackend::metrics()), so one stats scrape covers the whole
/// serve stack; re-registration (a second server over the same
/// service) re-attaches to the same metrics. All are monotonic
/// counters except the active_connections gauge.
struct NetMetrics {
  obs::Counter* accepted = nullptr;
  obs::Counter* accept_errors = nullptr;
  obs::Counter* conn_limit_rejects = nullptr;
  obs::Gauge* active_connections = nullptr;
  obs::Counter* requests = nullptr;
  obs::Counter* responses = nullptr;
  obs::Counter* ingest_requests = nullptr;
  obs::Counter* ingest_acks = nullptr;
  obs::Counter* pings = nullptr;
  obs::Counter* stats_requests = nullptr;
  obs::Counter* overload_sheds = nullptr;
  obs::Counter* drain_rejects = nullptr;
  obs::Counter* bad_requests = nullptr;
  obs::Counter* protocol_errors = nullptr;
  obs::Counter* idle_timeouts = nullptr;
  obs::Counter* read_timeouts = nullptr;
  obs::Counter* slow_reader_disconnects = nullptr;
  obs::Counter* orphaned_responses = nullptr;
  obs::Counter* bytes_received = nullptr;
  obs::Counter* bytes_sent = nullptr;
  /// End-to-end server-side latency: query frame decoded -> response
  /// frame queued on the connection (covers service queue wait, the
  /// TA search and the completion hop back to the loop thread).
  obs::Histogram* round_trip_us = nullptr;

  void RegisterInto(obs::MetricsRegistry* registry) {
    accepted = registry->GetCounter("gemrec_net_accepted_total",
                                    "Connections accepted.");
    accept_errors = registry->GetCounter(
        "gemrec_net_accept_errors_total",
        "accept4 failures (EMFILE/ENFILE and other non-transient "
        "errors); the listener recovers via its reserved spare fd.");
    conn_limit_rejects = registry->GetCounter(
        "gemrec_net_conn_limit_rejects_total",
        "Connections refused because max_connections was reached.");
    active_connections =
        registry->GetGauge("gemrec_net_active_connections",
                           "Connections currently open.");
    requests = registry->GetCounter("gemrec_net_requests_total",
                                    "CRC-clean query frames decoded.");
    responses = registry->GetCounter(
        "gemrec_net_responses_total",
        "Query response frames queued for write.");
    ingest_requests = registry->GetCounter(
        "gemrec_net_ingest_requests_total",
        "Attendance/new-event frames received.");
    ingest_acks = registry->GetCounter(
        "gemrec_net_ingest_acks_total",
        "Ingest ack frames queued after a durable, applied write.");
    pings = registry->GetCounter("gemrec_net_pings_total",
                                 "Ping frames answered with a pong.");
    stats_requests = registry->GetCounter(
        "gemrec_net_stats_requests_total",
        "Stats frames answered with a metrics snapshot.");
    overload_sheds = registry->GetCounter(
        "gemrec_net_overload_sheds_total",
        "Requests shed with OVERLOADED by admission control.");
    drain_rejects = registry->GetCounter(
        "gemrec_net_drain_rejects_total",
        "Requests refused with SHUTTING_DOWN.");
    bad_requests = registry->GetCounter(
        "gemrec_net_bad_requests_total",
        "Decodable frames with bogus payloads.");
    protocol_errors = registry->GetCounter(
        "gemrec_net_protocol_errors_total",
        "Connections killed by a frame decode error.");
    idle_timeouts = registry->GetCounter(
        "gemrec_net_idle_timeouts_total",
        "Connections closed after silence past idle_timeout.");
    read_timeouts = registry->GetCounter(
        "gemrec_net_read_timeouts_total",
        "Connections closed with a partial frame past read_timeout.");
    slow_reader_disconnects = registry->GetCounter(
        "gemrec_net_slow_reader_disconnects_total",
        "Connections cut because their write buffer exceeded the "
        "cap.");
    orphaned_responses = registry->GetCounter(
        "gemrec_net_orphaned_responses_total",
        "Responses completed after their connection was gone.");
    bytes_received = registry->GetCounter("gemrec_net_bytes_received_total",
                                          "Bytes read from sockets.");
    bytes_sent = registry->GetCounter("gemrec_net_bytes_sent_total",
                                      "Bytes written to sockets.");
    round_trip_us = registry->GetHistogram(
        "gemrec_net_round_trip_us",
        "Microseconds from query frame decoded to response frame "
        "queued (server-side round trip).");
  }
};

}  // namespace gemrec::net::internal

#endif  // GEMREC_NET_NET_METRICS_H_
