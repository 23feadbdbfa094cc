#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "net/reactor.h"

namespace gemrec::net {
namespace {

constexpr int kListenBacklog = 512;

/// One nonblocking SO_REUSEPORT listener bound to `addr`. EADDRINUSE
/// is retried `retries` times, `delay` apart, so a restart over a
/// TIME_WAIT remnant succeeds.
Result<int> OpenListener(const sockaddr_in& addr, uint32_t retries,
                         std::chrono::milliseconds delay) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Set before bind, or the sibling reactors' binds to the same port
  // fail.
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    const Status s = Status::IoError(std::string("SO_REUSEPORT: ") +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  for (uint32_t attempt = 0;; ++attempt) {
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) == 0) {
      break;
    }
    char host[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
    const Status s = Status::IoError(
        std::string("bind ") + host + ":" +
        std::to_string(ntohs(addr.sin_port)) + ": " + std::strerror(errno));
    if (errno != EADDRINUSE || attempt >= retries) {
      ::close(fd);
      return s;
    }
    std::this_thread::sleep_for(delay);
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const Status s =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  return fd;
}

}  // namespace

Status ParseHostPort(const std::string& spec, std::string* host,
                     uint16_t* port) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 == spec.size()) {
    return Status::InvalidArgument("expected host:port, got '" + spec +
                                   "'");
  }
  *host = spec.substr(0, colon);
  if (host->empty()) *host = "127.0.0.1";
  // All-digits only: strtoul alone would skip leading whitespace and
  // accept a sign, quietly turning "host: 80" / "host:+80" into 80.
  for (size_t i = colon + 1; i < spec.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(spec[i]))) {
      return Status::InvalidArgument("invalid port in '" + spec + "'");
    }
  }
  char* end = nullptr;
  const unsigned long value =  // NOLINT(runtime/int)
      std::strtoul(spec.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || value > 65535) {
    return Status::InvalidArgument("invalid port in '" + spec + "'");
  }
  *port = static_cast<uint16_t>(value);
  return Status::Ok();
}

NetServer::NetServer(serving::QueryBackend* service,
                     const ServerOptions& options,
                     serving::IngestionQueue* ingest)
    : service_(service), ingest_(ingest), options_(options) {
  GEMREC_CHECK(service_ != nullptr);
  // One registry for the whole serve stack: socket metrics live next
  // to the service's own, so a single stats scrape sees both.
  metrics_.RegisterInto(service_->metrics());
  options_.num_reactors = std::max(1u, options_.num_reactors);
  options_.max_in_flight = std::max(1u, options_.max_in_flight);
  options_.max_service_saturation =
      std::max<size_t>(1, options_.max_service_saturation);
}

obs::MetricsRegistry* NetServer::metrics_registry() const {
  return service_->metrics();
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  GEMREC_CHECK(!started_) << "NetServer started twice";

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.listen_address.c_str(),
                  &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address '" +
                                   options_.listen_address + "'");
  }

  // Every reactor owns a SO_REUSEPORT listener on the same port; the
  // kernel load-balances accepts across them. The first socket resolves
  // a port-0 request, and its siblings bind the RESOLVED port.
  const uint32_t n = options_.num_reactors;
  std::vector<int> listen_fds;
  listen_fds.reserve(n);
  for (uint32_t r = 0; r < n; ++r) {
    // Ephemeral binds (port 0) cannot collide, and siblings share the
    // first listener's port by design: only a fixed port retries.
    const uint32_t retries =
        r == 0 && options_.port != 0 ? options_.bind_retries : 0;
    Result<int> fd =
        OpenListener(addr, retries, options_.bind_retry_delay);
    if (!fd.ok()) {
      for (const int open_fd : listen_fds) ::close(open_fd);
      return fd.status();
    }
    listen_fds.push_back(fd.value());
    if (r == 0) {
      sockaddr_in bound{};
      socklen_t bound_len = sizeof(bound);
      GEMREC_CHECK(::getsockname(listen_fds[0],
                                 reinterpret_cast<sockaddr*>(&bound),
                                 &bound_len) == 0);
      bound_port_ = ntohs(bound.sin_port);
      addr.sin_port = bound.sin_port;
    }
  }

  Reactor::Shared shared;
  shared.service = service_;
  shared.ingest = ingest_;
  shared.options = &options_;
  shared.metrics = &metrics_;
  shared.total_in_flight = &total_in_flight_;
  shared.total_connections = &total_connections_;
  reactors_.reserve(n);
  for (uint32_t r = 0; r < n; ++r) {
    reactors_.push_back(std::make_unique<Reactor>(r, shared));
  }
  service_->metrics()
      ->GetGauge("gemrec_net_reactors",
                 "Reactor (event-loop) threads of the network front-end.")
      ->Set(static_cast<int64_t>(n));
  for (uint32_t r = 0; r < n; ++r) reactors_[r]->Start(listen_fds[r]);
  started_ = true;
  return Status::Ok();
}

void NetServer::RequestDrain() {
  for (const auto& reactor : reactors_) reactor->RequestDrain();
}

void NetServer::NotifyDrainFromSignal() {
  // Only async-signal-safe operations: reactors_ is immutable after
  // Start, and each RequestDrain is a lock-free atomic store plus an
  // eventfd write.
  for (const auto& reactor : reactors_) reactor->RequestDrain();
}

void NetServer::WaitUntilStopped() {
  for (const auto& reactor : reactors_) reactor->WaitUntilStopped();
}

void NetServer::Stop() {
  if (!started_) return;
  RequestDrain();
  for (const auto& reactor : reactors_) reactor->Join();
}

bool NetServer::running() const {
  for (const auto& reactor : reactors_) {
    if (reactor->running()) return true;
  }
  return false;
}

}  // namespace gemrec::net
