// net::Client's non-blocking send: against a peer that reads nothing,
// SendNonBlocking returns at once and keeps exactly the bytes the
// socket did not take; flushing them as the peer reads delivers the
// whole stream, in order and byte for byte. The shard coordinator
// sends every fan-out this way, on the submitting reactor.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"

namespace gemrec::net {
namespace {

using Clock = std::chrono::steady_clock;

/// A loopback listener with a small receive buffer; Accept hands out
/// the peer end, which the test reads (or not) itself.
class Peer {
 public:
  Peer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    // Inherited by the accepted socket, and it fixes the window: no
    // receive-buffer autotuning.
    const int rcvbuf = 4096;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(0, ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len));
    EXPECT_EQ(0, ::listen(listen_fd_, 1));
    EXPECT_EQ(0, ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                               &len));
    port_ = ntohs(addr.sin_port);
  }
  ~Peer() {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }
  void Accept() { conn_fd_ = ::accept(listen_fd_, nullptr, nullptr); }

  /// Reads until nothing more arrives for `quiet`.
  void ReadUntilQuiet(std::chrono::milliseconds quiet) {
    uint8_t buf[64 * 1024];
    while (true) {
      pollfd p{conn_fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(quiet.count())) <= 0) return;
      const ssize_t r = ::recv(conn_fd_, buf, sizeof(buf), 0);
      if (r <= 0) return;
      received_.insert(received_.end(), buf, buf + r);
    }
  }

  const std::vector<uint8_t>& received() const { return received_; }

 private:
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<uint8_t> received_;
};

TEST(ClientSendTest, PartialWriteKeepsTheExactRemainder) {
  Peer peer;
  auto connected = Client::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client& client = *connected.value();
  peer.Accept();

  // Far more than a loopback socket pair buffers with a 4 KiB receive
  // window (the send buffer grows to at most 4 MiB by default).
  constexpr size_t kBytes = 16u << 20;
  std::vector<uint8_t> stream(kBytes);
  for (size_t i = 0; i < kBytes; ++i) {
    stream[i] = static_cast<uint8_t>((i * 131 + i / 251) & 0xff);
  }
  // Two calls: the second one lands behind a remainder and only queues.
  const size_t half = kBytes / 2;
  const auto start = Clock::now();
  ASSERT_TRUE(client.SendNonBlocking(stream.data(), half).ok());
  const size_t after_first = client.queued();
  ASSERT_TRUE(client.SendNonBlocking(stream.data() + half, kBytes - half)
                  .ok());
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
  ASSERT_GT(after_first, 0u) << "the socket took all of the first half";
  EXPECT_EQ(client.queued(), after_first + (kBytes - half));
  ASSERT_LT(client.queued(), kBytes) << "the socket took nothing";

  // Everything the socket took reaches the peer; the remainder is the
  // exact tail of the stream.
  peer.ReadUntilQuiet(std::chrono::milliseconds(200));
  const std::vector<uint8_t>& got = peer.received();
  ASSERT_EQ(got.size() + client.queued(), kBytes);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), stream.begin()));

  // Flushing as the peer reads delivers the rest, in order.
  const auto until = Clock::now() + std::chrono::seconds(30);
  while (client.queued() > 0 && Clock::now() < until) {
    ASSERT_TRUE(client.FlushQueued().ok());
    peer.ReadUntilQuiet(std::chrono::milliseconds(5));
  }
  peer.ReadUntilQuiet(std::chrono::milliseconds(200));
  EXPECT_EQ(client.queued(), 0u);
  ASSERT_EQ(peer.received().size(), kBytes);
  EXPECT_TRUE(peer.received() == stream);
}

TEST(ClientSendTest, SendToAClosedPeerFails) {
  auto peer = std::make_unique<Peer>();
  auto connected = Client::Connect("127.0.0.1", peer->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client& client = *connected.value();
  peer->Accept();
  peer.reset();
  // The first bytes may still be taken; the peer's reset makes a later
  // send fail.
  const uint8_t byte = 1;
  Status status = Status::Ok();
  for (int i = 0; i < 100 && status.ok(); ++i) {
    status = client.SendNonBlocking(&byte, 1);
    if (status.ok()) status = client.FlushQueued();
    ::usleep(1000);
  }
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace gemrec::net
