// Pins the allocation-free empty drain of net::Client: ReceiveAny with
// a zero timeout that finds nothing buffered answers kTimeout without
// touching the heap (the shard coordinator makes that call on every
// readable shard event). Lives in its own test binary because it
// replaces the global allocator (testing/counting_allocator.h).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "../testing/counting_allocator.h"
#include "net/client.h"

namespace gemrec::net {
namespace {

/// A loopback listener on a kernel-assigned port that never writes.
class SilentServer {
 public:
  SilentServer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(0, ::bind(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)));
    EXPECT_EQ(0, ::listen(fd_, 1));
    socklen_t len = sizeof(addr);
    EXPECT_EQ(0, ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr),
                               &len));
    port_ = ntohs(addr.sin_port);
  }
  ~SilentServer() { ::close(fd_); }

  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

TEST(ClientAllocTest, EmptyZeroTimeoutDrainAllocatesNothing) {
  SilentServer server;
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Warm up: the first call may touch lazily built state.
  (*client)->ReceiveAny(std::chrono::milliseconds(0));

  const size_t before = ::gemrec::testing::Allocations();
  for (int i = 0; i < 100; ++i) {
    const auto reply = (*client)->ReceiveAny(std::chrono::milliseconds(0));
    ASSERT_FALSE(reply.ok());
    ASSERT_EQ(reply.status().code(), StatusCode::kTimeout);
  }
  EXPECT_EQ(::gemrec::testing::Allocations(), before);
}

TEST(ClientAllocTest, BoundedWaitStillNamesItsDeadline) {
  SilentServer server;
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto reply = (*client)->ReceiveAny(std::chrono::milliseconds(2));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  EXPECT_NE(reply.status().message().find("2ms"), std::string::npos)
      << reply.status().message();
}

}  // namespace
}  // namespace gemrec::net
