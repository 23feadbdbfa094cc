#include "net/event_loop.h"

#include <vector>

#include <gtest/gtest.h>

namespace gemrec::net {
namespace {

TEST(EventLoopTest, OneDrainClearsEveryWakeup) {
  EventLoop loop;
  std::vector<epoll_event> events;
  EXPECT_EQ(loop.Poll(0, &events), 0);
  for (int i = 0; i < 5; ++i) loop.Wakeup();
  ASSERT_EQ(loop.Poll(0, &events), 1);
  EXPECT_EQ(events[0].data.u64, EventLoop::kWakeupTag);
  loop.DrainWakeup();
  EXPECT_EQ(loop.Poll(0, &events), 0);
  // The channel still works after a drain, and a drain with nothing
  // pending is harmless.
  loop.Wakeup();
  EXPECT_EQ(loop.Poll(0, &events), 1);
  loop.DrainWakeup();
  loop.DrainWakeup();
  EXPECT_EQ(loop.Poll(0, &events), 0);
}

}  // namespace
}  // namespace gemrec::net
