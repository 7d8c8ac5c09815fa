// Edge cases of fault::RetryPolicy / retry_loop: attempt-budget
// boundaries and the scoped-timeline rewind under zero and extreme backoff.
#include <gtest/gtest.h>

#include "fault/retry.hpp"
#include "sim/clock.hpp"

namespace cgn::fault {
namespace {

TEST(RetryEdge, ZeroAttemptsStillRunsTheProbeOnce) {
  // attempts = 0 is a config error; the loop clamps it to one try so a
  // probe can never be silently skipped.
  RetryPolicy policy;
  policy.attempts = 0;
  int calls = 0;
  sim::Clock clock;
  EXPECT_FALSE(retry_loop(policy, &clock, [&] {
    ++calls;
    return false;
  }));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(clock.now(), 0.0);  // no backoff was scheduled

  calls = 0;
  EXPECT_TRUE(retry_loop(policy, &clock, [&] {
    ++calls;
    return true;
  }));
  EXPECT_EQ(calls, 1);
}

TEST(RetryEdge, ZeroBackoffRetriesLeaveTheClockUntouched) {
  RetryPolicy policy;
  policy.attempts = 4;
  policy.base_backoff_s = 0.0;
  sim::Clock clock;
  clock.set(55.5);
  int calls = 0;
  EXPECT_FALSE(retry_loop(policy, &clock, [&] {
    ++calls;
    return false;
  }));
  EXPECT_EQ(calls, 4);
  // Zero waits: now() never moved, and the closing rewind must cope with
  // rewinding to exactly the current time (not throw).
  EXPECT_EQ(clock.now(), 55.5);
}

TEST(RetryEdge, MaximalBackoffRewindsExactlyToTheEntryTime) {
  RetryPolicy policy;
  policy.attempts = 6;
  policy.base_backoff_s = 1e11;
  sim::Clock clock;
  clock.set(123.25);
  sim::SimTime peak = 0.0;
  EXPECT_FALSE(retry_loop(policy, &clock, [&] {
    peak = clock.now();
    return false;
  }));
  // The last attempt ran deep into the backed-off future...
  EXPECT_GT(peak, 1e12);
  // ...and the scoped timeline still closed back to the entry instant,
  // exactly (doubles: the rewind stores the captured t0, no arithmetic).
  EXPECT_EQ(clock.now(), 123.25);
}

TEST(RetryEdge, RecoveryOnFinalAttemptStillCountsAsSuccess) {
  RetryPolicy policy;
  policy.attempts = 3;
  int calls = 0;
  EXPECT_TRUE(retry_loop(policy, nullptr, [&] {
    return ++calls == 3;
  }));
  EXPECT_EQ(calls, 3);
}

}  // namespace
}  // namespace cgn::fault
