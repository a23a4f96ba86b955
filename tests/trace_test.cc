// Tests for the Tracer metric collector and its CSV export.

#include "src/sim/trace.h"

#include <gtest/gtest.h>

namespace lottery {
namespace {

SimTime At(int64_t ms) { return SimTime::Zero() + SimDuration::Millis(ms); }

TEST(Tracer, RejectsNonPositiveWindow) {
  EXPECT_THROW(Tracer(SimDuration::Nanos(0)), std::invalid_argument);
}

TEST(Tracer, ProgressBucketsByWindow) {
  Tracer tracer(SimDuration::Seconds(1));
  tracer.AddProgress(1, At(100), 5);
  tracer.AddProgress(1, At(900), 5);
  tracer.AddProgress(1, At(1100), 7);
  EXPECT_EQ(tracer.WindowProgress(1, 0), 10);
  EXPECT_EQ(tracer.WindowProgress(1, 1), 7);
  EXPECT_EQ(tracer.TotalProgress(1), 17);
  EXPECT_EQ(tracer.num_windows(), 2u);
}

TEST(Tracer, UnknownThreadsAndWindowsAreZero) {
  Tracer tracer(SimDuration::Seconds(1));
  EXPECT_EQ(tracer.TotalProgress(42), 0);
  EXPECT_EQ(tracer.WindowProgress(42, 0), 0);
  tracer.AddProgress(1, At(0), 1);
  EXPECT_EQ(tracer.WindowProgress(1, 5), 0);
}

TEST(Tracer, SamplesAndStats) {
  Tracer tracer(SimDuration::Seconds(1));
  tracer.RecordSample("lat", At(100), 1.0);
  tracer.RecordSample("lat", At(200), 3.0);
  EXPECT_EQ(tracer.Samples("lat").size(), 2u);
  EXPECT_DOUBLE_EQ(tracer.SampleStats("lat").mean(), 2.0);
  EXPECT_TRUE(tracer.Samples("nope").empty());
}

TEST(Tracer, WindowsCsvShape) {
  Tracer tracer(SimDuration::Seconds(1));
  tracer.AddProgress(1, At(100), 3);
  tracer.AddProgress(2, At(1200), 4);
  const std::string csv = tracer.WindowsCsv({1, 2}, {"a", "b"});
  EXPECT_EQ(csv,
            "window_start_sec,a,b\n"
            "0,3,0\n"
            "1,0,4\n");
  EXPECT_THROW(tracer.WindowsCsv({1}, {"a", "b"}), std::invalid_argument);
}

TEST(Tracer, DispatchLogOffByDefault) {
  Tracer tracer(SimDuration::Seconds(1));
  tracer.RecordDispatch(1, 0, At(0), SimDuration::Millis(100));
  EXPECT_TRUE(tracer.dispatches().empty());
}

TEST(Tracer, DispatchLogRecordsAndCaps) {
  Tracer tracer(SimDuration::Seconds(1));
  tracer.EnableDispatchLog(/*cap=*/2);
  tracer.RecordDispatch(1, 0, At(0), SimDuration::Millis(100));
  tracer.RecordDispatch(2, 1, At(100), SimDuration::Millis(50));
  tracer.RecordDispatch(3, 0, At(150), SimDuration::Millis(50));  // dropped
  ASSERT_EQ(tracer.dispatches().size(), 2u);
  EXPECT_EQ(tracer.dispatches()[1].tid, 2u);
  EXPECT_EQ(tracer.dispatches()[1].cpu, 1);
  EXPECT_EQ(tracer.dropped(), 1u);
}

}  // namespace
}  // namespace lottery
