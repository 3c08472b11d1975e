#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace magneto {
namespace {

/// Restores the pool size after each test so thread-count experiments don't
/// leak into the rest of the suite.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = ParallelThreads(); }
  void TearDown() override { SetParallelThreads(saved_threads_); }
  size_t saved_threads_ = 1;
};

TEST_F(ParallelTest, ZeroSizeRangeNeverInvokesBody) {
  std::atomic<int> calls{0};
  ParallelFor(0, 0, 1, [&](size_t, size_t) { ++calls; });
  ParallelFor(5, 5, 4, [&](size_t, size_t) { ++calls; });
  ParallelFor(7, 3, 2, [&](size_t, size_t) { ++calls; });  // inverted range
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    SetParallelThreads(threads);
    constexpr size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(0, kN, 37, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST_F(ParallelTest, ChunkBoundariesDependOnlyOnRangeAndGrain) {
  auto boundaries = [](size_t threads) {
    SetParallelThreads(threads);
    std::vector<std::pair<size_t, size_t>> chunks(100);
    std::atomic<size_t> count{0};
    ParallelFor(3, 250, 17, [&](size_t lo, size_t hi) {
      chunks[count.fetch_add(1)] = {lo, hi};
    });
    chunks.resize(count.load());
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto serial = boundaries(1);
  const auto threaded = boundaries(8);
  EXPECT_EQ(serial, threaded);
  // ceil((250 - 3) / 17) chunks, first starting at 3, last ending at 250.
  ASSERT_EQ(serial.size(), (250u - 3u + 16u) / 17u);
  EXPECT_EQ(serial.front().first, 3u);
  EXPECT_EQ(serial.back().second, 250u);
}

TEST_F(ParallelTest, ForChunksKeepsParallelForChunking) {
  auto boundaries = [](size_t threads, size_t begin, size_t end, bool chunks) {
    SetParallelThreads(threads);
    std::vector<std::pair<size_t, size_t>> seen(100);
    std::atomic<size_t> count{0};
    auto body = [&](size_t lo, size_t hi) {
      seen[count.fetch_add(1)] = {lo, hi};
    };
    if (chunks) {
      ParallelForChunks(begin, end, 17, body);
    } else {
      ParallelFor(begin, end, 17, body);
    }
    seen.resize(count.load());
    std::sort(seen.begin(), seen.end());
    return seen;
  };
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EXPECT_EQ(boundaries(threads, 3, 250, true),
              boundaries(threads, 3, 250, false));
    EXPECT_EQ(boundaries(threads, 3, 20, true),
              (std::vector<std::pair<size_t, size_t>>{{3, 20}}));
    EXPECT_TRUE(boundaries(threads, 5, 5, true).empty());
  }
  // A range of one chunk runs on the calling thread.
  SetParallelThreads(8);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  ParallelForChunks(0, 17, 17, [&](size_t, size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST_F(ParallelTest, NestedParallelForRunsInlineAndCorrectly) {
  SetParallelThreads(4);
  constexpr size_t kOuter = 16, kInner = 64;
  std::vector<int> data(kOuter * kInner, 0);
  ParallelFor(0, kOuter, 1, [&](size_t lo, size_t hi) {
    for (size_t o = lo; o < hi; ++o) {
      // Nested call: must not deadlock, must still cover its range.
      ParallelFor(0, kInner, 8, [&](size_t ilo, size_t ihi) {
        for (size_t i = ilo; i < ihi; ++i) data[o * kInner + i] += 1;
      });
    }
  });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0),
            static_cast<int>(kOuter * kInner));
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SetParallelThreads(threads);
    EXPECT_THROW(
        ParallelFor(0, 100, 10,
                    [&](size_t lo, size_t) {
                      if (lo >= 50) throw std::runtime_error("boom");
                    }),
        std::runtime_error);
    // Pool must still be usable after an exception.
    std::atomic<int> ok{0};
    ParallelFor(0, 10, 1, [&](size_t, size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 10);
  }
}

TEST_F(ParallelTest, SetThreadCountRoundTrips) {
  SetParallelThreads(3);
  EXPECT_EQ(ParallelThreads(), 3u);
  SetParallelThreads(1);
  EXPECT_EQ(ParallelThreads(), 1u);
  // Clamped to at least one lane (the caller).
  SetParallelThreads(0);
  EXPECT_EQ(ParallelThreads(), 1u);
}

TEST_F(ParallelTest, GrainZeroIsTreatedAsOne) {
  SetParallelThreads(2);
  std::vector<std::atomic<int>> hits(9);
  ParallelFor(0, 9, 0, [&](size_t lo, size_t hi) {
    EXPECT_EQ(hi, lo + 1);
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, ManyConcurrentRegionsStayCoherent) {
  SetParallelThreads(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    ParallelFor(0, 64, 4, [&](size_t lo, size_t hi) {
      size_t local = 0;
      for (size_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), 64u * 63u / 2u);
  }
}

}  // namespace
}  // namespace magneto
