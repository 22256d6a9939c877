// efd::obs profiler: scope nesting folds into the expected tree, open
// (unbalanced) scopes are credited their elapsed-so-far, cross-thread merge
// is deterministic in structure and counts, exited threads' shards are
// recycled, depth overflow drops instead of corrupting, and reset() isolates
// workloads inside one process.
#include <gtest/gtest.h>

#include <functional>
#include <latch>
#include <string>
#include <thread>

#include "src/obs/obs.hpp"

namespace efd {
namespace {

class ObsProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_prof_enabled(true);
    obs::ProfileRegistry::instance().reset();
  }
  void TearDown() override { obs::set_prof_enabled(true); }
};

TEST_F(ObsProfileTest, NestedScopesFoldIntoTree) {
  {
    EFD_PROF_SCOPE("proftest.outer");
    for (int i = 0; i < 3; ++i) {
      EFD_PROF_SCOPE("proftest.inner");
    }
  }
  const auto snap = obs::ProfileRegistry::instance().snapshot();
  ASSERT_TRUE(snap.enabled);
  const obs::ProfileNode* outer = snap.find("proftest.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  const obs::ProfileNode* inner = snap.find("proftest.outer/proftest.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 3u);
  // The inner scope is nested, not a sibling of the outer one.
  EXPECT_EQ(snap.find("proftest.inner"), nullptr);
  // Totals are inclusive, self is the non-child remainder.
  EXPECT_GE(outer->total_ns, inner->total_ns);
  EXPECT_GE(outer->self_ns, 0);
  EXPECT_EQ(outer->self_ns, outer->total_ns - inner->total_ns);
}

TEST_F(ObsProfileTest, OpenScopeIsCreditedElapsedSoFar) {
  // Snapshot taken while a scope is still open: the period has not completed
  // (count 0) but its elapsed-so-far is included in the totals — this is
  // what makes a bench's root track wall clock while the outermost scope is
  // still alive during reporting.
  EFD_PROF_SCOPE("proftest.open");
  const auto snap = obs::ProfileRegistry::instance().snapshot();
  const obs::ProfileNode* open = snap.find("proftest.open");
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(open->count, 0u);
  EXPECT_GT(open->total_ns, 0);
  EXPECT_GE(snap.root.total_ns, open->total_ns);
}

TEST_F(ObsProfileTest, DepthOverflowDropsInsteadOfCorrupting) {
  std::function<void(int)> rec = [&rec](int levels) {
    EFD_PROF_SCOPE("proftest.deep");
    if (levels > 1) rec(levels - 1);
  };
  rec(obs::kMaxProfDepth + 10);
  const auto snap = obs::ProfileRegistry::instance().snapshot();
  EXPECT_GE(snap.dropped, 10u);
  // The shadow stack unwound cleanly: a fresh top-level scope still lands at
  // the root level.
  {
    EFD_PROF_SCOPE("proftest.after_overflow");
  }
  const auto snap2 = obs::ProfileRegistry::instance().snapshot();
  const obs::ProfileNode* after = snap2.find("proftest.after_overflow");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->count, 1u);
}

TEST_F(ObsProfileTest, EqualNameContentMergesAcrossDistinctPointers) {
  // Two distinct char arrays with equal content (as produced by the same
  // literal in different translation units) must fold into one node.
  static const char kNameA[] = "proftest.same_content";
  static const char kNameB[] = "proftest.same_content";
  ASSERT_NE(static_cast<const void*>(kNameA), static_cast<const void*>(kNameB));
  {
    obs::ProfScope a(kNameA);
  }
  {
    obs::ProfScope b(kNameB);
  }
  const auto snap = obs::ProfileRegistry::instance().snapshot();
  const obs::ProfileNode* node = snap.find("proftest.same_content");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, 2u);
}

TEST_F(ObsProfileTest, CrossThreadMergeIsDeterministic) {
  // Two worker threads profile the same hierarchy; the fold merges them by
  // name into one tree with per-thread slices. Each holds its shard until
  // both have one, so neither adopts the other's. Threads are joined before
  // snapshotting, so the result is quiescent-exact; two snapshots of the
  // same quiescent state must agree in structure and counts.
  std::latch both_profiled{2};
  const auto work = [&both_profiled] {
    for (int i = 0; i < 5; ++i) {
      EFD_PROF_SCOPE("proftest.worker");
      EFD_PROF_SCOPE("proftest.step");
    }
    both_profiled.arrive_and_wait();
  };
  std::thread a(work);
  std::thread b(work);
  a.join();
  b.join();
  const auto snap = obs::ProfileRegistry::instance().snapshot();
  const obs::ProfileNode* worker = snap.find("proftest.worker");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->count, 10u);
  ASSERT_EQ(worker->threads.size(), 2u);
  EXPECT_EQ(worker->threads[0].count, 5u);
  EXPECT_EQ(worker->threads[1].count, 5u);
  const obs::ProfileNode* step = snap.find("proftest.worker/proftest.step");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->count, 10u);
  // cpu_total_ns sums threads; the root reports the busiest single thread.
  EXPECT_GE(snap.cpu_total_ns, snap.root.total_ns);

  const auto again = obs::ProfileRegistry::instance().snapshot();
  EXPECT_EQ(snap.to_json(), again.to_json());
}

TEST_F(ObsProfileTest, ExitedThreadsShardsAreRecycled) {
  // At exit a thread hands its shard back and the next thread adopts it,
  // totals included. So a thousand sequential threads sum exactly and
  // allocate at most one shard.
  auto& reg = obs::ProfileRegistry::instance();
  const std::size_t before = reg.shard_count();
  for (int i = 0; i < 1000; ++i) {
    std::thread([] { EFD_PROF_SCOPE("proftest.recycled"); }).join();
  }
  const auto snap = reg.snapshot();
  const obs::ProfileNode* node = snap.find("proftest.recycled");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, 1000u);
  EXPECT_LE(reg.shard_count(), before + 1);
}

TEST_F(ObsProfileTest, ResetZeroesCountsAndTotals) {
  {
    EFD_PROF_SCOPE("proftest.reset_me");
  }
  obs::ProfileRegistry::instance().reset();
  const auto snap = obs::ProfileRegistry::instance().snapshot();
  const obs::ProfileNode* node = snap.find("proftest.reset_me");
  if (node != nullptr) {  // structure may be kept; the numbers must not be
    EXPECT_EQ(node->count, 0u);
  }
  EXPECT_EQ(snap.dropped, 0u);
}

TEST_F(ObsProfileTest, RuntimeDisabledRecordsNothing) {
  obs::set_prof_enabled(false);
  {
    EFD_PROF_SCOPE("proftest.while_disabled");
  }
  obs::set_prof_enabled(true);
  const auto snap = obs::ProfileRegistry::instance().snapshot();
  EXPECT_EQ(snap.find("proftest.while_disabled"), nullptr);
}

TEST_F(ObsProfileTest, ToJsonEmitsFlamegraphFields) {
  {
    EFD_PROF_SCOPE("proftest.json");
  }
  const auto snap = obs::ProfileRegistry::instance().snapshot();
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"name\": \"(root)\""), std::string::npos);
  EXPECT_NE(json.find("\"proftest.json\""), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"self_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

}  // namespace
}  // namespace efd
