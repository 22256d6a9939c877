// Campus-scale fault domains (DESIGN.md §15): board blackouts/brownouts and
// boundary-link partitions injected at shard horizons, with the acceptance
// gates of PR 9 — fault traces and per-board digests byte-identical across
// shard counts, checkpoint -> restore -> replay reproducing the
// uninterrupted run's digests exactly, and corrupted checkpoints rejected.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/grid/campus.hpp"
#include "src/sim/checkpoint.hpp"
#include "src/sim/rng.hpp"
#include "src/testbed/campus.hpp"

namespace efd::testbed {
namespace {

/// 5 boards over 2 buildings: small enough for tier-like runtimes, big
/// enough to have both backbone and WiFi-bridge crossings.
CampusRunConfig small_campus(int n_shards) {
  CampusRunConfig cfg;
  cfg.campus.n_outlets = 60;
  cfg.campus.outlets_per_board = 12;
  cfg.campus.stations_per_board = 3;
  cfg.campus.boards_per_building = 3;
  cfg.campus.seed = 42;
  cfg.n_shards = n_shards;
  cfg.duration = sim::milliseconds(80);
  cfg.p_remote = 0.4;
  return cfg;
}

/// First link of each boundary kind in the generated topology (-1 if the
/// campus has none of that kind).
struct LinkPick {
  int bridge = -1;
  int backbone = -1;
};

LinkPick pick_links(const grid::CampusConfig& cc) {
  const grid::CampusTopology topo = grid::CampusTopology::generate(cc);
  LinkPick pick;
  for (std::size_t i = 0; i < topo.links().size(); ++i) {
    const auto& l = topo.links()[i];
    if (l.kind == grid::BoundaryKind::kWifiBridge && pick.bridge < 0) {
      pick.bridge = static_cast<int>(i);
    }
    if (l.kind == grid::BoundaryKind::kPlcBackbone && pick.backbone < 0) {
      pick.backbone = static_cast<int>(i);
    }
  }
  return pick;
}

/// A deliberate storm touching every fault-domain kind: one board dies, one
/// browns out, a bridge and a backbone crossing are both severed.
CampusRunConfig stormy_campus(int n_shards) {
  CampusRunConfig cfg = small_campus(n_shards);
  const LinkPick pick = pick_links(cfg.campus);
  cfg.faults.board_blackout(sim::milliseconds(20), sim::milliseconds(25), 1)
      .board_brownout(sim::milliseconds(30), sim::milliseconds(30), 3, 0.6);
  if (pick.bridge >= 0) {
    cfg.faults.link_partition(sim::milliseconds(25), sim::milliseconds(30),
                              pick.bridge);
  }
  if (pick.backbone >= 0) {
    cfg.faults.link_partition(sim::milliseconds(35), sim::milliseconds(20),
                              pick.backbone);
  }
  return cfg;
}

// --- Shard-count invariance under faults -----------------------------------

TEST(ChaosCampus, StormTracesAndDigestsAreShardCountInvariant) {
  const CampusResult r1 = run_campus(stormy_campus(1));
  ASSERT_GT(r1.events, 0u);
  ASSERT_GT(r1.delivered, 0u);
  ASSERT_GT(r1.fault_events, 0u);
  ASSERT_FALSE(r1.fault_trace.empty());
  ASSERT_EQ(r1.board_digests.size(), 5u);
  // The blackout board must actually have dropped ingress while dead.
  EXPECT_GT(r1.dead_drops, 0u);
  for (const int shards : {2, 4}) {
    const CampusResult r = run_campus(stormy_campus(shards));
    EXPECT_EQ(r.digest, r1.digest) << "shards=" << shards;
    EXPECT_EQ(r.board_digests, r1.board_digests) << "shards=" << shards;
    EXPECT_EQ(r.fault_trace, r1.fault_trace) << "shards=" << shards;
    EXPECT_EQ(r.fault_events, r1.fault_events) << "shards=" << shards;
    EXPECT_EQ(r.dead_drops, r1.dead_drops) << "shards=" << shards;
    EXPECT_EQ(r.partition_drops, r1.partition_drops) << "shards=" << shards;
    EXPECT_EQ(r.failovers, r1.failovers) << "shards=" << shards;
    EXPECT_EQ(r.failbacks, r1.failbacks) << "shards=" << shards;
  }
}

TEST(ChaosCampus, StormChangesTheDigestButNotTheFaultFreeOne) {
  const CampusResult clean = run_campus(small_campus(2));
  const CampusResult storm = run_campus(stormy_campus(2));
  // Faults must bite: a dead board and severed crossings change delivery.
  EXPECT_NE(storm.digest, clean.digest);
  EXPECT_EQ(clean.fault_events, 0u);
  EXPECT_TRUE(clean.fault_trace.empty());
  EXPECT_EQ(clean.dead_drops, 0u);
  EXPECT_EQ(clean.partition_drops + clean.failovers, 0u);
}

TEST(ChaosCampus, BridgePartitionFailsOverToTheBackbone) {
  CampusRunConfig cfg = small_campus(2);
  const LinkPick pick = pick_links(cfg.campus);
  ASSERT_GE(pick.bridge, 0) << "campus has no WiFi bridge to partition";
  cfg.faults.link_partition(sim::milliseconds(10), sim::milliseconds(50),
                            pick.bridge);
  const CampusResult r = run_campus(cfg);
  // The bridge has a powerline fallback, so the partition reroutes instead
  // of dropping; restoration fails back to the primary path.
  EXPECT_GT(r.failovers, 0u);
  EXPECT_GT(r.failbacks, 0u);
  EXPECT_EQ(r.dead_drops, 0u);
}

TEST(ChaosCampus, PlcBlackoutAndWifiJamReachTheBoardMedia) {
  // The campus shares the NAN's fault hook table: a PLC surge bites every
  // board, a WiFi jam only a bridge endpoint (board 3 carries the 0-3
  // bridge; board 1 has no radio).
  const CampusResult clean = run_campus(small_campus(2));
  const auto with = [](fault::FaultKind kind, int board) {
    CampusRunConfig cfg = small_campus(2);
    cfg.faults.add({sim::milliseconds(5), sim::milliseconds(60), kind, board,
                    kind == fault::FaultKind::kWifiJam ? 200.0 : 1.0});
    return run_campus(cfg);
  };
  const CampusResult surge = with(fault::FaultKind::kPlcBlackout, 4);
  const CampusResult jam = with(fault::FaultKind::kWifiJam, 3);
  const CampusResult no_radio = with(fault::FaultKind::kWifiJam, 1);
  EXPECT_NE(surge.digest, clean.digest);
  EXPECT_NE(jam.digest, clean.digest);
  EXPECT_EQ(no_radio.digest, clean.digest);
  EXPECT_GT(no_radio.fault_events, 0u);
}

TEST(ChaosCampus, RandomCampusStormIsSeedDeterministic) {
  fault::FaultPlan::CampusStormConfig sc;
  sc.n_boards = 5;
  sc.n_links = 4;
  sc.horizon = sim::milliseconds(60);
  const fault::FaultPlan plan = fault::FaultPlan::random_campus_storm(sim::Rng{7}, sc);
  ASSERT_EQ(plan.size(), 6u);  // 2 blackouts + 2 brownouts + 2 partitions
  CampusRunConfig a = small_campus(1);
  a.faults = plan;
  CampusRunConfig b = small_campus(4);
  b.faults = fault::FaultPlan::random_campus_storm(sim::Rng{7}, sc);
  const CampusResult ra = run_campus(a);
  const CampusResult rb = run_campus(b);
  EXPECT_GT(ra.fault_events, 0u);
  EXPECT_EQ(rb.digest, ra.digest);
  EXPECT_EQ(rb.fault_trace, ra.fault_trace);
  EXPECT_EQ(rb.board_digests, ra.board_digests);
}

// --- Golden pins --------------------------------------------------------------

/// FNV-1a over the bytes of a fault trace: one 64-bit pin for the whole
/// rendered trace.
std::uint64_t trace_hash(const std::string& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : trace) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ChaosCampus, StormDigestsMatchTheGoldenPins) {
  // Shard-count invariance alone cannot catch a change that moves every
  // fold the same way; these absolute values can. Recorded with gcc.
  const CampusResult r = run_campus(stormy_campus(2));
  EXPECT_EQ(r.digest, 0x41873fb18599eb62ULL);
  EXPECT_EQ(r.board_digests,
            (std::vector<std::uint64_t>{
                0xbed986534fc31cf4ULL, 0x6a680c935f32f35dULL,
                0xa87d0cff9c03f592ULL, 0xef6ad27972e0f131ULL,
                0x6683e0810fee2d11ULL}));
  EXPECT_EQ(r.fault_trace.size(), 940u);
  EXPECT_EQ(trace_hash(r.fault_trace), 0x9a4fe3b527cdfdcdULL);
}

// --- Checkpoint / restore ---------------------------------------------------

TEST(ChaosCampus, CheckpointRestoreReplaysTheUninterruptedDigests) {
  // Reference: one uninterrupted run through the full duration.
  const CampusResult full = run_campus(stormy_campus(2));

  // Interrupted run: stop mid-storm, fingerprint, keep going — continuing
  // from a quiescent horizon must not perturb the timeline.
  CampusWorld world(stormy_campus(2));
  world.run_until(sim::milliseconds(40));
  const CampusCheckpoint cp = world.checkpoint();
  EXPECT_EQ(cp.engine.n_shards, 2);
  EXPECT_EQ(cp.engine.n_cells, 5);
  world.run_until(sim::milliseconds(80));
  const CampusResult continued = world.result();
  EXPECT_EQ(continued.digest, full.digest);
  EXPECT_EQ(continued.fault_trace, full.fault_trace);
  EXPECT_EQ(continued.board_digests, full.board_digests);

  // Restore rewinds to the checkpoint (reset + deterministic replay,
  // FNV-verified) and replaying to the end reproduces the same digests.
  ASSERT_TRUE(world.restore(cp));
  world.run_until(sim::milliseconds(80));
  const CampusResult replayed = world.result();
  EXPECT_EQ(replayed.digest, full.digest);
  EXPECT_EQ(replayed.fault_trace, full.fault_trace);
  EXPECT_EQ(replayed.board_digests, full.board_digests);
  EXPECT_EQ(replayed.delivered, full.delivered);
  EXPECT_EQ(replayed.dead_drops, full.dead_drops);
}

TEST(ChaosCampus, RestoreRejectsACorruptedCheckpoint) {
  CampusWorld world(stormy_campus(1));
  world.run_until(sim::milliseconds(30));
  const CampusCheckpoint good = world.checkpoint();

  CampusCheckpoint bad = good;
  bad.world_digest ^= 1;
  EXPECT_FALSE(world.restore(bad));

  CampusCheckpoint tampered = good;
  ASSERT_FALSE(tampered.engine.shards.empty());
  tampered.engine.shards[0].pending_digest ^= 1;
  EXPECT_FALSE(world.restore(tampered));

  // The genuine fingerprint still restores after the failed attempts.
  EXPECT_TRUE(world.restore(good));
}

TEST(ChaosCampus, EngineCheckpointBytesRoundTripAndRejectCorruption) {
  CampusWorld world(stormy_campus(2));
  world.run_until(sim::milliseconds(40));
  const sim::EngineCheckpoint cp = world.checkpoint().engine;
  ASSERT_FALSE(cp.shards.empty());
  ASSERT_FALSE(cp.mailboxes.empty());

  const std::vector<std::uint8_t> bytes = cp.to_bytes();
  sim::EngineCheckpoint parsed;
  ASSERT_TRUE(sim::EngineCheckpoint::from_bytes(bytes, parsed));
  EXPECT_EQ(parsed, cp);
  EXPECT_EQ(parsed.digest(), cp.digest());

  // Any single flipped byte breaks the trailing payload digest.
  for (const std::size_t at : {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[at] ^= 0x40;
    sim::EngineCheckpoint out;
    EXPECT_FALSE(sim::EngineCheckpoint::from_bytes(corrupt, out)) << "at=" << at;
  }
  // Truncation, misalignment, and empty input are rejected too.
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 8);
  sim::EngineCheckpoint out;
  EXPECT_FALSE(sim::EngineCheckpoint::from_bytes(truncated, out));
  std::vector<std::uint8_t> ragged(bytes.begin(), bytes.end() - 3);
  EXPECT_FALSE(sim::EngineCheckpoint::from_bytes(ragged, out));
  EXPECT_FALSE(sim::EngineCheckpoint::from_bytes({}, out));
}

// --- Backpressure under faults ----------------------------------------------

TEST(ChaosCampus, BoundedMailboxesPreserveTheStormDigest) {
  const CampusResult unbounded = run_campus(stormy_campus(4));
  CampusRunConfig cfg = stormy_campus(4);
  cfg.mailbox_capacity = 1;  // worst case: stall at every occupied horizon
  const CampusResult bounded = run_campus(cfg);
  EXPECT_EQ(bounded.digest, unbounded.digest);
  EXPECT_EQ(bounded.fault_trace, unbounded.fault_trace);
  EXPECT_EQ(bounded.board_digests, unbounded.board_digests);
  EXPECT_GT(bounded.mailbox_peak, 0u);
}

}  // namespace
}  // namespace efd::testbed
