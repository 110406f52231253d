// Durable-log recovery across a crashed remastering: the old master
// logged its release marker, but the crash hit before the recipient's
// grant marker was written. Replay must still converge every recovering
// site on exactly one master — the release's named recipient — and the
// recovered cluster must accept writes there and audit clean.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/history.h"
#include "common/partitioner.h"
#include "core/cluster.h"
#include "log/durable_log.h"
#include "site/site_manager.h"
#include "tools/si_checker.h"

namespace dynamast {
namespace {

constexpr TableId kTable = 0;
constexpr uint64_t kKeys = 40;

std::string Num(uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}
uint64_t AsNum(const std::string& s) {
  uint64_t v = 0;
  if (s.size() >= 8) memcpy(&v, s.data(), 8);
  return v;
}

site::SiteOptions FastSite(SiteId id, uint32_t num_sites) {
  site::SiteOptions options;
  options.site_id = id;
  options.num_sites = num_sites;
  options.read_op_cost = options.write_op_cost = options.apply_op_cost =
      std::chrono::microseconds(0);
  return options;
}

Status WriteKey(site::SiteManager* site, uint64_t key, uint64_t value,
                ClientId client, uint64_t client_txn) {
  site::TxnOptions options;
  options.write_keys = {RecordKey{kTable, key}};
  options.client = client;
  options.client_txn = client_txn;
  site::Transaction txn;
  Status s = site->BeginTransaction(options, &txn);
  if (!s.ok()) return s;
  s = txn.Put(RecordKey{kTable, key}, Num(value));
  if (!s.ok()) {
    site->Abort(&txn);
    return s;
  }
  VersionVector commit_version;
  return site->Commit(&txn, &commit_version);
}

TEST(RecoveryRemasterTest, ReleaseLoggedGrantMissingConvergesToRecipient) {
  RangePartitioner partitioner(10, 4);  // 4 partitions of 10 keys
  log::LogManager logs(2);

  // ---- Phase 1: live run, crash between release and grant ------------
  {
    std::vector<std::unique_ptr<site::SiteManager>> sites;
    for (SiteId i = 0; i < 2; ++i) {
      sites.push_back(std::make_unique<site::SiteManager>(
          FastSite(i, 2), &partitioner, &logs, nullptr));
      ASSERT_TRUE(sites[i]->CreateTable(kTable).ok());
      for (uint64_t key = 0; key < kKeys; ++key) {
        ASSERT_TRUE(
            sites[i]->LoadRecord(RecordKey{kTable, key}, Num(0)).ok());
      }
    }
    for (PartitionId p = 0; p < 4; ++p) sites[0]->SetMasterOf(p, true);

    // Committed writes on every partition, all logged at site 0.
    uint64_t txn = 0;
    for (uint64_t key = 0; key < kKeys; key += 5) {
      ASSERT_TRUE(WriteKey(sites[0].get(), key, key + 100, 1, ++txn).ok());
    }

    // Release partition 2 toward site 1... and "crash": the grant marker
    // is never appended. The release itself is durable in topic 0.
    VersionVector release_version;
    ASSERT_TRUE(sites[0]->Release({2}, 1, &release_version).ok());
    ASSERT_FALSE(sites[0]->IsMasterOf(2));
  }  // sites destroyed; `logs` survives the crash

  // ---- Phase 2: replay on fresh sites --------------------------------
  history::Recorder recorder;
  std::vector<std::unique_ptr<site::SiteManager>> sites;
  std::vector<std::unordered_map<PartitionId, SiteId>> recovered(2);
  std::unordered_map<PartitionId, SiteId> initial;
  for (PartitionId p = 0; p < 4; ++p) initial[p] = 0;
  for (SiteId i = 0; i < 2; ++i) {
    sites.push_back(std::make_unique<site::SiteManager>(
        FastSite(i, 2), &partitioner, &logs, nullptr, &recorder));
    ASSERT_TRUE(sites[i]->CreateTable(kTable).ok());
    for (uint64_t key = 0; key < kKeys; ++key) {
      ASSERT_TRUE(sites[i]->LoadRecord(RecordKey{kTable, key}, Num(0)).ok());
    }
    ASSERT_TRUE(sites[i]->RecoverFromLogs(initial, &recovered[i]).ok());
  }

  // Every recovering site computes the same mastership map, and the
  // half-transferred partition lands on the release's recipient.
  EXPECT_EQ(recovered[0], recovered[1]);
  EXPECT_EQ(recovered[0][2], 1u);
  for (PartitionId p = 0; p < 4; ++p) {
    int masters = 0;
    for (SiteId i = 0; i < 2; ++i) {
      if (sites[i]->IsMasterOf(p)) masters++;
    }
    EXPECT_EQ(masters, 1) << "partition " << p;
    EXPECT_EQ(sites[p == 2 ? 1 : 0]->IsMasterOf(p), true) << "partition " << p;
  }

  // Replay reproduced the pre-crash data at both sites.
  for (uint64_t key = 0; key < kKeys; key += 5) {
    for (SiteId i = 0; i < 2; ++i) {
      std::string value;
      ASSERT_TRUE(
          sites[i]->engine().ReadLatest(RecordKey{kTable, key}, &value).ok());
      EXPECT_EQ(AsNum(value), key + 100) << "site " << i << " key " << key;
    }
  }

  // The recovered cluster is live: the new master accepts writes on the
  // transferred partition, the old master refuses them. Distinct client
  // sessions per site — no appliers run here, so a single session hopping
  // between sites could not be kept session-consistent (the auditor would
  // rightly object).
  ASSERT_TRUE(WriteKey(sites[1].get(), 25, 500, 2, 1).ok());
  EXPECT_TRUE(WriteKey(sites[0].get(), 25, 501, 3, 1).IsNotMaster());
  ASSERT_TRUE(WriteKey(sites[0].get(), 5, 600, 3, 2).ok());

  // Post-recovery history audits clean. The recorder only saw events
  // after the crash, so audit in partial-history mode (reads may observe
  // versions whose installers predate the recorder).
  tools::SiCheckerOptions options;
  options.complete_history = false;
  const tools::AuditReport audit =
      tools::AuditHistory(recorder.Snapshot(), options);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  EXPECT_GE(audit.commits, 2u);

  logs.CloseAll();
  for (auto& s : sites) s->Stop();
}

// Regression: RecoverFromLogs used to mutate svv_ and mastered_ without
// state_mu_ (TSA's GUARDED_BY flagged it). The replay now holds the
// state lock throughout, so readers racing recovery see consistent
// state. The race itself is what TSan and the lock checker catch when
// the sanitizer presets run this test; in a plain build it still proves
// the locked replay cannot deadlock against concurrent readers.
TEST(RecoveryRemasterTest, ConcurrentReadsDuringRecoveryAreSafe) {
  RangePartitioner partitioner(10, 4);  // 4 partitions of 10 keys
  log::LogManager logs(1);
  {
    site::SiteManager live(FastSite(0, 1), &partitioner, &logs, nullptr);
    ASSERT_TRUE(live.CreateTable(kTable).ok());
    for (uint64_t key = 0; key < kKeys; ++key) {
      ASSERT_TRUE(live.LoadRecord(RecordKey{kTable, key}, Num(0)).ok());
    }
    for (PartitionId p = 0; p < 4; ++p) live.SetMasterOf(p, true);
    uint64_t txn = 0;
    for (uint64_t key = 0; key < kKeys; key += 2) {
      ASSERT_TRUE(WriteKey(&live, key, key + 1, 1, ++txn).ok());
    }
    live.Stop();
  }

  site::SiteManager replay(FastSite(0, 1), &partitioner, &logs, nullptr);
  ASSERT_TRUE(replay.CreateTable(kTable).ok());
  for (uint64_t key = 0; key < kKeys; ++key) {
    ASSERT_TRUE(replay.LoadRecord(RecordKey{kTable, key}, Num(0)).ok());
  }

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)replay.CurrentVersion();
      (void)replay.IsMasterOf(0);
      (void)replay.MasteredPartitions();
    }
  });

  std::unordered_map<PartitionId, SiteId> initial;
  for (PartitionId p = 0; p < 4; ++p) initial[p] = 0;
  std::unordered_map<PartitionId, SiteId> recovered;
  ASSERT_TRUE(replay.RecoverFromLogs(initial, &recovered).ok());
  done.store(true, std::memory_order_release);
  reader.join();

  for (PartitionId p = 0; p < 4; ++p) {
    EXPECT_EQ(recovered[p], 0u) << "partition " << p;
    EXPECT_TRUE(replay.IsMasterOf(p)) << "partition " << p;
  }
  std::string value;
  ASSERT_TRUE(replay.engine().ReadLatest(RecordKey{kTable, 2}, &value).ok());
  EXPECT_EQ(AsNum(value), 3u);
  replay.Stop();
  logs.CloseAll();
}

TEST(RecoveryRemasterTest, GrantMarkerReassertsRecoveredOwner) {
  // Control: when the grant DID make it to the log, replay reaches the
  // same owner through release (assign to recipient) + grant (re-assert).
  RangePartitioner partitioner(10, 2);
  core::Cluster::Options copts;
  copts.num_sites = 2;
  copts.network.charge_delays = false;
  copts.site.read_op_cost = copts.site.write_op_cost =
      copts.site.apply_op_cost = std::chrono::microseconds(0);
  core::Cluster cluster(copts, &partitioner);
  ASSERT_TRUE(cluster.CreateTable(kTable).ok());
  for (uint64_t key = 0; key < 20; ++key) {
    for (SiteId i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          cluster.site(i)->LoadRecord(RecordKey{kTable, key}, Num(0)).ok());
    }
  }
  cluster.site(0)->SetMasterOf(0, true);
  cluster.site(0)->SetMasterOf(1, true);
  cluster.Start();

  ASSERT_TRUE(WriteKey(cluster.site(0), 15, 7, 1, 1).ok());
  VersionVector release_version, grant_version;
  ASSERT_TRUE(cluster.site(0)->Release({1}, 1, &release_version).ok());
  // The refresh applier catches site 1 up to the release point, so the
  // grant's version-vector wait completes and the marker is logged.
  ASSERT_TRUE(
      cluster.site(1)->Grant({1}, 0, release_version, &grant_version).ok());
  ASSERT_TRUE(WriteKey(cluster.site(1), 16, 8, 1, 2).ok());

  site::SiteManager replay(FastSite(0, 2), &partitioner, &cluster.logs(),
                           nullptr);
  ASSERT_TRUE(replay.CreateTable(kTable).ok());
  for (uint64_t key = 0; key < 20; ++key) {
    ASSERT_TRUE(replay.LoadRecord(RecordKey{kTable, key}, Num(0)).ok());
  }
  std::unordered_map<PartitionId, SiteId> initial{{0, 0}, {1, 0}};
  std::unordered_map<PartitionId, SiteId> recovered;
  ASSERT_TRUE(replay.RecoverFromLogs(initial, &recovered).ok());
  EXPECT_EQ(recovered[0], 0u);
  EXPECT_EQ(recovered[1], 1u);
  std::string value;
  ASSERT_TRUE(replay.engine().ReadLatest(RecordKey{kTable, 16}, &value).ok());
  EXPECT_EQ(AsNum(value), 8u);
  cluster.Stop();
}

// ---- Crash-point sweep ----------------------------------------------
//
// Every durable append is a recorded sync point (kLogAppend in the
// scheduler's decision stream), so "crash after the k-th append" names a
// precise point in the serialized history — no wall-clock sleeps. The
// scenario below produces a fixed, fully deterministic append sequence:
//
//   appends 1..8   eight committed writes, topic 0 (old master)
//   append  9      release marker for partition 1, topic 0
//   append  10     grant marker, topic 1 (new master re-asserts)
//   append  11     one committed write at the new master, topic 1
//
// The sweep truncates the log at every k in [0, 11] and recovers fresh
// sites from the surviving prefix. Each crash point also runs with a
// log-side checkpoint taken after j <= k appends (j = 0: none), so
// recovery installs the checkpoint and replays only the suffix above it.
// Invariants checked at every (k, j):
// both sites compute identical mastership, every partition has exactly
// one master (the release's recipient iff the release marker survived),
// recovered data equals the surviving write prefix, the recovered
// cluster accepts writes at the owner and refuses them elsewhere, and
// the post-recovery history audits clean.

constexpr uint64_t kSweepWrites = 8;        // appends 1..8
constexpr uint64_t kReleaseAppend = 9;      // release marker
constexpr uint64_t kSweepTotalAppends = 11; // full scenario

constexpr uint64_t kNoCheckpoint = 0;

class RecoveryCrashPointTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

// Once `j` appends are durable (and j > 0), lets both sites apply every
// durable record, then checkpoints the logs at their common svv: the cut
// then holds exactly the first j appends.
void CheckpointAfterAppends(core::Cluster* cluster, uint64_t j, bool* done) {
  if (*done || j == kNoCheckpoint || cluster->logs().TotalAppends() < j) {
    return;
  }
  *done = true;
  VersionVector durable(2);
  for (SiteId t = 0; t < 2; ++t) {
    durable[t] = cluster->logs().TopicFor(t)->Size();
  }
  for (SiteId i = 0; i < 2; ++i) {
    ASSERT_TRUE(cluster->site(i)->WaitForVersion(durable).ok());
  }
  ASSERT_TRUE(cluster->CheckpointLogs().ok());
  EXPECT_EQ(cluster->logs().CheckpointCut().svv, durable);
}

// Runs the remaster scenario with the log armed to lose every append
// after the first `k`, checkpointing after `j` appends. Returns the
// cluster so the caller can recover from its (truncated) logs.
std::unique_ptr<core::Cluster> RunCrashedScenario(
    const RangePartitioner& partitioner, uint64_t k,
    uint64_t j = kNoCheckpoint) {
  core::Cluster::Options copts;
  copts.num_sites = 2;
  copts.network.charge_delays = false;
  copts.site.read_op_cost = copts.site.write_op_cost =
      copts.site.apply_op_cost = std::chrono::microseconds(0);
  // A lost release marker means site 1 can never catch up; keep the
  // doomed Grant's freshness wait short so the sweep stays fast.
  copts.site.freshness_timeout = std::chrono::milliseconds(100);
  auto cluster = std::make_unique<core::Cluster>(copts, &partitioner);
  EXPECT_TRUE(cluster->CreateTable(kTable).ok());
  for (uint64_t key = 0; key < 20; ++key) {
    for (SiteId i = 0; i < 2; ++i) {
      EXPECT_TRUE(
          cluster->site(i)->LoadRecord(RecordKey{kTable, key}, Num(0)).ok());
    }
  }
  cluster->site(0)->SetMasterOf(0, true);
  cluster->site(0)->SetMasterOf(1, true);
  cluster->Start();
  if (k < kSweepTotalAppends) {
    cluster->logs().ArmCrashAfterAppends(static_cast<int64_t>(k));
  }

  uint64_t txn = 0;
  bool checkpointed = false;
  for (uint64_t key = 0; key < 2 * kSweepWrites; key += 2) {
    // Lost appends still commit in memory; that memory dies with the
    // crash, so phase 1 ignores the statuses past the crash point.
    (void)WriteKey(cluster->site(0), key, key + 100, 1, ++txn);
    CheckpointAfterAppends(cluster.get(), j, &checkpointed);
  }
  VersionVector release_version, grant_version;
  (void)cluster->site(0)->Release({1}, 1, &release_version);
  CheckpointAfterAppends(cluster.get(), j, &checkpointed);
  // With the release marker lost, site 1 never reaches the release
  // version and this Grant times out — exactly the half-transferred
  // window recovery must resolve.
  if (cluster->site(1)
          ->Grant({1}, 0, release_version, &grant_version)
          .ok()) {
    CheckpointAfterAppends(cluster.get(), j, &checkpointed);
    (void)WriteKey(cluster->site(1), 17, 999, 1, ++txn);
    CheckpointAfterAppends(cluster.get(), j, &checkpointed);
  }
  EXPECT_EQ(checkpointed, j != kNoCheckpoint);
  return cluster;
}

TEST(RecoveryCrashPointTest, ScenarioAppendCountMatchesSweepBound) {
  // Keeps the sweep's Range honest: if the scenario ever changes shape,
  // this fails before the per-point invariants silently under-cover.
  RangePartitioner partitioner(10, 2);
  std::unique_ptr<core::Cluster> cluster =
      RunCrashedScenario(partitioner, kSweepTotalAppends);
  EXPECT_EQ(cluster->logs().TotalAppends(), kSweepTotalAppends);
  cluster->Stop();
}

// Every crash point k, each without a checkpoint and with one after
// j <= k appends for j in {1, 5, 9, 11}.
std::vector<std::tuple<uint64_t, uint64_t>> SweepPoints() {
  std::vector<std::tuple<uint64_t, uint64_t>> points;
  for (uint64_t k = 0; k <= kSweepTotalAppends; ++k) {
    for (uint64_t j : {kNoCheckpoint, uint64_t{1}, uint64_t{5},
                       kReleaseAppend, kSweepTotalAppends}) {
      if (j <= k) points.emplace_back(k, j);
    }
  }
  return points;
}

TEST_P(RecoveryCrashPointTest, RecoversToSingleMasterAtEveryCrashPoint) {
  const auto [k, j] = GetParam();
  RangePartitioner partitioner(10, 2);
  std::unique_ptr<core::Cluster> cluster =
      RunCrashedScenario(partitioner, k, j);
  // The crash: phase-1 memory (and its appliers) is gone; only the
  // truncated log survives. Recovery below uses non-blocking reads, so
  // the closed topics are fine.
  cluster->Stop();

  // ---- Recover fresh sites from the surviving prefix -----------------
  history::Recorder recorder;
  std::vector<std::unique_ptr<site::SiteManager>> sites;
  std::vector<std::unordered_map<PartitionId, SiteId>> recovered(2);
  std::unordered_map<PartitionId, SiteId> initial{{0, 0}, {1, 0}};
  for (SiteId i = 0; i < 2; ++i) {
    sites.push_back(std::make_unique<site::SiteManager>(
        FastSite(i, 2), &partitioner, &cluster->logs(), nullptr, &recorder));
    ASSERT_TRUE(sites[i]->CreateTable(kTable).ok());
    for (uint64_t key = 0; key < 20; ++key) {
      ASSERT_TRUE(sites[i]->LoadRecord(RecordKey{kTable, key}, Num(0)).ok());
    }
    ASSERT_TRUE(sites[i]->RecoverFromLogs(initial, &recovered[i]).ok());
    // The recovered svv covers exactly the surviving appends.
    EXPECT_EQ(sites[i]->CurrentVersion().Total(),
              std::min(k, kSweepTotalAppends))
        << "crash point " << k << " checkpoint " << j;
  }

  // Mastership is a pure function of the surviving prefix: the release
  // marker (append 9) moves partition 1 to its named recipient.
  const SiteId owner1 = k >= kReleaseAppend ? 1 : 0;
  EXPECT_EQ(recovered[0], recovered[1]) << "crash point " << k;
  EXPECT_EQ(recovered[0][1], owner1) << "crash point " << k;
  for (PartitionId p = 0; p < 2; ++p) {
    int masters = 0;
    for (SiteId i = 0; i < 2; ++i) {
      if (sites[i]->IsMasterOf(p)) masters++;
    }
    EXPECT_EQ(masters, 1) << "crash point " << k << " partition " << p;
  }

  // Recovered data equals the surviving write prefix.
  const uint64_t surviving = std::min(k, kSweepWrites);
  for (uint64_t i = 0; i < kSweepWrites; ++i) {
    const uint64_t key = 2 * i;
    for (SiteId s = 0; s < 2; ++s) {
      std::string value;
      ASSERT_TRUE(
          sites[s]->engine().ReadLatest(RecordKey{kTable, key}, &value).ok());
      EXPECT_EQ(AsNum(value), i < surviving ? key + 100 : 0)
          << "crash point " << k << " site " << s << " key " << key;
    }
  }

  // Liveness: the owner accepts writes on partition 1, the other site
  // refuses them; partition 0 still works at site 0.
  ASSERT_TRUE(WriteKey(sites[owner1].get(), 15, 700, 2, 1).ok());
  EXPECT_TRUE(WriteKey(sites[1 - owner1].get(), 15, 701, 3, 1).IsNotMaster());
  ASSERT_TRUE(WriteKey(sites[0].get(), 5, 800, 4, 1).ok());

  // Post-recovery history audits clean (partial mode: the recorder never
  // saw the pre-crash installers).
  tools::SiCheckerOptions options;
  options.complete_history = false;
  const tools::AuditReport audit =
      tools::AuditHistory(recorder.Snapshot(), options);
  EXPECT_TRUE(audit.ok()) << "crash point " << k << ": " << audit.ToString();
  EXPECT_GE(audit.commits, 2u);

  cluster->Stop();
  for (auto& s : sites) s->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllSyncPoints, RecoveryCrashPointTest,
    ::testing::ValuesIn(SweepPoints()),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, uint64_t>>& info) {
      const uint64_t k = std::get<0>(info.param);
      const uint64_t j = std::get<1>(info.param);
      return "after_" + std::to_string(k) + "_appends" +
             (j == kNoCheckpoint ? std::string()
                                 : "_checkpoint_" + std::to_string(j));
    });

}  // namespace
}  // namespace dynamast
