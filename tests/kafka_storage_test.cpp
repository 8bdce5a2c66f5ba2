// Unit tests for the durable-storage layer: CRC32C vectors, the
// flush.messages / flush.ms discipline vs. OS-cache-only writeback,
// power-loss suffix drops, torn tails, latent corruption, the recovery
// scan, and dedup/high-watermark rebuild — plus crash-restart replay
// determinism of a full disk-fault experiment.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "chaos/generator.hpp"
#include "kafka/log.hpp"
#include "kafka/storage.hpp"
#include "testbed/experiment.hpp"

namespace ks::kafka {
namespace {

std::vector<Record> records(Key first, int count, Bytes size = 100) {
  std::vector<Record> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(Record{first + static_cast<Key>(i), size, 0, 0});
  }
  return out;
}

TEST(Crc32c, KnownVectors) {
  // The canonical CRC32C check value (RFC 3720 / iSCSI).
  const char* check = "123456789";
  EXPECT_EQ(crc32c(check, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(check, 0), 0u);
  // 32 zero bytes: another published CRC32C vector.
  const unsigned char zeros[32] = {};
  EXPECT_EQ(crc32c(zeros, 32), 0x8A9136AAu);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const auto one_shot = crc32c(data.data(), data.size());
  const auto first = crc32c(data.data(), 10);
  EXPECT_EQ(crc32c(data.data() + 10, data.size() - 10, first), one_shot);
  EXPECT_NE(one_shot, crc32c(data.data(), data.size() - 1));
}

TEST(Storage, OsCacheOnlyAppendsCostNothing) {
  StorageDevice device{StorageConfig{}};
  PartitionLog log;
  log.enable_storage(&device);
  for (int i = 0; i < 10; ++i) {
    log.append(records(static_cast<Key>(i) * 3, 3), millis(i));
    EXPECT_EQ(log.take_flush_cost(), 0);
  }
  EXPECT_EQ(device.stats().flushes, 0u);
  EXPECT_GT(log.storage()->dirty_bytes(), 0);
  EXPECT_EQ(log.storage()->end_offset(), 30);
}

TEST(Storage, FlushMessagesPolicyFlushesEveryBatch) {
  StorageConfig config;
  config.flush_messages = 1;
  StorageDevice device{config};
  PartitionLog log;
  log.enable_storage(&device);
  for (int i = 0; i < 5; ++i) {
    log.append(records(static_cast<Key>(i), 1), millis(i));
    EXPECT_GT(log.take_flush_cost(), 0);
    EXPECT_EQ(log.storage()->dirty_bytes(), 0);
  }
  EXPECT_EQ(device.stats().flushes, 5u);
  EXPECT_GT(device.stats().flushed_bytes, 0);
}

TEST(Storage, FlushMessagesThresholdAccumulates) {
  StorageConfig config;
  config.flush_messages = 8;
  StorageDevice device{config};
  PartitionLog log;
  log.enable_storage(&device);
  // 3 + 3 records: below the threshold, everything stays dirty.
  log.append(records(0, 3), 0);
  log.append(records(3, 3), 0);
  EXPECT_EQ(log.take_flush_cost(), 0);
  EXPECT_EQ(device.stats().flushes, 0u);
  // The batch crossing 8 records since the last flush triggers the sync.
  log.append(records(6, 3), 0);
  EXPECT_GT(log.take_flush_cost(), 0);
  EXPECT_EQ(device.stats().flushes, 1u);
  EXPECT_EQ(log.storage()->dirty_bytes(), 0);
}

TEST(Storage, FlushIntervalPolicyFiresOnElapsedTime) {
  StorageConfig config;
  config.flush_interval = millis(10);
  StorageDevice device{config};
  PartitionLog log;
  log.enable_storage(&device);
  log.append(records(0, 2), millis(1));
  EXPECT_EQ(log.take_flush_cost(), 0);  // 1ms since the (t=0) epoch flush.
  log.append(records(2, 2), millis(12));
  EXPECT_GT(log.take_flush_cost(), 0);  // 12ms >= 10ms: policy fires.
  EXPECT_EQ(device.stats().flushes, 1u);
}

TEST(Storage, StalledDeviceMultipliesFlushCost) {
  StorageConfig config;
  config.flush_messages = 1;
  StorageDevice device{config};
  PartitionLog log;
  log.enable_storage(&device);
  log.append(records(0, 1), millis(1));
  const Duration normal = log.take_flush_cost();
  device.stall(millis(100));
  log.append(records(1, 1), millis(2));
  const Duration stalled = log.take_flush_cost();
  EXPECT_GT(stalled, normal);
  EXPECT_EQ(device.stats().stalled_flushes, 1u);
  // Past the stall window the cost drops back.
  log.append(records(2, 1), millis(200));
  EXPECT_LT(log.take_flush_cost(), stalled);
}

TEST(Storage, SegmentsRollAtConfiguredSize) {
  StorageConfig config;
  config.segment_bytes = 300;  // ~2 records of 100B + overhead per segment.
  StorageDevice device{config};
  PartitionLog log;
  log.enable_storage(&device);
  for (int i = 0; i < 8; ++i) {
    log.append(records(static_cast<Key>(i), 1), 0);
  }
  EXPECT_GT(log.storage()->segment_count(), 2u);
  // Offsets stay continuous across segment boundaries.
  EXPECT_EQ(log.storage()->end_offset(), 8);
}

TEST(Storage, PowerLossDropsUnflushedSuffixOnly) {
  StorageConfig config;
  config.flush_messages = 1;
  StorageDevice device{config};
  PartitionLog log;
  log.enable_storage(&device);
  log.append(records(0, 4), millis(1));  // Flushed (policy fires).
  log.take_flush_cost();
  // Disable the sync policy for the suffix by writing fast batches the
  // policy already covered: switch to a second log with OS-cache-only.
  StorageDevice cache_device{StorageConfig{}};
  PartitionLog cache_log;
  cache_log.enable_storage(&cache_device);
  cache_log.append(records(0, 4), millis(1));
  cache_log.append(records(4, 3), millis(2));

  // The fsynced log survives a crash whole; the cached one loses all.
  EXPECT_EQ(log.crash_power_loss(millis(3), /*torn_write=*/false), 0);
  EXPECT_EQ(cache_log.crash_power_loss(millis(3), false), 7);

  RecoveryResult rr;
  log.recover_from_storage(&rr);
  EXPECT_EQ(rr.recovered_records, 4);
  EXPECT_EQ(rr.discarded_records, 0);
  EXPECT_EQ(log.verify_recovery(), 0u);
  EXPECT_EQ(log.log_end_offset(), 4);

  RecoveryResult cr;
  cache_log.recover_from_storage(&cr);
  EXPECT_EQ(cr.recovered_records, 0);
  EXPECT_EQ(cr.discarded_records, 7);
  EXPECT_EQ(cache_log.verify_recovery(), 0u);
}

TEST(Storage, OsWritebackMakesOldBatchesDurable) {
  StorageConfig config;  // Default writeback window: 400ms.
  StorageDevice device{config};
  PartitionLog log;
  log.enable_storage(&device);
  log.append(records(0, 5), millis(10));   // Old enough to be written back.
  log.append(records(5, 5), millis(600));  // Still dirty at the crash.
  EXPECT_EQ(log.crash_power_loss(millis(700), false), 5);
  RecoveryResult rr;
  log.recover_from_storage(&rr);
  EXPECT_EQ(rr.recovered_records, 5);
  EXPECT_EQ(rr.discarded_records, 5);
  EXPECT_EQ(log.log_end_offset(), 5);
  EXPECT_EQ(log.entries()[4].key, 4u);
  EXPECT_EQ(log.verify_recovery(), 0u);
}

TEST(Storage, TornTailFailsCrcAndIsTruncated) {
  StorageDevice device{StorageConfig{}};
  PartitionLog log;
  log.enable_storage(&device);
  log.append(records(0, 6), millis(10));   // Written back by the crash.
  log.append(records(6, 4), millis(600));  // Torn mid-write.
  const auto dropped = log.crash_power_loss(millis(700), /*torn_write=*/true);
  // Half the torn batch's records survive on disk (but fail CRC); the
  // other half never made it.
  EXPECT_EQ(dropped, 2);
  RecoveryResult rr;
  log.recover_from_storage(&rr);
  EXPECT_TRUE(rr.torn_tail);
  EXPECT_EQ(rr.torn_records, 2);
  EXPECT_EQ(rr.recovered_records, 6);
  EXPECT_EQ(rr.discarded_records, 4);  // Dropped half + torn half.
  EXPECT_EQ(log.log_end_offset(), 6);
  EXPECT_EQ(log.verify_recovery(), 0u);
}

TEST(Storage, LatentCorruptionSurfacesAtRecoveryScan) {
  StorageConfig config;
  config.flush_messages = 1;  // Everything durable: only the flip can hurt.
  StorageDevice device{config};
  PartitionLog log;
  log.enable_storage(&device);
  for (int i = 0; i < 6; ++i) {
    log.append(records(static_cast<Key>(i) * 2, 2), millis(i));
    log.take_flush_cost();
  }
  ASSERT_TRUE(log.storage()->corrupt_batch(0x12345));
  EXPECT_EQ(log.crash_power_loss(millis(10), false), 0);
  RecoveryResult rr;
  log.recover_from_storage(&rr);
  EXPECT_EQ(rr.corrupt_batches, 1);
  EXPECT_LT(rr.recovered_records, 12);
  EXPECT_EQ(rr.recovered_records + rr.discarded_records, 12);
  EXPECT_EQ(log.verify_recovery(), 0u);
  // The scan truncates at the first mismatch: the surviving prefix is
  // exactly the batches before the corrupt one.
  EXPECT_EQ(log.log_end_offset(), rr.recovered_end);
  EXPECT_EQ(rr.recovered_records % 2, 0);
}

TEST(Storage, RecoveryRebuildsProducerDedupState) {
  StorageConfig config;
  config.flush_messages = 1;
  StorageDevice device{config};
  PartitionLog log;
  log.enable_storage(&device);
  log.append(records(0, 3), millis(1), /*producer_id=*/7,
             /*base_sequence=*/0);
  log.append(records(3, 2), millis(2), 7, 3);
  log.append(records(5, 2), millis(3), 9, 0);
  log.crash_power_loss(millis(4), false);
  EXPECT_EQ(log.last_sequence_of(7), -1);  // Volatile state is gone...
  RecoveryResult rr;
  log.recover_from_storage(&rr);
  EXPECT_EQ(rr.recovered_records, 7);
  EXPECT_EQ(log.last_sequence_of(7), 4);   // ...and rebuilt by the scan.
  EXPECT_EQ(log.last_sequence_of(9), 1);
  // The rebuilt dedup state still rejects a pre-crash retry.
  auto retry = log.append(records(3, 2), millis(6), 7, 3);
  EXPECT_TRUE(retry.deduplicated);
  EXPECT_EQ(log.log_end_offset(), 7);
}

TEST(Storage, RecoveryRestoresHighWatermarkCheckpoint) {
  StorageConfig config;
  config.flush_messages = 1;
  StorageDevice device{config};
  PartitionLog log;
  log.enable_storage(&device);
  log.enable_replication();
  // Each append piggybacks the HW at the time of the write: grow the log,
  // advancing the HW behind the end like a real follower set would.
  log.append(records(0, 4), millis(1));
  log.advance_high_watermark(4);
  log.append(records(4, 4), millis(2));  // Checkpoints hw=4.
  log.crash_power_loss(millis(3), false);
  RecoveryResult rr;
  log.recover_from_storage(&rr);
  EXPECT_EQ(rr.recovered_records, 8);
  EXPECT_EQ(rr.recovered_hw, 4);
  // The recovered log trusts only the checkpointed commit point; the tail
  // above it is refetched from the new leader.
  EXPECT_EQ(log.high_watermark(), 4);
  EXPECT_EQ(log.verify_recovery(), 0u);
}

// verify_recovery() is the `durable-recovery-prefix` invariant's input: a
// rebuilt log that no longer ends at the ground-truth survivable prefix
// must read nonzero, whichever way it moved.
TEST(Storage, VerifyRecoveryFlagsALogThatLeftTheRecoveredPrefix) {
  StorageConfig config;
  config.flush_messages = 1;
  StorageDevice device{config};
  PartitionLog shorter;
  PartitionLog longer;
  for (PartitionLog* log : {&shorter, &longer}) {
    log->enable_storage(&device);
    log->append(records(0, 3), millis(1));
    log->append(records(3, 3), millis(2));
    log->crash_power_loss(millis(3), false);
    RecoveryResult rr;
    log->recover_from_storage(&rr);
    ASSERT_EQ(rr.recovered_end, 6);
    ASSERT_EQ(log->verify_recovery(), 0u);
  }
  shorter.truncate_to(shorter.log_end_offset() - 1);
  EXPECT_GT(shorter.verify_recovery(), 0u);
  longer.append(records(6, 1), millis(4));
  EXPECT_GT(longer.verify_recovery(), 0u);
}

TEST(Storage, TruncationKeepsStorageInSyncAndCorruptionDetectable) {
  StorageDevice device{StorageConfig{}};
  PartitionLog log;
  log.enable_storage(&device);
  log.append(records(0, 4), millis(1));
  log.append(records(4, 4), millis(2));
  // Corrupt the first (soon straddled) batch, then truncate through it:
  // the rewrite must keep the corruption CRC-detectable. pick=2 lands on
  // batch index 0 of the two stored batches.
  ASSERT_TRUE(log.storage()->corrupt_batch(2));
  log.truncate_to(2);
  EXPECT_EQ(log.storage()->end_offset(), 2);
  log.append(records(2, 2), millis(3));
  log.crash_power_loss(millis(500) + millis(2), false);
  RecoveryResult rr;
  log.recover_from_storage(&rr);
  EXPECT_EQ(rr.corrupt_batches, 1);
  EXPECT_EQ(rr.recovered_records, 0);  // Corruption sat in the first batch.
  EXPECT_EQ(log.verify_recovery(), 0u);
}

// A full disk-fault experiment (power loss, hard restart, recovery scan)
// must replay byte-identically from its seed — the crash-recovery path
// draws no hidden randomness and leaves no cross-run state.
TEST(Storage, CrashRestartReplayIsDeterministic) {
  // Find a disk-profile scenario whose schedule actually cuts power.
  testbed::Scenario scenario;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 64 && !found; ++seed) {
    const auto cs =
        chaos::generate_scenario(seed, chaos::Profile::kDiskFaults);
    for (const auto& f : cs.scenario.faults) {
      if (f.kind == testbed::FaultAction::Kind::kPowerLoss) {
        scenario = cs.scenario;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);
  const auto first = testbed::run_experiment(scenario);
  const auto second = testbed::run_experiment(scenario);
  ASSERT_GT(first.power_losses, 0u);
  EXPECT_EQ(first.report.canonical_json(), second.report.canonical_json());
}

}  // namespace
}  // namespace ks::kafka
