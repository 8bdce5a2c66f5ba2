// The partition log: an append-only sequence of records with offsets,
// including idempotent-producer sequence deduplication (the mechanism
// behind Kafka's exactly-once producer semantics), a high watermark for
// replicated partitions, and truncation for follower log reconciliation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "kafka/protocol.hpp"
#include "kafka/record.hpp"

namespace ks::kafka {

class SegmentedLog;
class StorageDevice;
struct RecoveryResult;

struct LogEntry {
  std::int64_t offset = 0;
  Key key = 0;
  Bytes value_size = 0;
  TimePoint append_time = 0;
  // Replication metadata: which leader epoch appended the entry (divergence
  // detection) and the idempotent-producer identity of its batch (so replica
  // logs can rebuild producer dedup state after an election).
  std::int32_t leader_epoch = 0;
  std::uint64_t producer_id = 0;
  std::int64_t sequence = -1;
};

class PartitionLog {
 public:
  PartitionLog();
  ~PartitionLog();
  PartitionLog(const PartitionLog&) = delete;
  PartitionLog& operator=(const PartitionLog&) = delete;

  struct AppendResult {
    ErrorCode error = ErrorCode::kNone;
    std::int64_t base_offset = -1;
    bool deduplicated = false;  ///< Idempotence dropped a duplicate batch.
  };

  /// Append a batch. With producer_id != 0 the (producer_id, base_sequence)
  /// pair deduplicates retried batches: a batch whose sequence was already
  /// appended is acknowledged without appending again.
  AppendResult append(std::span<const Record> records,
                      TimePoint append_time,
                      std::uint64_t producer_id = 0,
                      std::int64_t base_sequence = -1,
                      std::int32_t leader_epoch = 0);

  /// Follower-side append of one entry copied from the leader. The entry
  /// must land exactly at the log end (replication is a prefix copy);
  /// producer dedup state is updated so the replica can serve idempotent
  /// producers after an election. `local_write_time` is the follower's own
  /// clock at the write (storage writeback aging), not the entry's
  /// original leader-side append_time.
  void append_replicated(const LogEntry& entry, TimePoint local_write_time = 0);

  /// Records in [offset, offset + max_records).
  std::span<const LogEntry> read(std::int64_t offset,
                                 std::size_t max_records) const;

  std::int64_t log_end_offset() const noexcept {
    return static_cast<std::int64_t>(entries_.size());
  }

  /// Mark this log as a replicated partition: the high watermark becomes an
  /// explicit commit point (min ISR log end) instead of tracking the log
  /// end. Unreplicated logs keep high_watermark() == log_end_offset(), so
  /// single-broker setups behave exactly as before.
  void enable_replication() noexcept { replicated_ = true; }
  bool replicated() const noexcept { return replicated_; }

  /// Committed offset: entries below it are durable under clean failover.
  std::int64_t high_watermark() const noexcept {
    return replicated_ ? high_watermark_ : log_end_offset();
  }

  /// Raise the high watermark (never lowers; clamped to the log end).
  void advance_high_watermark(std::int64_t offset) noexcept;

  /// Drop every entry at offset >= `offset` (follower reconciliation when
  /// becoming a follower or on leader divergence). Rebuilds producer dedup
  /// state from the surviving entries and clamps the high watermark.
  void truncate_to(std::int64_t offset);

  /// Last sequence appended by `producer_id`, or -1 (for leader-side dedup
  /// state rebuilt after an election).
  std::int64_t last_sequence_of(std::uint64_t producer_id) const;

  // ---- durable storage (see kafka/storage.hpp) ----------------------------

  /// Back this log with a SegmentedLog on `device`, which tracks each
  /// appended batch's CRC and flush state (the records stay here). Must be
  /// called while the log is empty. With default flush knobs storage is
  /// pure bookkeeping (no service time, no randomness).
  void enable_storage(StorageDevice* device);
  bool durable() const noexcept { return storage_ != nullptr; }
  SegmentedLog* storage() noexcept { return storage_.get(); }
  const SegmentedLog* storage() const noexcept { return storage_.get(); }

  /// Synchronous-flush cost accrued by appends since the last take (the
  /// broker charges it to its request thread before serving on).
  Duration take_flush_cost() noexcept {
    const Duration d = pending_flush_cost_;
    pending_flush_cost_ = 0;
    return d;
  }

  /// Power cut: all volatile state is gone (entries, producer dedup, high
  /// watermark); the entries pass to storage, which keeps what was flushed
  /// or written back, possibly with a torn tail batch, until the recovery
  /// scan. Returns the records dropped from disk.
  std::int64_t crash_power_loss(TimePoint now, bool torn_write);

  /// Recovery scan after a hard restart: rebuild entries, producer dedup
  /// state and the high-watermark checkpoint from storage's surviving
  /// prefix. Fills `*out` with the scan accounting.
  void recover_from_storage(RecoveryResult* out);

  /// Cross-check the rebuilt log against storage ground truth; nonzero is
  /// a recovery bug (the `durable-recovery-prefix` invariant input).
  std::uint64_t verify_recovery() const;

  Bytes size_bytes() const noexcept { return size_bytes_; }
  const std::vector<LogEntry>& entries() const noexcept { return entries_; }
  std::uint64_t deduplicated_batches() const noexcept { return deduped_; }
  std::uint64_t truncations() const noexcept { return truncations_; }
  std::int64_t truncated_entries() const noexcept {
    return truncated_entries_;
  }

 private:
  struct ProducerState {
    std::int64_t last_sequence = -1;
  };

  /// Rebuild producer dedup state and byte accounting from entries_.
  void rebuild_from_entries();

  std::vector<LogEntry> entries_;
  Bytes size_bytes_ = 0;
  std::unordered_map<std::uint64_t, ProducerState> producers_;
  std::uint64_t deduped_ = 0;
  bool replicated_ = false;
  std::int64_t high_watermark_ = 0;
  std::uint64_t truncations_ = 0;
  std::int64_t truncated_entries_ = 0;
  std::unique_ptr<SegmentedLog> storage_;
  Duration pending_flush_cost_ = 0;
};

}  // namespace ks::kafka
