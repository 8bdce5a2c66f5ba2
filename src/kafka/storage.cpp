#include "kafka/storage.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "kafka/record.hpp"

namespace ks::kafka {

namespace {

// Reflected Castagnoli polynomial, table-driven (byte at a time). Fast
// enough for sim-scale logs and bit-exact across platforms.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

struct Crc32cTable {
  std::uint32_t t[256];
  constexpr Crc32cTable() : t{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (kCrc32cPoly ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};

constexpr Crc32cTable kCrcTable{};

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (len-- > 0) {
    crc = kCrcTable.t[(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

Duration StorageDevice::flush_cost(Bytes dirty, TimePoint now) const {
  Duration cost = config_.flush_latency +
                  static_cast<Duration>(std::llround(
                      static_cast<double>(dirty) * config_.flush_per_byte_us));
  if (stalled(now)) {
    cost = static_cast<Duration>(std::llround(
        static_cast<double>(cost) * config_.stall_factor));
  }
  return cost;
}

namespace {

Bytes wire_bytes_of(std::span<const LogEntry> records) {
  Bytes total = 0;
  for (const auto& r : records) total += kRecordOverhead + r.value_size;
  return total;
}

}  // namespace

std::uint32_t SegmentedLog::content_crc(std::int64_t base_offset,
                                        std::span<const LogEntry> records) {
  // Checksum the logical batch content (header + per-record fields, each a
  // little-endian u64) — the analogue of Kafka's record-batch CRC over the
  // batch body — fed through the incremental CRC one record at a time.
  unsigned char buf[7 * 8];
  const auto put64 = [&buf](int slot, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf[slot * 8 + i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFFu);
    }
  };
  put64(0, static_cast<std::uint64_t>(base_offset));
  put64(1, static_cast<std::uint64_t>(records.size()));
  std::uint32_t crc = crc32c(buf, 16);
  for (const auto& r : records) {
    put64(0, static_cast<std::uint64_t>(r.offset));
    put64(1, r.key);
    put64(2, static_cast<std::uint64_t>(r.value_size));
    put64(3, static_cast<std::uint64_t>(r.append_time));
    put64(4, static_cast<std::uint64_t>(r.leader_epoch));
    put64(5, r.producer_id);
    put64(6, static_cast<std::uint64_t>(r.sequence));
    crc = crc32c(buf, sizeof buf, crc);
  }
  return crc;
}

Duration SegmentedLog::append_batch(std::span<const LogEntry> batch,
                                    Bytes wire_bytes,
                                    std::int64_t hw_at_append, TimePoint now) {
  assert(!batch.empty());
  assert(batch.front().offset == end_offset_);
  if (segment_starts_.empty() ||
      active_segment_bytes_ >= device_->config().segment_bytes) {
    segment_starts_.push_back(batches_.size());
    active_segment_bytes_ = 0;
  }
  const auto count = static_cast<std::int64_t>(batch.size());
  active_segment_bytes_ += wire_bytes;
  batches_.push_back(StoredBatch{end_offset_, count,
                                 content_crc(end_offset_, batch), now,
                                 wire_bytes, hw_at_append});
  end_offset_ += count;
  dirty_bytes_ += wire_bytes;
  records_since_flush_ += count;

  Duration cost = 0;
  maybe_sync_flush(now, &cost);
  return cost;
}

void SegmentedLog::maybe_sync_flush(TimePoint now, Duration* cost) {
  const auto& cfg = device_->config();
  const bool by_count =
      cfg.flush_messages > 0 && records_since_flush_ >= cfg.flush_messages;
  const bool by_time =
      cfg.flush_interval > 0 && now - last_flush_ >= cfg.flush_interval;
  if (!by_count && !by_time) return;
  *cost = device_->flush_cost(dirty_bytes_, now);
  auto& st = device_->stats();
  ++st.flushes;
  st.flushed_bytes += dirty_bytes_;
  if (device_->stalled(now)) ++st.stalled_flushes;
  flush(now);
}

void SegmentedLog::flush(TimePoint now) {
  // Dirty batches are always a suffix; walk back until the flushed prefix.
  for (auto b = batches_.rbegin(); b != batches_.rend() && !b->flushed; ++b) {
    b->flushed = true;
  }
  dirty_bytes_ = 0;
  records_since_flush_ = 0;
  last_flush_ = now;
}

void SegmentedLog::resync_accounting() {
  while (!segment_starts_.empty() &&
         segment_starts_.back() >= batches_.size()) {
    segment_starts_.pop_back();
  }
  active_segment_bytes_ = 0;
  dirty_bytes_ = 0;
  for (std::size_t i = 0; i < batches_.size(); ++i) {
    if (i >= segment_starts_.back()) {
      active_segment_bytes_ += batches_[i].wire_bytes;
    }
    if (!batches_[i].flushed) dirty_bytes_ += batches_[i].wire_bytes;
  }
}

void SegmentedLog::truncate_to(std::int64_t offset,
                               std::span<const LogEntry> log) {
  offset = std::max<std::int64_t>(offset, 0);
  if (offset >= end_offset_) return;
  while (!batches_.empty() && batches_.back().base_offset >= offset) {
    batches_.pop_back();
  }
  if (!batches_.empty() && batches_.back().end() > offset) {
    // Straddled batch: rewrite it in place with the surviving prefix.
    auto& b = batches_.back();
    b.count = offset - b.base_offset;
    b.wire_bytes = wire_bytes_of(b.in(log));
    b.crc = content_crc(b.base_offset, b.in(log));
    // A latent bit flip must stay detectable through the rewrite.
    if (b.corrupt) b.crc ^= 1u;
  }
  end_offset_ = offset;
  resync_accounting();
}

SegmentedLog::PowerLossResult SegmentedLog::power_loss(
    TimePoint now, bool torn_write, std::vector<LogEntry> log) {
  assert(disk_image_.empty());
  assert(static_cast<std::int64_t>(log.size()) == end_offset_);
  PowerLossResult out;
  const auto& cfg = device_->config();
  // OS background writeback: dirty batches past the writeback window are
  // on disk even without an explicit flush.
  for (auto& b : batches_) {
    if (!b.flushed && b.append_time + cfg.os_writeback_after <= now) {
      b.flushed = true;
    }
  }
  // Durability is a prefix property (flushes cover the whole dirty set and
  // writeback ages in append order): find the first unflushed batch and
  // drop everything from there.
  auto keep = static_cast<std::size_t>(
      std::find_if(batches_.begin(), batches_.end(),
                   [](const StoredBatch& b) { return !b.flushed; }) -
      batches_.begin());
  for (std::size_t i = keep; i < batches_.size(); ++i) {
    out.dropped_records += batches_[i].count;
  }
  if (torn_write && keep < batches_.size()) {
    // The first lost batch was mid-write: a prefix of its records made it
    // to the platters, but its CRC (computed over the full batch) can no
    // longer validate. The stub survives for the recovery scan to find.
    auto& b = batches_[keep++];
    b.count /= 2;
    out.dropped_records -= b.count;
    b.wire_bytes = wire_bytes_of(b.in(log));
    b.torn = true;
    out.tore = true;
  }
  batches_.resize(keep);
  end_offset_ = batches_.empty() ? 0 : batches_.back().end();
  resync_accounting();
  records_since_flush_ = 0;
  pending_power_loss_drop_ += out.dropped_records;
  // What reached the platters, torn stub included, is the disk image the
  // recovery scan reads.
  log.resize(static_cast<std::size_t>(end_offset_));
  disk_image_ = std::move(log);
  // Ground truth for verify_recovered: a correct recovery keeps exactly
  // the records below the first batch whose fault flags say it cannot
  // validate (torn tail or latent corruption).
  expected_recover_end_ = 0;
  for (const auto& b : batches_) {
    if (b.torn || b.corrupt) break;
    expected_recover_end_ = b.end();
  }
  return out;
}

bool SegmentedLog::corrupt_batch(std::uint64_t pick) {
  std::vector<StoredBatch*> all;
  std::vector<StoredBatch*> durable;
  for (auto& b : batches_) {
    all.push_back(&b);
    if (b.flushed) durable.push_back(&b);
  }
  auto& pool = durable.empty() ? all : durable;
  if (pool.empty()) return false;
  StoredBatch& b = *pool[pick % pool.size()];
  if (b.corrupt) return true;  // Idempotent under repeated picks.
  b.corrupt = true;
  // CRC32C detects every single-bit error, so a flip in the stored
  // checksum fails the scan exactly as a flip in a record would.
  b.crc ^= 1u << ((pick >> 20) & 31u);
  return true;
}

RecoveryResult SegmentedLog::recover(std::vector<LogEntry>& out) {
  RecoveryResult rr;
  const auto& cfg = device_->config();
  const std::span<const LogEntry> image(disk_image_);
  bool bad = false;
  for (const auto& b : batches_) {
    if (bad) {
      // Past the first failure everything is untrusted and dropped.
      rr.discarded_records += b.count;
      continue;
    }
    ++rr.scanned_batches;
    rr.scanned_bytes += b.wire_bytes;
    if (content_crc(b.base_offset, b.in(image)) != b.crc) {
      bad = true;
      rr.discarded_records += b.count;
      if (b.torn) {
        rr.torn_tail = true;
        rr.torn_records += b.count;
      } else {
        ++rr.corrupt_batches;
      }
      continue;
    }
    rr.recovered_records += b.count;
    rr.recovered_hw = std::max(rr.recovered_hw, b.hw_at_append);
  }
  rr.recovered_end = rr.recovered_records;
  rr.recovered_hw = std::min(rr.recovered_hw, rr.recovered_end);
  rr.discarded_records += pending_power_loss_drop_;
  pending_power_loss_drop_ = 0;
  rr.scan_duration =
      micros(100) + static_cast<Duration>(std::llround(
                        static_cast<double>(rr.scanned_bytes) *
                        cfg.scan_per_byte_us));
  // Truncate storage at the failure point and mark the survivors clean:
  // recovery rewrites the recovery point and fsyncs what it keeps.
  truncate_to(rr.recovered_end, image);
  for (auto& b : batches_) b.flushed = true;
  dirty_bytes_ = 0;
  records_since_flush_ = 0;
  // The valid prefix goes back to the log; storage keeps only metadata.
  disk_image_.resize(static_cast<std::size_t>(rr.recovered_end));
  out = std::exchange(disk_image_, {});
  return rr;
}

std::uint64_t SegmentedLog::verify_recovered(
    const std::vector<LogEntry>& entries) const {
  std::uint64_t violations = 0;
  // The CRC-driven scan must land exactly on the ground-truth survivable
  // prefix computed from the fault flags at power-loss time.
  if (expected_recover_end_ >= 0 &&
      static_cast<std::int64_t>(entries.size()) != expected_recover_end_) {
    ++violations;
  }
  // The rebuilt log must be contiguous from offset zero...
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].offset != static_cast<std::int64_t>(i)) ++violations;
  }
  // ...and hold exactly the records every surviving batch was appended with.
  // (A torn one-record batch leaves a zero-record stub at the recovered end
  // that the scan rejected but does not truncate away; it holds nothing.)
  for (const auto& b : batches_) {
    if (b.torn) continue;
    if (b.end() > static_cast<std::int64_t>(entries.size()) ||
        content_crc(b.base_offset, b.in(entries)) != b.crc) {
      ++violations;
    }
  }
  return violations;
}

}  // namespace ks::kafka
