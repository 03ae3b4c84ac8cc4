// The append-only op log: every acked mutation is a CRC-framed record
// appended (and, by default, fdatasync'd) BEFORE the engine applies it and
// the caller sees the ack — so the recovered state is always a logged
// prefix that is a superset of the acked prefix. Rotation (a checkpoint)
// starts a fresh log whose head re-describes the tombstone masks and
// brute-force tail of the snapshot it was cut against, keeping log size
// proportional to the tail rather than the history.
//
// Replay is tolerant of a torn final region: frames are consumed until the
// first bad one (short header, absurd length, CRC mismatch, undecodable
// payload, or a non-increasing seqno), and the reader reports how many
// bytes were valid so the store can truncate the tear. A corrupt frame is
// never accepted — the CRC gates every byte that reaches the decoder.

#ifndef PNN_STORE_LOG_H_
#define PNN_STORE_LOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/dyn/bucket.h"
#include "src/store/io.h"
#include "src/uncertain/uncertain_point.h"

namespace pnn {
namespace store {

enum class LogRecordType : uint8_t {
  /// First record of every log generation: {generation, next_id,
  /// delta_count}. The following `delta_count` records (masks + tail
  /// inserts) re-describe the checkpoint snapshot's non-segment state and
  /// were fsynced before the manifest pointed here — if replay finds fewer,
  /// that is disk corruption, not a crash, and recovery aborts.
  kCheckpoint = 1,
  /// Positional tombstone: local slot `local_index` of the bucket loaded
  /// from manifest segment ordinal `segment_ordinal` is dead. Positional —
  /// never keyed by id — because an id can recur dead in one part and live
  /// in another mid-compaction.
  kMask = 2,
  kInsert = 3,   // {id, point} — also used to re-describe the tail at rotation.
  kErase = 4,    // {id}
  /// Move records {id, move_seq[, point]}, written by the former in-process
  /// sharded store when a point migrated between shards. Nothing writes
  /// them now; they stay in the format so old logs still decode, and
  /// replay applies kMoveIn as an insert and kMoveOut as an erase.
  kMoveIn = 5,
  kMoveOut = 6,
};

struct LogRecord {
  LogRecordType type = LogRecordType::kInsert;
  uint64_t seqno = 0;

  // kCheckpoint:
  uint64_t generation = 0;
  int64_t next_id = 0;
  uint64_t delta_count = 0;

  // kMask:
  uint64_t segment_ordinal = 0;
  uint64_t local_index = 0;

  // kInsert / kErase / kMoveIn / kMoveOut:
  int64_t id = 0;
  uint64_t move_seq = 0;
  std::optional<UncertainPoint> point;  // kInsert / kMoveIn only.
};

/// Appends the framed encoding of `rec` to `out` (frame = u32 length,
/// u32 CRC-32C of payload, payload).
void AppendLogRecord(const LogRecord& rec, std::string* out);

/// Everything a log file yielded before its first bad frame.
struct LogReplay {
  std::vector<LogRecord> records;
  uint64_t valid_bytes = 0;  // Prefix length holding only whole good frames.
  bool truncated = false;    // Bytes beyond valid_bytes existed and were bad.
};

/// Reads `path` front to back. Missing file → empty replay (valid_bytes 0,
/// not truncated). Every accepted record passed its CRC; the tail past the
/// first bad frame is reported, never parsed.
LogReplay ReadLog(const std::string& path);

}  // namespace store
}  // namespace pnn

#endif  // PNN_STORE_LOG_H_
