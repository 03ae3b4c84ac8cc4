// The manifest is the store's single atomically-replaced root pointer: it
// names the live log generation and the segment files backing each bucket
// (in snapshot order). Everything it references is fsynced — data and
// directory entries — before the manifest itself is installed via
// AtomicWriteFile, so a durable manifest implies a durable store image.
// Because installation is atomic, a manifest that exists but fails its
// checksum is disk damage, not a crash artifact, and recovery aborts
// rather than guessing.

#ifndef PNN_STORE_MANIFEST_H_
#define PNN_STORE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace pnn {
namespace store {

struct Manifest {
  uint64_t generation = 0;    // Live op log: oplog-<generation>.
  int64_t next_id = 0;        // Id floor at the checkpoint (replay can raise it).
  uint64_t move_seq = 0;      // Format compatibility only; written as 0.
  uint64_t engine_seed = 0;   // The engine seed every segment was cut under.
  /// Segment file ids in bucket snapshot order; bucket i of the recovered
  /// engine loads from seg-<segments[i]>.seg, and kMask records address
  /// buckets by ordinal into this list.
  std::vector<uint64_t> segments;
};

std::string EncodeManifest(const Manifest& m);

/// Installs `m` at `path` atomically (temp + fsync + rename + dir fsync).
/// On failure the previous manifest is still the runtime view, except for
/// the rename-ok/dirsync-failed ambiguity documented on AtomicWriteFile —
/// callers treat any non-OK install as "may or may not be durable" and
/// never reuse the generation number of a failed attempt.
util::Status WriteManifest(const std::string& path, const Manifest& m);

/// False if `path` does not exist (a fresh store). Aborts on a present but
/// corrupt manifest — see the header comment.
bool ReadManifest(const std::string& path, Manifest* out);

}  // namespace store
}  // namespace pnn

#endif  // PNN_STORE_MANIFEST_H_
