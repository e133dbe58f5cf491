// Snapshot checkpoints: the WAL's truncation points (DESIGN.md §10.3).
//
// A checkpoint serializes one published version completely — the
// snapshot's sorted canonical keys, its content checksum, and the sorted
// key set of the *graph* the backend was maintaining at that version (the
// durability layer's graph shadow, needed to rebuild a backend after
// recovery). Once a checkpoint is durable, every WAL record at or below
// its version is dead weight and the log is truncated to a fresh segment.
//
// File format (all integers little-endian, like the WAL):
//
//   magic u64 | version u64 | n u64 | stretch u32 |
//   snapshot_checksum u64 | snap_keys u64 | graph_keys u64 |
//   snap keys ... | graph keys ... | crc32c(everything above) u32
//
// Atomicity: written to `ckpt.tmp`, synced, then renamed to
// ckpt-<version:016x>.snap (rename + directory sync = the commit point).
// A crash between the two leaves a tmp file recovery ignores; a crash
// mid-write leaves a tmp file whose CRC fails. Either way the previous
// checkpoint still commits the shard.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "durability/fs.hpp"
#include "util/types.hpp"

namespace parspan {

/// One shard's complete durable state at a version: what a checkpoint file
/// holds, what the verified chain fold rebuilds (wal_tail.hpp), and what a
/// snapshot ship frame carries to a follower.
struct DurableState {
  uint64_t n = 0;
  uint32_t stretch = 0;
  uint64_t version = 0;
  uint64_t checksum = 0;            // snapshot content checksum at `version`
  std::vector<EdgeKey> snap_keys;   // ascending; the spanner at `version`
  std::vector<EdgeKey> graph_keys;  // ascending; the graph at `version`
};

/// File name of a committed checkpoint ("ckpt-<version:016x>.snap").
std::string checkpoint_file_name(uint64_t version);
/// Parses a committed checkpoint file name; nullopt for other files.
std::optional<uint64_t> parse_checkpoint_file_name(const std::string& name);

/// Writes `ckpt` durably into `dir` (tmp + sync + atomic rename). False on
/// any I/O failure; `dir` is left with either the committed file or junk
/// recovery ignores.
bool write_checkpoint(Fs& fs, const std::string& dir, const DurableState& ckpt);

/// Loads and structurally validates (magic, CRC, sorted-unique keys) one
/// committed checkpoint. nullopt when missing or corrupt.
std::optional<DurableState> load_checkpoint(Fs& fs, const std::string& dir,
                                            uint64_t version);

}  // namespace parspan
