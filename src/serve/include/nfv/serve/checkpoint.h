// Crash-safe checkpoint/resume for the online serving engine (DESIGN.md
// §13): a versioned JSON snapshot ("nfvpr.checkpoint/1") of the FULL
// engine state — instances, live/queued/retrying requests, node health,
// degradation window, availability integrals, aggregate counters, and the
// per-event outcome log — plus the trace cursor (events already applied).
//
// The resume contract is byte-identity: a run killed at any event index
// and restored from its last checkpoint produces exactly the same final
// report, summary, and events log as the uninterrupted run, for any
// --threads setting.  To guarantee that, every incrementally
// maintained float (instance loads, node residuals, availability
// integrals) is serialized verbatim with round-trip precision and restored
// verbatim — never recomputed, because a recomputation would re-associate
// the floating-point additions in a different order.
//
// Each persisted struct has one field list in checkpoint.cc naming every
// key once; the writer and the reader walk the same list, so the two sides
// cannot drift apart.  The reader checks every integer against its
// destination type and, after the walk, that each instance's members are
// exactly the live requests whose hops point at it.
//
// Malformed or truncated checkpoint text throws CheckpointParseError (NOT
// std::invalid_argument), which the CLI maps to the usage exit code (2).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "nfv/serve/engine.h"

namespace nfv::serve {

inline constexpr std::string_view kCheckpointSchema = "nfvpr.checkpoint/1";

/// Thrown on malformed checkpoint text or violated structural invariants.
class CheckpointParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Resumable position inside a binary "nfvpr.btrace/1" trace: the byte
/// offset of the next undecoded record plus the IEEE-754 bits of the last
/// decoded timestamp (the XOR base the next record's delta applies to).
/// Only binary-trace serve runs write it — text-path checkpoints carry no
/// cursor fields and stay byte-identical to the pre-btrace format.
struct BinaryTraceCursor {
  std::uint64_t byte_offset = 0;
  std::uint64_t time_bits = 0;
};

/// Light summary returned by peek_checkpoint.
struct CheckpointInfo {
  std::uint64_t cursor = 0;     ///< trace events already applied
  std::uint64_t vnf_count = 0;  ///< size of the VNF universe
  std::uint64_t node_count = 0;
  std::uint64_t live_requests = 0;
  std::uint64_t logged_events = 0;
  /// Present when the checkpointed run was serving a binary trace.
  bool has_btrace_cursor = false;
  BinaryTraceCursor btrace;
};

/// Serializes the engine state after `cursor` trace events were applied.
/// `btrace` (optional) records the matching binary-trace position; passing
/// nullptr — every text-path caller — keeps the output byte-identical to
/// the original nfvpr.checkpoint/1 layout.
void save_checkpoint(const ServeEngine& engine, std::uint64_t cursor,
                     std::ostream& out,
                     const BinaryTraceCursor* btrace = nullptr);
[[nodiscard]] std::string save_checkpoint_string(
    const ServeEngine& engine, std::uint64_t cursor,
    const BinaryTraceCursor* btrace = nullptr);

/// Parses and structurally validates checkpoint text without needing a
/// topology (the fuzz target's entry point); throws CheckpointParseError.
[[nodiscard]] CheckpointInfo peek_checkpoint(std::string_view text);

/// Reconstructs an engine mid-trace.  The topology and VNF universe must
/// be the ones the checkpointed run used (counts are verified; the config
/// is taken from the checkpoint so resumed decisions match the original
/// run exactly).  Returns the engine; `*cursor` receives the number of
/// trace events to skip.  When the checkpoint carries a binary-trace
/// cursor and `btrace`/`has_btrace` are non-null, they receive it — the
/// resume path seeks the decoder there instead of skipping records.
/// Throws CheckpointParseError on any mismatch.
[[nodiscard]] ServeEngine restore_checkpoint(std::string_view text,
                                             topo::Topology topology,
                                             std::vector<workload::Vnf> vnfs,
                                             std::uint64_t* cursor,
                                             BinaryTraceCursor* btrace = nullptr,
                                             bool* has_btrace = nullptr);

}  // namespace nfv::serve
