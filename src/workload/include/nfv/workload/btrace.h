// Binary event-trace wire format "nfvpr.btrace/1" (DESIGN.md §15): the
// compact, allocation-free twin of the JSON "nfvpr.trace/{1,2}" text
// format, built for the serve engine's production front door where the
// text parser's per-event tokenization dominates the event path.
//
// Layout (all integers little-endian where fixed-width; varints are
// unsigned LEB128, at most 10 bytes):
//
//   header:
//     bytes 0..5   magic "NFVBT1" (format version is baked into the magic)
//     byte  6      flags (reserved, must be 0)
//     varint       vnf_count   (>= 1)
//     varint       event_count
//   then event_count records, each:
//     varint       payload length in bytes (everything after this varint)
//     u8           kind (0 arrive, 1 depart, 2 rate_change,
//                        3 node_down, 4 node_up)
//     varint       timestamp delta: IEEE-754 bits of this event's time
//                  XORed with the previous event's time bits (0.0 before
//                  the first record).  Non-decreasing timestamps share
//                  their high exponent/mantissa bits, so the XOR is a
//                  small integer and the varint stays short — while
//                  decode→encode stays bit-exact for any double.
//     then by kind:
//       arrive:      varint request, u64 rate bits, u64 delivery_prob
//                    bits, varint chain length, chain length × varint
//                    VNF index
//       depart:      varint request
//       rate_change: varint request, u64 rate bits
//       node_down / node_up: varint node
//
// Rate fields are raw IEEE-754 bits (not fixed-point) so every trace the
// text format can carry round-trips byte-exactly in both directions:
// text → binary → text reproduces the canonical JSON byte for byte, and
// binary → text → binary reproduces the binary bytes.
//
// Versioning and evolution rules: the magic pins the major version — any
// incompatible record-layout change bumps "NFVBT1" to "NFVBT2" and keeps
// this decoder rejecting it loudly.  The flags byte is the minor escape
// hatch: readers reject non-zero flags today, so a future writer can only
// set a flag together with a reader that understands it.
//
// Like the text loader, every malformed input throws TraceParseError so
// the CLI maps it to the usage exit code (2).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "nfv/workload/event_stream.h"

namespace nfv::workload {

inline constexpr std::string_view kBinaryTraceSchema = "nfvpr.btrace/1";
/// First bytes of every binary trace; also the format version pin.
inline constexpr std::string_view kBinaryTraceMagic = "NFVBT1";

/// True when `data` starts with the binary-trace magic (how `nfvpr serve`
/// and `nfvpr transcode-trace` auto-detect the format).
[[nodiscard]] bool is_binary_trace(std::string_view data);

/// Serializes under kBinaryTraceSchema; load_binary_trace round-trips the
/// bytes exactly, and save_event_trace(load_binary_trace(b)) reproduces
/// the canonical text form the trace was transcoded from.
void save_binary_trace(const EventTrace& trace, std::ostream& out);
[[nodiscard]] std::string save_binary_trace_string(const EventTrace& trace);

/// Parses and fully validates (EventTrace::validate) a binary trace: a
/// drain of BinaryTraceDecoder, for transcoding and tests.
[[nodiscard]] EventTrace load_binary_trace(std::string_view data);

/// Streaming decoder over an in-memory binary trace, the binary side of
/// the TraceReader interface the serve hot path (`nfvpr serve`,
/// ServeEngine::replay) pulls from.  It allocates nothing in steady state:
/// next() writes into a caller-owned StreamEvent whose chain vector is
/// reused (clear() keeps capacity), and the decoder's only buffer — a sort
/// scratch for the distinctness check of unusually long chains — keeps its
/// capacity across records.  It is final, so direct calls (perfbench's)
/// need no virtual dispatch.
///
/// next() enforces every record-local invariant of the text format
/// (monotonic finite timestamps, positive finite rates, delivery
/// probability in (0, 1], non-empty distinct in-range chains).  Unlike
/// the text reader it leaves the cross-event invariants (request liveness,
/// node up/down alternation) to the consumer, which tracks that state
/// anyway: the serve engine throws the same TraceParseError on violation,
/// and load_binary_trace runs the full EventTrace::validate replay.
class BinaryTraceDecoder final : public TraceReader {
 public:
  /// Parses the header; throws TraceParseError on bad magic/flags/counts.
  explicit BinaryTraceDecoder(std::string_view data);

  [[nodiscard]] std::uint32_t vnf_count() const override { return vnf_count_; }
  [[nodiscard]] std::uint64_t event_count() const { return count_; }
  /// Records decoded (or skipped) so far.
  [[nodiscard]] std::uint64_t decoded() const override { return index_; }
  [[nodiscard]] bool done() const override { return index_ == count_; }

  /// Byte offset of the next record (just past the header initially);
  /// pairs with last_time_bits() as a resumable cursor.
  [[nodiscard]] std::uint64_t byte_offset() const { return pos_; }
  /// IEEE-754 bits of the last decoded timestamp (the XOR base for the
  /// next record; bits of 0.0 before the first).
  [[nodiscard]] std::uint64_t last_time_bits() const { return prev_bits_; }

  /// Decodes the next record into `out`, reusing its chain capacity.
  /// Returns false at a clean end of stream (and then requires the buffer
  /// to hold no trailing bytes); throws TraceParseError on corruption.
  bool next(StreamEvent& out) override;

  /// Skips `n` records without materializing events (decodes only the
  /// record framing and timestamp so the cursor stays consistent).
  /// Throws TraceParseError past the end of the stream.
  void skip(std::uint64_t n) override;

  /// Restores a cursor previously read off byte_offset() / decoded() /
  /// last_time_bits() — the serve checkpoint's binary trace cursor.  The
  /// offset must lie on a record boundary of this buffer; corruption
  /// surfaces as TraceParseError on the next next()/skip().
  void seek(std::uint64_t byte_offset, std::uint64_t record_index,
            std::uint64_t time_bits);

 private:
  [[noreturn]] void fail(const std::string& what) const;
  [[nodiscard]] std::uint64_t read_varint(const char* what,
                                          const std::uint8_t* end);
  [[nodiscard]] std::uint32_t read_id(const char* what,
                                      const std::uint8_t* end);

  const std::uint8_t* data_ = nullptr;
  std::uint64_t size_ = 0;
  std::uint64_t pos_ = 0;
  std::uint64_t index_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t prev_bits_ = 0;
  double prev_time_ = 0.0;  ///< double_of(prev_bits_), cached off the hot path
  std::uint32_t vnf_count_ = 0;
  /// Distinctness scratch for chains too long for the quadratic scan;
  /// sized lazily, capacity retained (no steady-state allocation).
  std::vector<std::uint32_t> chain_scratch_;
};

}  // namespace nfv::workload
