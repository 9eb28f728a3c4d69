#include "nfv/workload/btrace.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>

static_assert(std::endian::native == std::endian::little,
              "nfvpr.btrace/1 decode uses raw little-endian loads; add "
              "byte-swapping before porting to a big-endian host");

namespace nfv::workload {

namespace {

// Record kind codes on the wire.  Kept separate from StreamEventKind's
// underlying values on purpose: the enum is free to evolve, the wire is not.
constexpr std::uint8_t kWireArrive = 0;
constexpr std::uint8_t kWireDepart = 1;
constexpr std::uint8_t kWireRateChange = 2;
constexpr std::uint8_t kWireNodeDown = 3;
constexpr std::uint8_t kWireNodeUp = 4;

// Chains at or below this length use the quadratic distinctness scan (no
// memory traffic at all); longer ones fall back to a sort over scratch.
constexpr std::size_t kQuadraticChainLimit = 32;

std::uint64_t bits_of(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

double double_of(std::uint64_t b) {
  double d;
  std::memcpy(&d, &b, sizeof d);
  return d;
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(0x80 | (v & 0x7f)));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint8_t wire_kind(StreamEventKind kind) {
  switch (kind) {
    case StreamEventKind::kArrive:
      return kWireArrive;
    case StreamEventKind::kDepart:
      return kWireDepart;
    case StreamEventKind::kRateChange:
      return kWireRateChange;
    case StreamEventKind::kNodeDown:
      return kWireNodeDown;
    case StreamEventKind::kNodeUp:
      return kWireNodeUp;
  }
  throw TraceParseError("binary trace: unencodable event kind");
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

bool is_binary_trace(std::string_view data) {
  return data.size() >= kBinaryTraceMagic.size() &&
         data.substr(0, kBinaryTraceMagic.size()) == kBinaryTraceMagic;
}

void save_binary_trace(const EventTrace& trace, std::ostream& out) {
  const std::string bytes = save_binary_trace_string(trace);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string save_binary_trace_string(const EventTrace& trace) {
  std::string out;
  // Header + a rough per-record estimate; exact size is not worth a
  // second pass, the string grows once if the guess is short.
  out.reserve(16 + trace.events.size() * 12);
  out.append(kBinaryTraceMagic);
  out.push_back('\0');  // flags
  put_varint(out, trace.vnf_count);
  put_varint(out, trace.events.size());

  std::string payload;
  std::uint64_t prev_bits = bits_of(0.0);
  for (const StreamEvent& e : trace.events) {
    payload.clear();
    payload.push_back(static_cast<char>(wire_kind(e.kind)));
    const std::uint64_t time_bits = bits_of(e.time);
    put_varint(payload, time_bits ^ prev_bits);
    prev_bits = time_bits;
    switch (e.kind) {
      case StreamEventKind::kArrive:
        put_varint(payload, e.request);
        put_u64le(payload, bits_of(e.rate));
        put_u64le(payload, bits_of(e.delivery_prob));
        put_varint(payload, e.chain.size());
        for (const std::uint32_t f : e.chain) put_varint(payload, f);
        break;
      case StreamEventKind::kDepart:
        put_varint(payload, e.request);
        break;
      case StreamEventKind::kRateChange:
        put_varint(payload, e.request);
        put_u64le(payload, bits_of(e.rate));
        break;
      case StreamEventKind::kNodeDown:
      case StreamEventKind::kNodeUp:
        put_varint(payload, e.node);
        break;
    }
    put_varint(out, payload.size());
    out.append(payload);
  }
  return out;
}

EventTrace load_binary_trace(std::string_view data) {
  BinaryTraceDecoder decoder(data);
  EventTrace trace = drain_trace(decoder);
  trace.validate();
  return trace;
}

BinaryTraceDecoder::BinaryTraceDecoder(std::string_view data)
    : data_(reinterpret_cast<const std::uint8_t*>(data.data())),
      size_(data.size()) {
  if (!is_binary_trace(data)) {
    throw TraceParseError(
        "binary trace: missing magic \"NFVBT1\" (not an nfvpr.btrace/1 "
        "stream, or an unsupported version)");
  }
  pos_ = kBinaryTraceMagic.size();
  if (pos_ >= size_) fail("truncated header (missing flags byte)");
  const std::uint8_t flags = data_[pos_++];
  if (flags != 0) {
    fail("unsupported flags byte " + std::to_string(flags) +
         " (this reader understands only flags = 0)");
  }
  const std::uint8_t* end = data_ + size_;
  const std::uint64_t vnfs = read_varint("vnf_count", end);
  if (vnfs == 0 ||
      vnfs > std::numeric_limits<std::uint32_t>::max()) {
    fail("vnf_count must be a positive 32-bit integer, got " +
         std::to_string(vnfs));
  }
  vnf_count_ = static_cast<std::uint32_t>(vnfs);
  count_ = read_varint("event_count", end);
  // Cheapest possible record is 3 bytes (length varint, kind, timestamp
  // varint), so an event_count the buffer cannot possibly hold is rejected
  // before anyone reserves storage for it.
  if (count_ > (size_ - pos_) / 3) {
    fail("event_count " + std::to_string(count_) +
         " exceeds what the remaining " + std::to_string(size_ - pos_) +
         " bytes could hold");
  }
}

void BinaryTraceDecoder::fail(const std::string& what) const {
  std::string msg = "binary trace";
  if (index_ != 0 || pos_ > kBinaryTraceMagic.size() + 1) {
    msg += " record " + std::to_string(index_);
  }
  msg += ": " + what;
  throw TraceParseError(msg);
}

std::uint64_t BinaryTraceDecoder::read_varint(const char* what,
                                              const std::uint8_t* end) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  const std::uint8_t* p = data_ + pos_;
  // Single-byte fast path: ids and chain entries are almost always < 128.
  if (p != end && *p < 0x80) {
    ++pos_;
    return *p;
  }
  // SWAR fast path for the XOR-delta timestamps, whose varints run 5-9
  // bytes: one unaligned load finds the terminator (first byte without the
  // continuation bit) via countr_zero, then the 7-bit groups fold together
  // branch-free.  Varints of <= 8 bytes carry at most 56 bits, so the
  // 64-bit overflow check is unreachable here; 9- and 10-byte varints
  // (terminator beyond the load) fall through to the byte loop below.
  if (end - p >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    const std::uint64_t stops = ~chunk & 0x8080808080808080ull;
    if (stops != 0) {
      const int len = (std::countr_zero(stops) >> 3) + 1;
      for (int i = 0; i < len; ++i) {
        value |= ((chunk >> (8 * i)) & 0x7f) << (7 * i);
      }
      pos_ += static_cast<std::uint64_t>(len);
      return value;
    }
  }
  while (true) {
    if (p == end) {
      fail(std::string("truncated varint (") + what + ")");
    }
    const std::uint8_t byte = *p++;
    if (shift == 63 && (byte & 0x7e) != 0) {
      fail(std::string("varint overflows 64 bits (") + what + ")");
    }
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) {
      fail(std::string("varint overflows 64 bits (") + what + ")");
    }
  }
  pos_ = static_cast<std::uint64_t>(p - data_);
  return value;
}

std::uint32_t BinaryTraceDecoder::read_id(const char* what,
                                          const std::uint8_t* end) {
  const std::uint64_t v = read_varint(what, end);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    fail(std::string(what) + " " + std::to_string(v) +
         " does not fit in 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

bool BinaryTraceDecoder::next(StreamEvent& out) {
  if (index_ == count_) {
    if (pos_ != size_) {
      fail(std::to_string(size_ - pos_) +
           " trailing byte(s) after the final record");
    }
    return false;
  }
  const std::uint8_t* buffer_end = data_ + size_;
  const std::uint64_t len = read_varint("record length", buffer_end);
  if (len > size_ - pos_) {
    fail("record length " + std::to_string(len) + " overruns the buffer (" +
         std::to_string(size_ - pos_) + " bytes left)");
  }
  const std::uint8_t* end = data_ + pos_ + len;
  if (len < 1) fail("empty record payload");
  const std::uint8_t kind = data_[pos_++];

  const std::uint64_t time_bits = prev_bits_ ^ read_varint("timestamp", end);
  const double time = double_of(time_bits);
  if (!std::isfinite(time) || time < 0.0) {
    fail("timestamp must be finite and non-negative");
  }
  if (time < prev_time_) {
    fail("non-monotonic timestamp " + std::to_string(time) + " after " +
         std::to_string(prev_time_));
  }

  out.time = time;
  out.request = 0;
  out.rate = 0.0;
  out.delivery_prob = 1.0;
  out.chain.clear();
  out.node = 0;

  switch (kind) {
    case kWireArrive: {
      out.kind = StreamEventKind::kArrive;
      out.request = read_id("request id", end);
      if (end - (data_ + pos_) < 16) fail("truncated arrive rate fields");
      // Little-endian wire matches the host here; memcpy is the portable
      // unaligned load and compiles to two 8-byte moves.
      std::uint64_t rate_bits;
      std::uint64_t prob_bits;
      std::memcpy(&rate_bits, data_ + pos_, 8);
      std::memcpy(&prob_bits, data_ + pos_ + 8, 8);
      pos_ += 16;
      out.rate = double_of(rate_bits);
      out.delivery_prob = double_of(prob_bits);
      if (!finite_positive(out.rate)) fail("arrival rate must be > 0");
      if (!(out.delivery_prob > 0.0) || out.delivery_prob > 1.0) {
        fail("delivery_prob must be in (0, 1]");
      }
      const std::uint64_t chain_len = read_varint("chain length", end);
      if (chain_len == 0) fail("arrive needs a non-empty chain");
      // Each chain entry takes at least one byte, so a length the payload
      // cannot hold is rejected before any reserve.
      if (chain_len > static_cast<std::uint64_t>(end - (data_ + pos_))) {
        fail("chain length " + std::to_string(chain_len) +
             " overruns the record payload");
      }
      if (chain_len > vnf_count_) {
        fail("chain of " + std::to_string(chain_len) +
             " distinct VNFs is impossible with vnf_count " +
             std::to_string(vnf_count_));
      }
      for (std::uint64_t i = 0; i < chain_len; ++i) {
        const std::uint32_t f = read_id("chain entry", end);
        if (f >= vnf_count_) {
          fail("chain references VNF " + std::to_string(f) +
               " but vnf_count is " + std::to_string(vnf_count_));
        }
        out.chain.push_back(f);
      }
      if (out.chain.size() <= kQuadraticChainLimit) {
        for (std::size_t i = 1; i < out.chain.size(); ++i) {
          for (std::size_t j = 0; j < i; ++j) {
            if (out.chain[i] == out.chain[j]) {
              fail("chain repeats VNF " + std::to_string(out.chain[i]) +
                   " (U_r^f is binary)");
            }
          }
        }
      } else {
        chain_scratch_.assign(out.chain.begin(), out.chain.end());
        std::sort(chain_scratch_.begin(), chain_scratch_.end());
        const auto dup = std::adjacent_find(chain_scratch_.begin(),
                                            chain_scratch_.end());
        if (dup != chain_scratch_.end()) {
          fail("chain repeats VNF " + std::to_string(*dup) +
               " (U_r^f is binary)");
        }
      }
      break;
    }
    case kWireDepart:
      out.kind = StreamEventKind::kDepart;
      out.request = read_id("request id", end);
      break;
    case kWireRateChange: {
      out.kind = StreamEventKind::kRateChange;
      out.request = read_id("request id", end);
      if (end - (data_ + pos_) < 8) fail("truncated rate_change rate field");
      std::uint64_t rate_bits;
      std::memcpy(&rate_bits, data_ + pos_, 8);
      pos_ += 8;
      out.rate = double_of(rate_bits);
      if (!finite_positive(out.rate)) fail("new rate must be > 0");
      break;
    }
    case kWireNodeDown:
    case kWireNodeUp:
      out.kind = kind == kWireNodeDown ? StreamEventKind::kNodeDown
                                       : StreamEventKind::kNodeUp;
      out.node = read_id("node id", end);
      break;
    default:
      fail("unknown record kind " + std::to_string(kind));
  }

  if (data_ + pos_ != end) {
    fail("record payload length mismatch (" +
         std::to_string(end - (data_ + pos_)) + " undecoded byte(s))");
  }
  prev_bits_ = time_bits;
  prev_time_ = time;
  ++index_;
  return true;
}

void BinaryTraceDecoder::skip(std::uint64_t n) {
  const std::uint8_t* buffer_end = data_ + size_;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (index_ == count_) fail("skip past the end of the stream");
    const std::uint64_t len = read_varint("record length", buffer_end);
    if (len > size_ - pos_) {
      fail("record length " + std::to_string(len) +
           " overruns the buffer (" + std::to_string(size_ - pos_) +
           " bytes left)");
    }
    const std::uint8_t* end = data_ + pos_ + len;
    if (len < 1) fail("empty record payload");
    ++pos_;  // kind byte; skipping does not interpret it
    // The timestamp varint still has to be decoded: it is the XOR base for
    // every later record.
    prev_bits_ ^= read_varint("timestamp", end);
    prev_time_ = double_of(prev_bits_);
    pos_ = static_cast<std::uint64_t>(end - data_);
    ++index_;
  }
}

void BinaryTraceDecoder::seek(std::uint64_t byte_offset,
                              std::uint64_t record_index,
                              std::uint64_t time_bits) {
  if (byte_offset > size_) {
    fail("seek offset " + std::to_string(byte_offset) +
         " is past the end of the " + std::to_string(size_) +
         "-byte buffer");
  }
  if (record_index > count_) {
    fail("seek index " + std::to_string(record_index) +
         " is past the declared event_count " + std::to_string(count_));
  }
  pos_ = byte_offset;
  index_ = record_index;
  prev_bits_ = time_bits;
  prev_time_ = double_of(time_bits);
}

}  // namespace nfv::workload
