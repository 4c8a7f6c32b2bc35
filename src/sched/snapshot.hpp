// Byte-level serialization primitives for service snapshots.
//
// GridJobService::snapshot()/restore() capture the FULL mid-run state of
// a service — pending queue, running attempts, WAN flows, outage
// cursors, RNG streams, telemetry — as one opaque byte string, used two
// ways: as the rollback token of the interleaving explorer
// (sched/explore.hpp) and as the on-disk checkpoint of the CLI's
// `serve --checkpoint-out/--resume`. The writer/reader pair here is the
// shared low-level encoding every subsystem's save_state()/load_state()
// speaks.
//
// Encoding contract: fixed-width host-endian integers and raw IEEE-754
// bit patterns for doubles (byte-faithful by construction — restoring a
// double reproduces the exact bits, which is what makes a resumed run's
// trace byte-identical to the uninterrupted one). Snapshots are NOT
// portable across endianness or struct-layout changes; the service
// prepends a magic/version/config fingerprint and refuses mismatches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qrgrid::sched {

/// Appends fixed-width fields to a byte string. No framing per field —
/// reader and writer must agree on the exact sequence (the version tag
/// in the service header is what guards that agreement).
class SnapshotWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  /// Raw IEEE-754 bit pattern: NaNs, infinities, and signed zeros all
  /// round-trip exactly.
  void f64(double v);
  void boolean(bool v);
  void str(const std::string& v);  ///< u64 length + bytes

  void i32_vec(const std::vector<int>& v);
  void i64_vec(const std::vector<long long>& v);
  void f64_vec(const std::vector<double>& v);

  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

/// Consumes the writer's byte sequence; throws qrgrid::Error on
/// truncation (a short read past the end of the buffer, or a length
/// prefix larger than the bytes that remain).
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string bytes) : bytes_(std::move(bytes)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();

  std::vector<int> i32_vec();
  std::vector<long long> i64_vec();
  std::vector<double> f64_vec();

  /// Reads a u64 item count and refuses it unless that many
  /// `elem_size`-byte items fit in the remaining bytes. Every count a
  /// loader sizes a container from goes through here, with `elem_size`
  /// a lower bound on the bytes one item occupies.
  std::size_t length(std::size_t elem_size);

  bool at_end() const { return pos_ == bytes_.size(); }

 private:
  void take(void* out, std::size_t n);
  std::size_t remaining() const { return bytes_.size() - pos_; }

  std::string bytes_;
  std::size_t pos_ = 0;
};

}  // namespace qrgrid::sched
