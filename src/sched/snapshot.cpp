#include "sched/snapshot.hpp"

#include <cstring>

#include "common/check.hpp"

namespace qrgrid::sched {

namespace {

template <typename T>
void append_raw(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

}  // namespace

void SnapshotWriter::u8(std::uint8_t v) { append_raw(out_, v); }
void SnapshotWriter::u32(std::uint32_t v) { append_raw(out_, v); }
void SnapshotWriter::u64(std::uint64_t v) { append_raw(out_, v); }
void SnapshotWriter::i32(std::int32_t v) { append_raw(out_, v); }
void SnapshotWriter::i64(std::int64_t v) { append_raw(out_, v); }
void SnapshotWriter::f64(double v) { append_raw(out_, v); }
void SnapshotWriter::boolean(bool v) { u8(v ? 1 : 0); }

void SnapshotWriter::str(const std::string& v) {
  u64(v.size());
  out_.append(v);
}

void SnapshotWriter::i32_vec(const std::vector<int>& v) {
  u64(v.size());
  for (int x : v) i32(x);
}

void SnapshotWriter::i64_vec(const std::vector<long long>& v) {
  u64(v.size());
  for (long long x : v) i64(x);
}

void SnapshotWriter::f64_vec(const std::vector<double>& v) {
  u64(v.size());
  for (double x : v) f64(x);
}

void SnapshotReader::take(void* out, std::size_t n) {
  QRGRID_CHECK_MSG(n <= remaining(),
                   "truncated snapshot: need " << n << " bytes at offset "
                       << pos_ << " of " << bytes_.size());
  std::memcpy(out, bytes_.data() + pos_, n);
  pos_ += n;
}

std::uint8_t SnapshotReader::u8() {
  std::uint8_t v;
  take(&v, sizeof(v));
  return v;
}
std::uint32_t SnapshotReader::u32() {
  std::uint32_t v;
  take(&v, sizeof(v));
  return v;
}
std::uint64_t SnapshotReader::u64() {
  std::uint64_t v;
  take(&v, sizeof(v));
  return v;
}
std::int32_t SnapshotReader::i32() {
  std::int32_t v;
  take(&v, sizeof(v));
  return v;
}
std::int64_t SnapshotReader::i64() {
  std::int64_t v;
  take(&v, sizeof(v));
  return v;
}
double SnapshotReader::f64() {
  double v;
  take(&v, sizeof(v));
  return v;
}
bool SnapshotReader::boolean() { return u8() != 0; }

std::size_t SnapshotReader::length(std::size_t elem_size) {
  const std::uint64_t n = u64();
  // Bound the untrusted count by the bytes left before anything is sized
  // from it: a corrupt prefix must not become a huge allocation.
  QRGRID_CHECK_MSG(n <= remaining() / elem_size,
                   "truncated snapshot: length " << n << " of "
                       << elem_size << "-byte items at offset " << pos_
                       << " of " << bytes_.size());
  return static_cast<std::size_t>(n);
}

std::string SnapshotReader::str() {
  const std::size_t n = length(1);
  std::string v(bytes_.data() + pos_, n);
  pos_ += n;
  return v;
}

std::vector<int> SnapshotReader::i32_vec() {
  std::vector<int> v(length(sizeof(std::int32_t)));
  for (auto& x : v) x = i32();
  return v;
}

std::vector<long long> SnapshotReader::i64_vec() {
  std::vector<long long> v(length(sizeof(std::int64_t)));
  for (auto& x : v) x = i64();
  return v;
}

std::vector<double> SnapshotReader::f64_vec() {
  std::vector<double> v(length(sizeof(double)));
  for (auto& x : v) x = f64();
  return v;
}

}  // namespace qrgrid::sched
