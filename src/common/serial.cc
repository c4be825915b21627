#include "common/serial.h"

#include <cstring>

namespace pds2::common {

namespace {

// Appends the low `width` bytes of `v`, little-endian, in one insert.
void AppendLe(Bytes& out, uint64_t v, size_t width) {
  uint8_t word[8];
  for (size_t i = 0; i < width; ++i) {
    word[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  out.insert(out.end(), word, word + width);
}

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void Writer::PutU8(uint8_t v) { data_.push_back(v); }

void Writer::PutU32(uint32_t v) { AppendLe(data_, v, 4); }

void Writer::PutU64(uint64_t v) { AppendLe(data_, v, 8); }

void Writer::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Writer::PutBool(bool v) { PutU8(v ? 1 : 0); }

void Writer::PutBytes(const Bytes& b) {
  PutU32(static_cast<uint32_t>(b.size()));
  data_.insert(data_.end(), b.begin(), b.end());
}

void Writer::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  data_.insert(data_.end(), s.begin(), s.end());
}

void Writer::PutRaw(const Bytes& b) {
  data_.insert(data_.end(), b.begin(), b.end());
}

void Writer::PutDoubleVector(const std::vector<double>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (double x : v) PutDouble(x);
}

Status Reader::Need(size_t n) {
  if (data_.size() - pos_ < n) {
    return Status::Corruption("serialized buffer truncated");
  }
  return Status::Ok();
}

Result<uint8_t> Reader::GetU8() {
  PDS2_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint32_t> Reader::GetU32() {
  PDS2_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<uint64_t> Reader::GetU64() {
  PDS2_RETURN_IF_ERROR(Need(8));
  const uint64_t v = LoadLe64(&data_[pos_]);
  pos_ += 8;
  return v;
}

Result<double> Reader::GetDouble() {
  PDS2_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<bool> Reader::GetBool() {
  PDS2_ASSIGN_OR_RETURN(uint8_t v, GetU8());
  if (v > 1) return Status::Corruption("invalid bool encoding");
  return v == 1;
}

Result<Bytes> Reader::GetBytes() {
  PDS2_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  return GetRaw(n);
}

Result<std::string> Reader::GetString() {
  PDS2_ASSIGN_OR_RETURN(Bytes b, GetBytes());
  return std::string(b.begin(), b.end());
}

Result<Bytes> Reader::GetRaw(size_t n) {
  PDS2_RETURN_IF_ERROR(Need(n));
  Bytes out(data_.begin() + static_cast<ptrdiff_t>(pos_),
            data_.begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Status Reader::CheckCount(uint64_t count, size_t min_element_bytes) const {
  if (count > remaining() / min_element_bytes) {
    return Status::Corruption("element count exceeds the remaining bytes");
  }
  return Status::Ok();
}

Result<std::vector<double>> Reader::GetDoubleVector() {
  PDS2_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  PDS2_RETURN_IF_ERROR(Need(static_cast<size_t>(n) * 8));
  std::vector<double> v(n);
  for (double& x : v) {
    const uint64_t bits = LoadLe64(&data_[pos_]);
    std::memcpy(&x, &bits, sizeof(x));
    pos_ += 8;
  }
  return v;
}

}  // namespace pds2::common
