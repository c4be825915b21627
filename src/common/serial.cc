#include "common/serial.h"

#include <cstring>

namespace pds2::common {

void Writer::PutU8(uint8_t v) { data_.push_back(v); }

void Writer::PutU16(uint16_t v) {
  for (int i = 0; i < 2; ++i) data_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) data_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) data_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

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

void Writer::PutU64Vector(const std::vector<uint64_t>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (uint64_t x : v) PutU64(x);
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

Result<uint16_t> Reader::GetU16() {
  PDS2_RETURN_IF_ERROR(Need(2));
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) v |= static_cast<uint16_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<uint32_t> Reader::GetU32() {
  PDS2_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<uint64_t> Reader::GetU64() {
  PDS2_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<int64_t> Reader::GetI64() {
  PDS2_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
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

Result<std::vector<uint64_t>> Reader::GetU64Vector() {
  PDS2_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  PDS2_RETURN_IF_ERROR(Need(static_cast<size_t>(n) * 8));
  std::vector<uint64_t> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto r = GetU64();
    v.push_back(r.value());
  }
  return v;
}

Result<std::vector<double>> Reader::GetDoubleVector() {
  PDS2_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  PDS2_RETURN_IF_ERROR(Need(static_cast<size_t>(n) * 8));
  std::vector<double> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto r = GetDouble();
    v.push_back(r.value());
  }
  return v;
}

}  // namespace pds2::common
