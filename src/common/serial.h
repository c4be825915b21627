#ifndef PDS2_COMMON_SERIAL_H_
#define PDS2_COMMON_SERIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace pds2::common {

/// Appends fixed-width little-endian primitives and length-prefixed
/// containers to a byte buffer. The canonical wire format for everything
/// that is hashed, signed, or stored by the platform: transactions, blocks,
/// certificates, sealed blobs, model snapshots.
class Writer {
 public:
  Writer() = default;

  void PutU8(uint8_t v);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);
  void PutBool(bool v);
  /// Length-prefixed (u32) raw bytes.
  void PutBytes(const Bytes& b);
  /// Length-prefixed (u32) UTF-8 string.
  void PutString(const std::string& s);
  /// Raw bytes with no length prefix (caller knows the size).
  void PutRaw(const Bytes& b);

  void PutU64Vector(const std::vector<uint64_t>& v);
  void PutDoubleVector(const std::vector<double>& v);

  const Bytes& data() const { return data_; }
  Bytes Take() { return std::move(data_); }

 private:
  Bytes data_;
};

/// Reads back what Writer wrote. Every getter fails with Corruption if the
/// buffer is exhausted, so malformed wire data is rejected rather than
/// silently misparsed.
class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<bool> GetBool();
  Result<Bytes> GetBytes();
  Result<std::string> GetString();
  Result<Bytes> GetRaw(size_t n);

  Result<std::vector<uint64_t>> GetU64Vector();
  Result<std::vector<double>> GetDoubleVector();

  /// Checks an element count read from the wire against the bytes left:
  /// Corruption unless `count` elements of at least `min_element_bytes`
  /// each fit. Decoders call it before reserve(), so a hostile count cannot
  /// turn into a huge allocation.
  Status CheckCount(uint64_t count, size_t min_element_bytes) const;

  /// True when every byte has been consumed. Deserializers should check
  /// this to reject trailing garbage.
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(size_t n);

  const Bytes& data_;
  size_t pos_ = 0;
};

}  // namespace pds2::common

#endif  // PDS2_COMMON_SERIAL_H_
