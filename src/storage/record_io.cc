#include "storage/record_io.h"

#include <fstream>
#include <iterator>

#include "common/crc32.h"

namespace pds2::storage {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::Writer;

Bytes EncodeCrcRecord(const Bytes& payload) {
  Writer w;
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(common::Crc32c(payload));
  w.PutRaw(payload);
  return w.Take();
}

Result<Bytes> ReadCrcRecord(Reader& r) {
  if (r.remaining() < kRecordFrameBytes) {
    return Status::NotFound("end of record stream");
  }
  PDS2_ASSIGN_OR_RETURN(uint32_t len, r.GetU32());
  PDS2_ASSIGN_OR_RETURN(uint32_t crc, r.GetU32());
  if (r.remaining() < len) return Status::Corruption("torn record payload");
  PDS2_ASSIGN_OR_RETURN(Bytes payload, r.GetRaw(len));
  if (common::Crc32c(payload) != crc) {
    return Status::Corruption("record crc mismatch");
  }
  return payload;
}

Result<Bytes> DecodeCrcRecord(const Bytes& record) {
  Reader r(record);
  auto payload = ReadCrcRecord(r);
  if (!payload.ok()) {
    return payload.status().code() == common::StatusCode::kNotFound
               ? Status::Corruption("record too short")
               : payload.status();
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after record");
  return payload;
}

Status ReadFileBytes(const std::string& path, Bytes* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return Status::Ok();
}

}  // namespace pds2::storage
