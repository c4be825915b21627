#ifndef PDS2_STORAGE_RECORD_IO_H_
#define PDS2_STORAGE_RECORD_IO_H_

#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "common/serial.h"

namespace pds2::storage {

/// CRC-32C framed records — the shared on-disk unit of the storage layer.
/// One record is `[u32 len][u32 crc][payload]`; the frame detects torn
/// writes (truncated payload) and bit rot (crc mismatch) without trusting
/// the payload's own format. Used by the chain block log, chain snapshots,
/// and the content-addressed artifact store's pack/manifest/root files.

/// Record frame overhead in bytes (len + crc).
inline constexpr size_t kRecordFrameBytes = 8;

/// Encodes one framed record.
common::Bytes EncodeCrcRecord(const common::Bytes& payload);

/// Reads the next framed record from `r`. NotFound when fewer than
/// kRecordFrameBytes remain (clean end of a record stream), Corruption for
/// a torn payload or a crc mismatch. On success the reader is positioned at
/// the next record.
common::Result<common::Bytes> ReadCrcRecord(common::Reader& r);

/// Decodes a complete standalone record (frame + payload, nothing else),
/// e.g. a snapshot file body. Corruption on any framing violation or
/// trailing bytes.
common::Result<common::Bytes> DecodeCrcRecord(const common::Bytes& record);

/// Reads a whole file into `out`. NotFound if it cannot be opened.
common::Status ReadFileBytes(const std::string& path, common::Bytes* out);

}  // namespace pds2::storage

#endif  // PDS2_STORAGE_RECORD_IO_H_
