#ifndef PDS2_STORAGE_RECORD_IO_H_
#define PDS2_STORAGE_RECORD_IO_H_

#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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

/// 8-byte file magic. The trailing byte is a format version; bumping it
/// makes old readers fail cleanly with "bad magic" instead of misparsing.
using FileMagic = std::array<char, 8>;

class RecordLog;

/// A directory of record files (a magic, then framed records): the only
/// code that touches the chain store's and the artifact store's files.
///
/// Crash model: a scripted common::CrashPoint stops a write where a SIGKILL
/// would — kLogMidAppend and kLogPreFsync in RecordLog::Append,
/// kSnapshotMidWrite and kSnapshotPostRename in Replace — and marks the
/// directory dead: every later write through it or its logs fails with
/// Unavailable until it is reopened. A short write kills it too.
class RecordDir {
 public:
  /// Creates `path` if needed and removes leftover `*.tmp` files of
  /// replaces that never reached their rename. With `fsync`, appends,
  /// replaced files and renames are synced before they count as durable;
  /// without, they are flushed to the OS, which survives a process kill.
  static common::Result<std::unique_ptr<RecordDir>> Open(
      const std::string& path, bool fsync);

  /// Opens file `name` for appending: a missing or empty file is created
  /// holding `magic`, a foreign magic is Corruption. Intact payloads go to
  /// `on_record` in order. The file ends at the first torn or corrupt
  /// record, or the first payload `on_record` rejects (returns false), and
  /// is truncated there in place.
  common::Result<std::unique_ptr<RecordLog>> OpenLog(
      const std::string& name, const FileMagic& magic,
      const std::function<bool(common::Bytes)>& on_record);

  /// Atomically replaces file `name` with `magic` then `payloads`: writes
  /// `name.tmp`, syncs it, renames it into place, syncs the directory.
  common::Status Replace(const std::string& name, const FileMagic& magic,
                         const std::vector<common::Bytes>& payloads);

  /// Reads a file Replace wrote with one payload; Corruption on any flaw.
  common::Result<common::Bytes> ReadOne(const std::string& name,
                                        const FileMagic& magic) const;

  /// Deletes file `name`; a missing file is not an error.
  common::Status Remove(const std::string& name);

  /// Names of the regular files in the directory, sorted.
  std::vector<std::string> List() const;

  bool dead() const { return dead_; }
  const std::string& path() const { return path_; }

 private:
  friend class RecordLog;

  RecordDir(std::string path, bool fsync);
  std::string FilePath(const std::string& name) const;
  common::Status CheckAlive() const;
  common::Status Crash(const std::string& what);  // marks the dir dead
  common::Status SyncFile(std::FILE* file);       // fflush, fsync if asked
  common::Status SyncDir();

  std::string path_;
  bool fsync_;
  bool dead_ = false;
};

/// One record file open for appends through a single handle. Must not
/// outlive its RecordDir.
class RecordLog {
 public:
  ~RecordLog();
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Frames, writes and flushes `payload`; fsyncs if the directory does.
  common::Status Append(const common::Bytes& payload);

  /// RecordDir::Replace on this file; later appends go to the new file.
  common::Status Replace(const std::vector<common::Bytes>& payloads);

  /// Bytes of torn or rejected tail dropped when the file was opened.
  uint64_t truncated_bytes() const { return truncated_bytes_; }

 private:
  friend class RecordDir;

  RecordLog(RecordDir* dir, std::string name, const FileMagic& magic);
  common::Status OpenHandle();

  RecordDir* dir_;
  std::string name_;
  FileMagic magic_;
  std::FILE* file_ = nullptr;
  uint64_t truncated_bytes_ = 0;
};

}  // namespace pds2::storage

#endif  // PDS2_STORAGE_RECORD_IO_H_
