#include "storage/record_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"

namespace pds2::storage {

namespace fs = std::filesystem;

using common::Bytes;
using common::CrashPoint;
using common::Reader;
using common::Result;
using common::Status;
using common::Writer;

namespace {

constexpr char kTmpSuffix[] = ".tmp";

void PutCrcRecord(Writer& w, const Bytes& payload) {
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(common::Crc32c(payload));
  w.PutRaw(payload);
}

Status ReadFileBytes(const std::string& path, Bytes* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return Status::Ok();
}

bool HasMagic(const Bytes& buf, const FileMagic& magic) {
  return buf.size() >= magic.size() &&
         std::memcmp(buf.data(), magic.data(), magic.size()) == 0;
}

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

Bytes EncodeCrcRecord(const Bytes& payload) {
  Writer w;
  PutCrcRecord(w, payload);
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

RecordDir::RecordDir(std::string path, bool fsync)
    : path_(std::move(path)), fsync_(fsync) {}

Result<std::unique_ptr<RecordDir>> RecordDir::Open(const std::string& path,
                                                   bool fsync) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::Internal("cannot create store directory " + path + ": " +
                            ec.message());
  }
  std::unique_ptr<RecordDir> dir(new RecordDir(path, fsync));
  // A tmp file is a replace that never reached its rename: its content
  // never became visible, so it is garbage.
  for (const std::string& name : dir->List()) {
    if (fs::path(name).extension() == kTmpSuffix) {
      PDS2_RETURN_IF_ERROR(dir->Remove(name));
    }
  }
  return dir;
}

std::string RecordDir::FilePath(const std::string& name) const {
  return path_ + "/" + name;
}

std::vector<std::string> RecordDir::List() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(path_, ec)) {
    if (entry.is_regular_file(ec)) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status RecordDir::CheckAlive() const {
  return dead_ ? Status::Unavailable("store crashed; reopen to continue")
               : Status::Ok();
}

Status RecordDir::Crash(const std::string& what) {
  dead_ = true;
  PDS2_M_COUNT("store.crashes_simulated", 1);
  return Status::Unavailable("simulated crash " + what);
}

Status RecordDir::SyncFile(std::FILE* file) {
  if (std::fflush(file) != 0) return Errno("fflush failed");
  if (!fsync_) return Status::Ok();
  obs::Stopwatch watch;
  if (::fsync(::fileno(file)) != 0) return Errno("fsync failed");
  PDS2_M_OBSERVE("store.fsync_us", watch.ElapsedUs());
  return Status::Ok();
}

Status RecordDir::SyncDir() {
  if (!fsync_) return Status::Ok();
  const int fd = ::open(path_.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("cannot open dir for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("dir fsync failed");
  return Status::Ok();
}

Result<std::unique_ptr<RecordLog>> RecordDir::OpenLog(
    const std::string& name, const FileMagic& magic,
    const std::function<bool(Bytes)>& on_record) {
  PDS2_RETURN_IF_ERROR(CheckAlive());
  const std::string path = FilePath(name);
  std::unique_ptr<RecordLog> log(new RecordLog(this, name, magic));
  Bytes buf;
  std::error_code ec;
  if (fs::exists(path, ec)) PDS2_RETURN_IF_ERROR(ReadFileBytes(path, &buf));

  if (buf.empty()) {
    // Missing, or created and killed before the magic landed: start fresh.
    PDS2_RETURN_IF_ERROR(Replace(name, magic, {}));
    buf.assign(magic.begin(), magic.end());
  }
  if (!HasMagic(buf, magic)) return Status::Corruption("bad magic in " + path);

  Reader r(buf);
  (void)r.GetRaw(magic.size());
  uint64_t valid_bytes = magic.size();
  while (true) {
    auto payload = ReadCrcRecord(r);  // torn or bit-rotted frames fail here
    if (!payload.ok()) break;
    const uint64_t end = valid_bytes + kRecordFrameBytes + payload->size();
    if (!on_record(std::move(*payload))) break;
    valid_bytes = end;
  }
  if (valid_bytes < buf.size()) {
    // Every record after the first bad one is unusable (chain blocks link
    // by parent hash), so cut the file back to the last clean boundary.
    log->truncated_bytes_ = buf.size() - valid_bytes;
    fs::resize_file(path, valid_bytes, ec);
    if (ec) return Status::Internal("cannot truncate " + path + ": " +
                                    ec.message());
    PDS2_M_COUNT("store.log_truncations", 1);
    PDS2_LOG(kWarn) << "record file " << path << ": truncated "
                    << log->truncated_bytes_ << " torn bytes";
  }
  PDS2_RETURN_IF_ERROR(log->OpenHandle());
  return log;
}

Status RecordDir::Replace(const std::string& name, const FileMagic& magic,
                          const std::vector<Bytes>& payloads) {
  PDS2_RETURN_IF_ERROR(CheckAlive());
  Writer w;
  w.PutRaw(Bytes(magic.begin(), magic.end()));
  for (const Bytes& payload : payloads) PutCrcRecord(w, payload);
  const Bytes file = w.Take();
  const std::string final_path = FilePath(name);
  const std::string tmp_path = final_path + kTmpSuffix;
  std::error_code ec;

  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) return Errno("cannot create " + tmp_path);
  if (common::CrashRequested(CrashPoint::kSnapshotMidWrite)) {
    // The magic and half the records reach the tmp file; the rename never
    // happens, so no reader ever sees these bytes.
    std::fwrite(file.data(), 1, magic.size() + (file.size() - magic.size()) / 2,
                f);
    std::fclose(f);
    return Crash("mid-replace of " + name);
  }
  Status sync = std::fwrite(file.data(), 1, file.size(), f) == file.size()
                    ? SyncFile(f)
                    : Status::Internal("short write to " + tmp_path);
  std::fclose(f);
  if (!sync.ok()) {
    fs::remove(tmp_path, ec);
    return sync;
  }
  // The atomic cut-over: readers see the old file or the new one.
  fs::rename(tmp_path, final_path, ec);
  if (ec) return Status::Internal("rename of " + tmp_path + " failed: " +
                                  ec.message());
  PDS2_RETURN_IF_ERROR(SyncDir());
  if (common::CrashRequested(CrashPoint::kSnapshotPostRename)) {
    // The new file is durable; whatever the caller does next never runs.
    return Crash("after renaming " + name);
  }
  return Status::Ok();
}

Result<Bytes> RecordDir::ReadOne(const std::string& name,
                                 const FileMagic& magic) const {
  Bytes buf;
  PDS2_RETURN_IF_ERROR(ReadFileBytes(FilePath(name), &buf));
  if (!HasMagic(buf, magic)) {
    return Status::Corruption("bad magic in " + FilePath(name));
  }
  return DecodeCrcRecord(
      Bytes(buf.begin() + static_cast<ptrdiff_t>(magic.size()), buf.end()));
}

Status RecordDir::Remove(const std::string& name) {
  PDS2_RETURN_IF_ERROR(CheckAlive());
  std::error_code ec;
  fs::remove(FilePath(name), ec);
  return ec ? Status::Internal("cannot remove " + name + ": " + ec.message())
            : Status::Ok();
}

RecordLog::RecordLog(RecordDir* dir, std::string name, const FileMagic& magic)
    : dir_(dir), name_(std::move(name)), magic_(magic) {}

RecordLog::~RecordLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Status RecordLog::OpenHandle() {
  std::FILE* f = std::fopen(dir_->FilePath(name_).c_str(), "ab");
  if (f == nullptr) return Errno("cannot open " + name_ + " for append");
  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  return Status::Ok();
}

Status RecordLog::Append(const Bytes& payload) {
  PDS2_RETURN_IF_ERROR(dir_->CheckAlive());
  const Bytes record = EncodeCrcRecord(payload);
  if (common::CrashRequested(CrashPoint::kLogMidAppend)) {
    // The process dies with only half the record flushed to the OS — the
    // classic torn write. The next open must drop this record.
    std::fwrite(record.data(), 1, record.size() / 2, file_);
    std::fflush(file_);
    return dir_->Crash("mid-append to " + name_);
  }
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    dir_->dead_ = true;  // the tail is indeterminate; force a reopen
    return Status::Internal("short write appending to " + name_);
  }
  if (common::CrashRequested(CrashPoint::kLogPreFsync)) {
    // Full record handed to the OS, process dies before fsync. The page
    // cache survives a process kill, so the next open sees the whole
    // record and may keep it.
    std::fflush(file_);
    return dir_->Crash("before fsync of " + name_);
  }
  return dir_->SyncFile(file_);
}

Status RecordLog::Replace(const std::vector<Bytes>& payloads) {
  PDS2_RETURN_IF_ERROR(dir_->Replace(name_, magic_, payloads));
  // The old handle points at the replaced file: appends through it would
  // be lost.
  Status reopened = OpenHandle();
  if (!reopened.ok()) dir_->dead_ = true;
  return reopened;
}

}  // namespace pds2::storage
