// Byte-stream abstractions for serialization: a Writer/Reader pair with file
// and in-memory backends. Model and index serializers are written against
// these interfaces so the same record format can target a standalone file or
// an embedded section of the index container (index/container.h).
#ifndef USP_UTIL_IO_H_
#define USP_UTIL_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "util/status.h"

namespace usp {

/// Sequential byte sink. Write returns false on the first failure and every
/// call after it, so callers can chain writes and check once.
class Writer {
 public:
  virtual ~Writer() = default;
  virtual bool Write(const void* data, size_t size) = 0;

  /// Convenience for PODs: Write(&value, sizeof(value)).
  template <typename T>
  bool WritePod(const T& value) {
    return Write(&value, sizeof(T));
  }
};

/// Sequential byte source. Read returns false when fewer than `size` bytes
/// remain (a short read), after which the stream position is unspecified.
class Reader {
 public:
  virtual ~Reader() = default;
  virtual bool Read(void* data, size_t size) = 0;

  template <typename T>
  bool ReadPod(T* value) {
    return Read(value, sizeof(T));
  }
};

/// Writer that atomically replaces the file at `path`. Bytes go to a sibling
/// temp file; Close() flushes, fsyncs and renames it over `path`. Until then
/// the old file is untouched, so a reader that has it mmap'd keeps serving
/// its old contents and a failed or abandoned write leaves it loadable. The
/// temp file is removed on any failure and on destruction without a
/// successful Close(). Check `ok()` after construction (open failure).
class FileWriter : public Writer {
 public:
  explicit FileWriter(const std::string& path);
  ~FileWriter() override;
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  bool ok() const { return file_ != nullptr && !failed_; }
  bool Write(const void* data, size_t size) override;

  /// Flushes, fsyncs, closes and renames the temp file over the target;
  /// returns false if any write or any of those steps failed.
  bool Close();

 private:
  std::string path_;
  std::string temp_path_;
  std::FILE* file_ = nullptr;
  bool failed_ = false;
};

/// Reader over a stdio FILE. Owns the handle; closes on destruction.
class FileReader : public Reader {
 public:
  explicit FileReader(const std::string& path);
  ~FileReader() override;
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  bool ok() const { return file_ != nullptr; }
  bool Read(void* data, size_t size) override;

  /// Absolute seek; returns false on failure.
  bool Seek(uint64_t offset);

  /// Total file size in bytes, or an error for unreadable files.
  StatusOr<uint64_t> Size();

 private:
  std::FILE* file_ = nullptr;
};

/// Writer that appends to an in-memory string (used to embed nested records,
/// e.g. a partitioner model blob inside an index container section).
class StringWriter : public Writer {
 public:
  bool Write(const void* data, size_t size) override;
  const std::string& bytes() const { return bytes_; }
  std::string TakeBytes() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Reader over a caller-owned byte range (e.g. an mmap'd container section).
/// Does not copy; the range must outlive the reader.
class MemReader : public Reader {
 public:
  MemReader(const void* data, size_t size)
      : cursor_(static_cast<const uint8_t*>(data)),
        end_(static_cast<const uint8_t*>(data) + size) {}

  bool Read(void* data, size_t size) override;
  size_t remaining() const { return static_cast<size_t>(end_ - cursor_); }

 private:
  const uint8_t* cursor_;
  const uint8_t* end_;
};

}  // namespace usp

#endif  // USP_UTIL_IO_H_
