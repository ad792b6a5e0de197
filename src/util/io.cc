#include "util/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstring>

namespace usp {

FileWriter::FileWriter(const std::string& path) : path_(path) {
  // Unique per process and writer, and in the target's directory so the
  // final rename stays on one filesystem.
  static std::atomic<uint64_t> next_temp{0};
  temp_path_ = path + ".tmp." + std::to_string(::getpid()) + "." +
               std::to_string(next_temp++);
  const int fd =
      ::open(temp_path_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) return;
  file_ = ::fdopen(fd, "wb");
  if (file_ == nullptr) {
    ::close(fd);
    std::remove(temp_path_.c_str());
  }
}

FileWriter::~FileWriter() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  std::remove(temp_path_.c_str());
}

bool FileWriter::Write(const void* data, size_t size) {
  if (file_ == nullptr || failed_) return false;
  if (std::fwrite(data, 1, size, file_) != size) {
    failed_ = true;
    return false;
  }
  return true;
}

bool FileWriter::Close() {
  if (file_ == nullptr) return false;
  bool ok = !failed_ && std::fflush(file_) == 0 && ::fsync(fileno(file_)) == 0;
  ok = std::fclose(file_) == 0 && ok;
  file_ = nullptr;
  ok = ok && std::rename(temp_path_.c_str(), path_.c_str()) == 0;
  if (!ok) std::remove(temp_path_.c_str());
  return ok;
}

FileReader::FileReader(const std::string& path)
    : file_(std::fopen(path.c_str(), "rb")) {}

FileReader::~FileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool FileReader::Read(void* data, size_t size) {
  if (file_ == nullptr) return false;
  return std::fread(data, 1, size, file_) == size;
}

bool FileReader::Seek(uint64_t offset) {
  if (file_ == nullptr) return false;
  return std::fseek(file_, static_cast<long>(offset), SEEK_SET) == 0;
}

StatusOr<uint64_t> FileReader::Size() {
  if (file_ == nullptr) return Status::IoError("file not open");
  const long pos = std::ftell(file_);
  if (pos < 0 || std::fseek(file_, 0, SEEK_END) != 0) {
    return Status::IoError("cannot seek to end of file");
  }
  const long end = std::ftell(file_);
  if (end < 0 || std::fseek(file_, pos, SEEK_SET) != 0) {
    return Status::IoError("cannot restore file position");
  }
  return static_cast<uint64_t>(end);
}

bool StringWriter::Write(const void* data, size_t size) {
  bytes_.append(static_cast<const char*>(data), size);
  return true;
}

bool MemReader::Read(void* data, size_t size) {
  if (remaining() < size) return false;
  std::memcpy(data, cursor_, size);
  cursor_ += size;
  return true;
}

}  // namespace usp
