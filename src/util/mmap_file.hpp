// Read-only memory-mapped file. The mapping is the ownership unit for
// every borrowed-buffer shard load (index/lsh_index.hpp bulk_load): a
// PlaceShard restored from a database file keeps a shared_ptr to the
// MappedFile alive through its LshIndex keepalive, so eviction is just
// dropping the last reference — the kernel reclaims the pages, and
// in-flight queries holding an RCU snapshot keep the mapping valid.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace vp {

/// An immutable byte view of a whole file. On POSIX this is a real
/// `mmap(PROT_READ, MAP_PRIVATE)` — resident cost is paged in on first
/// touch and reclaimable under memory pressure; elsewhere it degrades to
/// an ordinary heap read of the file (same interface, eager bytes).
class MappedFile {
 public:
  /// Map `path` read-only. Throws IoError when the file cannot be
  /// opened, stat'd, or mapped. An empty file maps to an empty span.
  static std::shared_ptr<const MappedFile> open(const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }
  std::size_t size() const noexcept { return size_; }
  const std::string& path() const noexcept { return path_; }
  /// True when backed by a real mapping (false on the heap fallback).
  bool mapped() const noexcept { return mapped_; }

 private:
  MappedFile() = default;

  std::string path_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::uint8_t> fallback_;  ///< owns bytes when !mapped_
};

}  // namespace vp
