#include "qdi/campaign/checkpoint.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "qdi/util/atomic_file.hpp"

namespace qdi::campaign {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu));
}

/// Bounds-checked little-endian reader over the record payload.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint32_t u32() {
    if (bytes_.size() - pos_ < 4) truncated();
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    if (bytes_.size() - pos_ < 8) truncated();
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  void raw(std::uint8_t* dst, std::size_t n) {
    if (bytes_.size() - pos_ < n) truncated();
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
  }

  std::vector<std::uint8_t> blob(std::size_t n) {
    if (n > bytes_.size() - pos_) truncated();
    std::vector<std::uint8_t> v(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                bytes_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return v;
  }

  void expect_end() const {
    if (pos_ != bytes_.size())
      throw CheckpointError(CheckpointError::Kind::Corrupt,
                            "checkpoint: trailing bytes after payload");
  }

 private:
  [[noreturn]] static void truncated() {
    throw CheckpointError(CheckpointError::Kind::Truncated,
                          "checkpoint: payload shorter than declared");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void append_payload(std::vector<std::uint8_t>& p, const ShardCheckpoint& c) {
  put_u64(p, c.fingerprint);
  put_u64(p, c.shard);
  put_u64(p, c.lo);
  put_u64(p, c.hi);
  put_u64(p, c.next);
  for (std::uint32_t h : c.digest.h) put_u32(p, h);
  put_u64(p, c.digest.total_bytes);
  const std::size_t buffered = c.digest.buffered();
  put_u64(p, buffered);
  p.insert(p.end(), c.digest.buf.begin(),
           c.digest.buf.begin() + static_cast<std::ptrdiff_t>(buffered));
  put_u64(p, c.acc_state.size());
  p.insert(p.end(), c.acc_state.begin(), c.acc_state.end());
}

ShardCheckpoint decode_payload(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ShardCheckpoint c;
  c.fingerprint = r.u64();
  c.shard = r.u64();
  c.lo = r.u64();
  c.hi = r.u64();
  c.next = r.u64();
  for (std::uint32_t& h : c.digest.h) h = r.u32();
  c.digest.total_bytes = r.u64();
  const std::uint64_t buffered = r.u64();
  // The digest buffer holds a partial block, so total_bytes % 64 must
  // agree with it — anything else is an internally inconsistent record.
  if (buffered >= 64 || buffered != c.digest.total_bytes % 64)
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          "checkpoint: inconsistent digest buffer length");
  c.digest.buf.fill(0);
  r.raw(c.digest.buf.data(), static_cast<std::size_t>(buffered));
  const std::uint64_t acc_len = r.u64();
  c.acc_state = r.blob(static_cast<std::size_t>(acc_len));
  r.expect_end();
  return c;
}

}  // namespace

const char* CheckpointError::kind_name() const noexcept {
  switch (kind_) {
    case Kind::Truncated: return "truncated";
    case Kind::Corrupt: return "corrupt";
    case Kind::VersionMismatch: return "version-mismatch";
    case Kind::GeometryMismatch: return "geometry-mismatch";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_checkpoint(const ShardCheckpoint& c) {
  // Seal in place: header, payload, then the SHA-256 of the payload
  // bytes just written. Accumulator snapshots run to megabytes, so the
  // record is assembled in one reserved buffer instead of building the
  // payload separately and copying it in behind the header.
  std::vector<std::uint8_t> out;
  out.reserve(16 + 8 * 8 + 64 + c.acc_state.size() + 32);
  put_u32(out, kCheckpointMagic);
  put_u32(out, kCheckpointVersion);
  put_u64(out, 0);  // payload length, patched once the payload is in
  append_payload(out, c);
  const std::uint64_t payload_len = out.size() - 16;
  for (int i = 0; i < 8; ++i)
    out[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload_len >> (8 * i));
  const std::array<std::uint8_t, 32> seal =
      util::Sha256::of(std::span<const std::uint8_t>(out).subspan(16));
  out.insert(out.end(), seal.begin(), seal.end());
  return out;
}

ShardCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 16)
    throw CheckpointError(CheckpointError::Kind::Truncated,
                          "checkpoint: header truncated (" +
                              std::to_string(bytes.size()) + " bytes)");
  Reader header(bytes.subspan(0, 16));
  const std::uint32_t magic = header.u32();
  if (magic != kCheckpointMagic)
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          "checkpoint: bad magic (not a QDSK record)");
  const std::uint32_t version = header.u32();
  if (version != kCheckpointVersion)
    throw CheckpointError(
        CheckpointError::Kind::VersionMismatch,
        "checkpoint: version " + std::to_string(version) +
            " (this build speaks version " +
            std::to_string(kCheckpointVersion) + ")");
  const std::uint64_t payload_len = header.u64();
  if (bytes.size() - 16 < payload_len)
    throw CheckpointError(CheckpointError::Kind::Truncated,
                          "checkpoint: record ends before declared payload");
  if (bytes.size() - 16 - payload_len < 32)
    throw CheckpointError(CheckpointError::Kind::Truncated,
                          "checkpoint: record ends before payload digest");
  if (bytes.size() - 16 - payload_len != 32)
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          "checkpoint: trailing bytes after payload digest");
  const std::span<const std::uint8_t> payload =
      bytes.subspan(16, static_cast<std::size_t>(payload_len));
  const std::array<std::uint8_t, 32> want = util::Sha256::of(payload);
  const std::span<const std::uint8_t> got = bytes.subspan(
      16 + static_cast<std::size_t>(payload_len), 32);
  if (!std::equal(want.begin(), want.end(), got.begin()))
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          "checkpoint: payload digest mismatch");
  return decode_payload(payload);
}

void validate_checkpoint_identity(const ShardCheckpoint& c,
                                  std::uint64_t fingerprint,
                                  std::uint64_t shard, std::uint64_t lo,
                                  std::uint64_t hi) {
  if (c.fingerprint != fingerprint)
    throw CheckpointError(CheckpointError::Kind::GeometryMismatch,
                          "checkpoint: fingerprint mismatch (belongs to a "
                          "different campaign configuration)");
  if (c.shard != shard || c.lo != lo || c.hi != hi)
    throw CheckpointError(
        CheckpointError::Kind::GeometryMismatch,
        "checkpoint: shard geometry mismatch (record is shard " +
            std::to_string(c.shard) + " [" + std::to_string(c.lo) + ", " +
            std::to_string(c.hi) + "), expected shard " +
            std::to_string(shard) + " [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "))");
  if (c.next < c.lo || c.next > c.hi)
    throw CheckpointError(CheckpointError::Kind::GeometryMismatch,
                          "checkpoint: committed index " +
                              std::to_string(c.next) +
                              " outside shard range");
}

std::string checkpoint_path(const std::string& dir, std::size_t shard) {
  return dir + "/shard-" + std::to_string(shard) + ".ckpt";
}

std::string checkpoint_prev_path(const std::string& dir, std::size_t shard) {
  return checkpoint_path(dir, shard) + ".prev";
}

void ensure_checkpoint_dir(const std::string& dir) {
  std::string part;
  part.reserve(dir.size());
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      part.push_back(dir[i]);
      continue;
    }
    if (!part.empty() && part != ".") {
      if (::mkdir(part.c_str(), 0777) != 0 && errno != EEXIST)
        throw std::runtime_error("checkpoint: mkdir('" + part +
                                 "') failed: " + std::strerror(errno));
    }
    if (i < dir.size()) part.push_back('/');
  }
}

void commit_checkpoint(const std::string& dir, const ShardCheckpoint& c,
                       util::Durability durability) {
  ensure_checkpoint_dir(dir);
  const std::string path = checkpoint_path(dir, static_cast<std::size_t>(c.shard));
  const std::string prev = checkpoint_prev_path(dir, static_cast<std::size_t>(c.shard));
  // Rotate the current generation down before publishing the new one.
  // rename(2) is atomic, so at every instant at least one of {ckpt,
  // ckpt.prev} holds a complete record once the first commit lands.
  // ENOENT means this is the shard's first commit; any other failure
  // would silently drop the previous generation, so it fails the commit.
  if (std::rename(path.c_str(), prev.c_str()) != 0 && errno != ENOENT)
    throw std::runtime_error("checkpoint: rotating '" + path + "' to '" +
                             prev + "' failed: " + std::strerror(errno));
  util::atomic_write_file(path, encode_checkpoint(c), durability);
}

std::optional<RecoveredCheckpoint> recover_checkpoint(
    const std::string& dir, std::size_t shard, std::uint64_t fingerprint,
    std::uint64_t lo, std::uint64_t hi,
    const std::function<void(const ShardCheckpoint&)>& adopt,
    std::string* notes) {
  std::string log;
  const std::string candidates[2] = {checkpoint_path(dir, shard),
                                     checkpoint_prev_path(dir, shard)};
  for (const std::string& file : candidates) {
    const auto bytes = util::read_file_if_exists(file);
    if (!bytes) continue;
    try {
      ShardCheckpoint c = decode_checkpoint(*bytes);
      validate_checkpoint_identity(c, fingerprint, shard, lo, hi);
      if (adopt) adopt(c);
      if (notes) *notes = log;
      return RecoveredCheckpoint{std::move(c), file, log};
    } catch (const std::exception& e) {
      if (!log.empty()) log += "; ";
      log += "rejected " + file + ": " + e.what();
    }
  }
  if (notes) *notes = log;
  return std::nullopt;
}

}  // namespace qdi::campaign
