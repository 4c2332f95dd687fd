#include "storage/snapshot.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/check.h"

namespace graphtempo::storage {

namespace {

static_assert(std::endian::native == std::endian::little,
              "snapshot files are little-endian; add byte swapping before "
              "building on a big-endian host");

constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kSectionHeaderBytes = 16;

std::size_t PaddedTo8(std::size_t length) { return (length + 7) & ~std::size_t{7}; }

}  // namespace

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string SectionTagName(std::uint32_t tag) {
  std::string name;
  for (int shift = 0; shift < 32; shift += 8) {
    char c = static_cast<char>((tag >> shift) & 0xFF);
    name += (c >= 32 && c < 127) ? c : '?';
  }
  return name;
}

void ByteWriter::U8(std::uint8_t value) {
  out_.push_back(static_cast<char>(value));
}

void ByteWriter::U32(std::uint32_t value) {
  char buf[4];
  std::memcpy(buf, &value, 4);
  out_.append(buf, 4);
}

void ByteWriter::U64(std::uint64_t value) {
  char buf[8];
  std::memcpy(buf, &value, 8);
  out_.append(buf, 8);
}

void ByteWriter::Str(std::string_view value) {
  GT_CHECK_LE(value.size(), 0xFFFFFFFFull) << "string too large for snapshot";
  U32(static_cast<std::uint32_t>(value.size()));
  out_.append(value.data(), value.size());
}

void ByteWriter::Words(std::span<const std::uint64_t> words) {
  const char* raw = reinterpret_cast<const char*>(words.data());
  out_.append(raw, words.size() * sizeof(std::uint64_t));
}

bool ByteReader::Take(std::size_t count, const char** out) {
  if (!ok_ || count > data_.size() - pos_) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += count;
  return true;
}

bool ByteReader::U8(std::uint8_t* value) {
  const char* raw;
  if (!Take(1, &raw)) return false;
  *value = static_cast<std::uint8_t>(*raw);
  return true;
}

bool ByteReader::U32(std::uint32_t* value) {
  const char* raw;
  if (!Take(4, &raw)) return false;
  std::memcpy(value, raw, 4);
  return true;
}

bool ByteReader::U64(std::uint64_t* value) {
  const char* raw;
  if (!Take(8, &raw)) return false;
  std::memcpy(value, raw, 8);
  return true;
}

bool ByteReader::Str(std::string* value) {
  std::uint32_t length = 0;
  if (!U32(&length)) return false;
  const char* raw;
  if (!Take(length, &raw)) return false;
  value->assign(raw, length);
  return true;
}

bool ByteReader::WordsInto(std::size_t count, std::vector<std::uint64_t>* out) {
  if (count > remaining() / sizeof(std::uint64_t)) {
    ok_ = false;
    return false;
  }
  const char* raw;
  if (!Take(count * sizeof(std::uint64_t), &raw)) return false;
  out->resize(count);
  // An empty vector's data() may be null, and memcpy from or to null is
  // undefined even for zero bytes.
  if (count != 0) std::memcpy(out->data(), raw, count * sizeof(std::uint64_t));
  return true;
}

bool WriteSnapshotFile(const std::string& path,
                       std::span<const SnapshotSection> sections,
                       std::string* error) {
  std::string payload;
  for (const SnapshotSection& section : sections) {
    ByteWriter header;
    header.U32(section.tag);
    header.U32(0);  // reserved
    header.U64(section.payload.size());
    payload += header.bytes();
    payload += section.payload;
    payload.append(PaddedTo8(section.payload.size()) - section.payload.size(), '\0');
  }

  ByteWriter head;
  for (char c : kSnapshotMagic) head.U8(static_cast<std::uint8_t>(c));
  head.U32(kSnapshotVersion);
  head.U32(0);  // reserved
  head.U64(payload.size());
  head.U64(Fnv1a64(payload));
  GT_CHECK_EQ(head.bytes().size(), kHeaderBytes);

  // Write-then-rename: a crash mid-write leaves the old snapshot (or
  // nothing) in place, never a torn file that a later boot would reject.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      *error = tmp + ": cannot open for writing";
      return false;
    }
    out.write(head.bytes().data(), static_cast<std::streamsize>(head.bytes().size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out.good()) {
      *error = tmp + ": write failed";
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = path + ": rename from temp file failed";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<std::vector<SnapshotSection>> ReadSnapshotFile(
    const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    *error = path + ": cannot open";
    return std::nullopt;
  }
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    *error = path + ": read failed";
    return std::nullopt;
  }

  if (contents.size() < kHeaderBytes ||
      std::memcmp(contents.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    *error = path + ": not a GraphTempo snapshot (bad magic)";
    return std::nullopt;
  }
  ByteReader head(std::string_view(contents).substr(8, kHeaderBytes - 8));
  std::uint32_t version = 0, reserved = 0;
  std::uint64_t payload_size = 0, checksum = 0;
  head.U32(&version);
  head.U32(&reserved);
  head.U64(&payload_size);
  head.U64(&checksum);
  GT_CHECK(head.ok());
  if (version != kSnapshotVersion) {
    *error = path + ": snapshot version " + std::to_string(version) +
             " (this build reads version " + std::to_string(kSnapshotVersion) + ")";
    return std::nullopt;
  }
  const std::string_view payload =
      std::string_view(contents).substr(kHeaderBytes);
  if (payload.size() != payload_size) {
    *error = path + ": truncated snapshot (header promises " +
             std::to_string(payload_size) + " payload bytes, file has " +
             std::to_string(payload.size()) + ")";
    return std::nullopt;
  }
  if (Fnv1a64(payload) != checksum) {
    *error = path + ": checksum mismatch (corrupt snapshot)";
    return std::nullopt;
  }

  std::vector<SnapshotSection> sections;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    if (payload.size() - pos < kSectionHeaderBytes) {
      *error = path + ": corrupt section framing";
      return std::nullopt;
    }
    ByteReader header(payload.substr(pos, kSectionHeaderBytes));
    SnapshotSection section;
    std::uint32_t section_reserved = 0;
    std::uint64_t length = 0;
    header.U32(&section.tag);
    header.U32(&section_reserved);
    header.U64(&length);
    pos += kSectionHeaderBytes;
    if (length > payload.size() - pos) {
      *error = path + ": section " + SectionTagName(section.tag) +
               " overruns the payload";
      return std::nullopt;
    }
    section.payload.assign(payload.data() + pos, length);
    pos += PaddedTo8(length);
    if (pos > payload.size()) {
      // Padding of the final section may not overrun either.
      *error = path + ": section " + SectionTagName(section.tag) +
               " padding overruns the payload";
      return std::nullopt;
    }
    sections.push_back(std::move(section));
  }
  return sections;
}

}  // namespace graphtempo::storage
