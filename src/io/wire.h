#pragma once

// Little-endian wire helpers shared by the journal and durable-snapshot
// codecs: put-style appenders onto a std::string and a bounds-checked read
// cursor. Every read is checked against the remaining payload — overrunning
// a checksummed record means version skew or a codec bug, never a torn
// write, so overruns surface as ParseError.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace dwred::wire {

inline void PutU8(std::string* s, uint8_t v) {
  s->push_back(static_cast<char>(v));
}
inline void PutU32(std::string* s, uint32_t v) {
  s->append(reinterpret_cast<const char*>(&v), 4);
}
inline void PutU64(std::string* s, uint64_t v) {
  s->append(reinterpret_cast<const char*>(&v), 8);
}
inline void PutI64(std::string* s, int64_t v) {
  s->append(reinterpret_cast<const char*>(&v), 8);
}
inline void PutStr(std::string* s, std::string_view v) {
  PutU32(s, static_cast<uint32_t>(v.size()));
  s->append(v.data(), v.size());
}

/// Bounds-checked reader over one payload. `what` names the enclosing
/// structure in error messages ("journal", "durable snapshot", ...).
class Cursor {
 public:
  explicit Cursor(std::string_view data, const char* what = "record")
      : data_(data), what_(what) {}

  Status U8(uint8_t* v) { return Raw(v, 1); }
  Status U32(uint32_t* v) { return Raw(v, 4); }
  Status U64(uint64_t* v) { return Raw(v, 8); }
  Status I64(int64_t* v) { return Raw(v, 8); }
  Status Str(std::string* s) {
    uint32_t n;
    DWRED_RETURN_IF_ERROR(U32(&n));
    if (n > remaining()) {
      return Status::ParseError(std::string(what_) +
                                ": string length exceeds payload");
    }
    s->assign(data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  /// The next `n` bytes, uncopied (valid while the payload is).
  Status View(size_t n, std::string_view* out) {
    if (n > remaining()) {
      return Status::ParseError(std::string(what_) + ": payload truncated");
    }
    *out = data_.substr(pos_, n);
    pos_ += n;
    return Status::OK();
  }
  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Raw(void* p, size_t n) {
    if (n > remaining()) {
      return Status::ParseError(std::string(what_) + ": payload truncated");
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  std::string_view data_;
  const char* what_;
  size_t pos_ = 0;
};

}  // namespace dwred::wire
