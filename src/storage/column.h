#pragma once

// Encoded column storage for sealed segments (docs/STORAGE.md "Columnar
// layout"). A sealed segment's columns are immutable, so sealing is the one
// moment a column can be re-laid-out for free: EncodedColumn::Encode takes
// the plain values and keeps the cheapest of four physical encodings,
// chosen purely by byte count:
//
//   kPlain  n * sizeof(T)                      (the vector moves in, no copy)
//   kDict   distinct * sizeof(T) + n * width   (width = 1/2/4-byte codes)
//   kRle    runs * (sizeof(T) + 4)             (run values + exclusive ends)
//   kFor    sizeof(T) + n * width              (base = min, width-byte deltas)
//
// kFor (frame of reference) stores the column minimum once and each value as
// an unsigned delta from it, packed to 1/2/4 bytes by the value range; a
// range of 2^32 or more disqualifies it. A non-plain encoding is kept only
// when it is strictly smaller, so encoding never inflates a segment. Cold
// reduced data is where this pays: a date-sorted retail fact stream
// RLE-compresses its day column to almost nothing, dictionary-packs
// low-cardinality scattered columns, and delta-packs dense-range measures
// (counts, cents, ids) to 1-4 bytes per row against 8 plain.
//
// Encoding is physical only. Decode(begin, end) reproduces the original
// values bit-for-bit in the original order, so logical row order, ToMO /
// snapshot / digest bytes, and every query result are byte-identical whether
// or not a segment is encoded — the same "layout is not serialized" contract
// as the PR-4 segment manifest. Every sealed segment goes through Encode,
// which keeps plain when plain is cheapest; only the mutable tail stays
// row-appendable.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace dwred::storage {

/// Physical layout of one sealed column.
enum class ColEncoding : uint8_t { kPlain, kDict, kRle, kFor };

/// "plain" / "dict" / "rle" / "for" — dwredctl storage and tests.
const char* EncodingName(ColEncoding e);

/// One immutable encoded column of a sealed segment. T is ValueId for
/// dimension columns and int64_t for measure columns.
template <typename T>
class EncodedColumn {
 public:
  /// Encode counts distinct values with a direct-indexed table of max - min
  /// + 1 slots when that is fewer than this many slots per row, and with a
  /// hash map otherwise. Both give the same dictionary in the same order.
  static constexpr uint64_t kDirectSlotsPerRow = 4;

  EncodedColumn() = default;

  /// Encodes `data`, consuming it (the plain choice moves the vector in
  /// whole, so "no encoding wins" costs nothing).
  static EncodedColumn Encode(std::vector<T>&& data) {
    EncodedColumn c;
    c.n_ = data.size();
    if (c.n_ == 0) {
      data.clear();
      return c;
    }

    // One pass for the run count and the value range, then the distinct
    // values in first-occurrence order (CountDistinct).
    size_t runs = 1;
    T minv = data[0], maxv = data[0];
    for (size_t i = 0; i < data.size(); ++i) {
      if (i > 0 && data[i] != data[i - 1]) ++runs;
      minv = std::min(minv, data[i]);
      maxv = std::max(maxv, data[i]);
    }
    // Unsigned wraparound gives the true max-min difference for signed T too.
    const uint64_t range =
        static_cast<uint64_t>(maxv) - static_cast<uint64_t>(minv);
    const DistinctValues dict = CountDistinct(data, minv, range);
    const size_t distinct = dict.firsts.size();
    const size_t plain_bytes = c.n_ * sizeof(T);
    const uint8_t width = distinct <= (1u << 8)    ? 1
                          : distinct <= (1u << 16) ? 2
                                                   : 4;
    const size_t dict_bytes = distinct * sizeof(T) + c.n_ * width;
    const size_t rle_bytes = runs * (sizeof(T) + sizeof(uint32_t));
    const uint8_t fwidth = range < (1u << 8)      ? 1
                           : range < (1u << 16)   ? 2
                           : range < (1ull << 32) ? 4
                                                  : 0;
    const size_t for_bytes = fwidth == 0 ? static_cast<size_t>(-1)
                                         : sizeof(T) + c.n_ * fwidth;

    if (rle_bytes < plain_bytes && rle_bytes <= dict_bytes &&
        rle_bytes <= for_bytes) {
      c.enc_ = ColEncoding::kRle;
      c.values_.reserve(runs);
      c.run_ends_.reserve(runs);
      for (size_t i = 0; i < data.size(); ++i) {
        if (i == 0 || data[i] != data[i - 1]) {
          if (i > 0) c.run_ends_.push_back(static_cast<uint32_t>(i));
          c.values_.push_back(data[i]);
        }
      }
      c.run_ends_.push_back(static_cast<uint32_t>(data.size()));
      data.clear();
      data.shrink_to_fit();
      return c;
    }
    if (dict_bytes < plain_bytes && dict_bytes <= for_bytes) {
      c.enc_ = ColEncoding::kDict;
      c.code_width_ = width;
      // First-occurrence code order keeps the dictionary deterministic.
      c.values_.assign(dict.firsts.begin(), dict.firsts.end());
      c.codes_.resize(c.n_ * width);
      uint8_t* out = c.codes_.data();
      const uint64_t base = static_cast<uint64_t>(minv);
      for (size_t i = 0; i < data.size(); ++i, out += width) {
        const uint32_t code =
            dict.direct ? dict.slot[static_cast<uint64_t>(data[i]) - base]
                        : dict.hashed.find(data[i])->second;
        std::memcpy(out, &code, width);  // little-endian prefix
      }
      data.clear();
      data.shrink_to_fit();
      return c;
    }
    if (for_bytes < plain_bytes) {
      c.enc_ = ColEncoding::kFor;
      c.code_width_ = fwidth;
      c.values_ = {minv};  // the base rides in values_ so byte accounting
                           // and moves need no extra field
      c.codes_.resize(c.n_ * fwidth);
      uint8_t* out = c.codes_.data();
      const uint64_t base = static_cast<uint64_t>(minv);
      for (size_t i = 0; i < data.size(); ++i, out += fwidth) {
        const uint64_t delta = static_cast<uint64_t>(data[i]) - base;
        const uint32_t d32 = static_cast<uint32_t>(delta);
        std::memcpy(out, &d32, fwidth);  // little-endian prefix
      }
      data.clear();
      data.shrink_to_fit();
      return c;
    }
    c.enc_ = ColEncoding::kPlain;
    data.shrink_to_fit();
    c.values_ = std::move(data);
    return c;
  }

  ColEncoding encoding() const { return enc_; }
  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Random access — O(1) for plain/dict, O(log runs) for RLE. Hot paths
  /// should Decode() ranges instead.
  T At(size_t i) const {
    DWRED_CHECK(i < n_);
    switch (enc_) {
      case ColEncoding::kPlain:
        return values_[i];
      case ColEncoding::kDict:
        return values_[CodeAt(i)];
      case ColEncoding::kRle: {
        const size_t run = static_cast<size_t>(
            std::upper_bound(run_ends_.begin(), run_ends_.end(),
                             static_cast<uint32_t>(i)) -
            run_ends_.begin());
        return values_[run];
      }
      case ColEncoding::kFor:
        return static_cast<T>(static_cast<uint64_t>(values_[0]) + CodeAt(i));
    }
    return T{};
  }

  /// Writes the values of [begin, end) into `out`, bit-identical to the
  /// encoded input. Linear in the range length. This is the scan hot loop —
  /// the dict case is specialized per code width so each variant is a tight
  /// vectorizable gather instead of a per-element variable-width memcpy.
  void Decode(size_t begin, size_t end, T* out) const {
    DWRED_CHECK(begin <= end && end <= n_);
    // An empty range may come with a null `out` (an empty column), and
    // memcpy's pointers must be valid even for zero bytes.
    if (begin == end) return;
    switch (enc_) {
      case ColEncoding::kPlain:
        std::memcpy(out, values_.data() + begin, (end - begin) * sizeof(T));
        return;
      case ColEncoding::kDict: {
        const T* dict = values_.data();
        const size_t n = end - begin;
        switch (code_width_) {
          case 1: {
            const uint8_t* c = codes_.data() + begin;
            for (size_t i = 0; i < n; ++i) out[i] = dict[c[i]];
            return;
          }
          case 2: {
            const uint8_t* c = codes_.data() + begin * 2;
            for (size_t i = 0; i < n; ++i) {
              uint16_t code;
              std::memcpy(&code, c + i * 2, 2);
              out[i] = dict[code];
            }
            return;
          }
          default: {
            const uint8_t* c = codes_.data() + begin * 4;
            for (size_t i = 0; i < n; ++i) {
              uint32_t code;
              std::memcpy(&code, c + i * 4, 4);
              out[i] = dict[code];
            }
            return;
          }
        }
      }
      case ColEncoding::kRle: {
        size_t run = static_cast<size_t>(
            std::upper_bound(run_ends_.begin(), run_ends_.end(),
                             static_cast<uint32_t>(begin)) -
            run_ends_.begin());
        for (size_t i = begin; i < end; ++run) {
          const size_t stop = std::min<size_t>(end, run_ends_[run]);
          std::fill_n(out, stop - i, values_[run]);
          out += stop - i;
          i = stop;
        }
        return;
      }
      case ColEncoding::kFor: {
        const uint64_t base = static_cast<uint64_t>(values_[0]);
        const size_t n = end - begin;
        switch (code_width_) {
          case 1: {
            const uint8_t* c = codes_.data() + begin;
            for (size_t i = 0; i < n; ++i) {
              out[i] = static_cast<T>(base + c[i]);
            }
            return;
          }
          case 2: {
            const uint8_t* c = codes_.data() + begin * 2;
            for (size_t i = 0; i < n; ++i) {
              uint16_t delta;
              std::memcpy(&delta, c + i * 2, 2);
              out[i] = static_cast<T>(base + delta);
            }
            return;
          }
          default: {
            const uint8_t* c = codes_.data() + begin * 4;
            for (size_t i = 0; i < n; ++i) {
              uint32_t delta;
              std::memcpy(&delta, c + i * 4, 4);
              out[i] = static_cast<T>(base + delta);
            }
            return;
          }
        }
      }
    }
  }

  /// The plain data, the dictionary (first-occurrence order), the run values,
  /// or the FOR base, by encoding.
  std::span<const T> values() const { return values_; }

  /// Row i's dictionary code or FOR delta (kDict and kFor only).
  uint32_t code(size_t i) const {
    DWRED_CHECK(i < n_ && !codes_.empty());
    return CodeAt(i);
  }

  /// Zero-copy view when the column kept the plain layout; null otherwise.
  const T* PlainData() const {
    return enc_ == ColEncoding::kPlain ? values_.data() : nullptr;
  }

  /// Encoded payload bytes actually holding data (the resident footprint the
  /// dwred_storage_bytes_columnar gauge reports).
  size_t DataBytes() const {
    return values_.size() * sizeof(T) + codes_.size() +
           run_ends_.size() * sizeof(uint32_t);
  }

  /// Capacity-based footprint for cache/memory budgets (the PR-8 rule:
  /// budgets count capacity, not size).
  size_t ApproxBytes() const {
    return sizeof(EncodedColumn) + values_.capacity() * sizeof(T) +
           codes_.capacity() + run_ends_.capacity() * sizeof(uint32_t);
  }

 private:
  /// A column's distinct values in first-occurrence order, and the map from
  /// a value to its index there: `slot[v - min]` when `direct`, else
  /// `hashed`.
  struct DistinctValues {
    std::vector<T> firsts;
    bool direct = false;
    std::vector<uint32_t> slot;
    std::unordered_map<T, uint32_t> hashed;
  };

  static DistinctValues CountDistinct(const std::vector<T>& data, T minv,
                                      uint64_t range) {
    DistinctValues d;
    const uint64_t n = data.size();
    d.direct = range < kDirectSlotsPerRow * n;
    if (d.direct) {
      constexpr uint32_t kUnseen = UINT32_MAX;
      d.slot.assign(range + 1, kUnseen);
      const uint64_t base = static_cast<uint64_t>(minv);
      for (const T v : data) {
        uint32_t& s = d.slot[static_cast<uint64_t>(v) - base];
        if (s == kUnseen) {
          s = static_cast<uint32_t>(d.firsts.size());
          d.firsts.push_back(v);
        }
      }
      return d;
    }
    d.hashed.reserve(64);
    for (const T v : data) {
      if (d.hashed.emplace(v, static_cast<uint32_t>(d.firsts.size())).second) {
        d.firsts.push_back(v);
      }
    }
    return d;
  }

  uint32_t CodeAt(size_t i) const {
    uint32_t code = 0;
    std::memcpy(&code, codes_.data() + i * code_width_, code_width_);
    return code;
  }

  ColEncoding enc_ = ColEncoding::kPlain;
  uint8_t code_width_ = 0;  ///< dict codes / FOR deltas: bytes each (1/2/4)
  size_t n_ = 0;
  /// plain data | dictionary | run values | {FOR base}
  std::vector<T> values_;
  std::vector<uint8_t> codes_;      ///< dict codes or FOR deltas, LE prefix
  std::vector<uint32_t> run_ends_;  ///< RLE: exclusive end row of each run
};

}  // namespace dwred::storage
