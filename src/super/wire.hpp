// Minimal little-endian binary encoding for checkpoint payloads.
//
// Checkpoint records must round-trip results *exactly* (a resumed campaign
// has to be byte-identical to an uninterrupted one), so every field is a
// fixed-width integer or a bit-cast double — no text formatting, no
// locale, no precision loss. Reader is bounds-checked and never throws:
// a truncated or corrupt payload flips ok() to false and every further
// read returns zero, so decoders can parse first and validate once.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "flat/flat.hpp"

namespace cgn::super::wire {

/// Appends fixed-width little-endian fields to a byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v) { put_int(v); }
  void u32(std::uint32_t v) { put_int(v); }
  void u64(std::uint64_t v) { put_int(v); }
  void f64(double v) { put_int(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed byte string (u32 length + raw bytes).
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void raw(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  template <typename T>
  void put_int(T v) {
    char out[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i)
      out[i] = static_cast<char>(v >> (8 * i));
    raw(out, sizeof(T));
  }

  std::string buf_;
};

/// Bounds-checked reader over a byte buffer written by Writer.
class Reader {
 public:
  explicit Reader(std::string_view buf) : buf_(buf) {}

  [[nodiscard]] std::uint8_t u8() { return get_int<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return get_int<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get_int<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get_int<std::uint64_t>(); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] std::string_view str() {
    const std::uint32_t n = u32();
    return raw(n);
  }
  [[nodiscard]] std::string_view raw(std::size_t n) {
    if (!ok_ || buf_.size() - pos_ < n) {
      ok_ = false;
      return {};
    }
    std::string_view out = buf_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  /// False once any read ran past the end of the buffer.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True when every byte has been consumed (and no read overran).
  [[nodiscard]] bool done() const noexcept { return ok_ && pos_ == buf_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return ok_ ? buf_.size() - pos_ : 0;
  }

 private:
  template <typename T>
  [[nodiscard]] T get_int() {
    std::string_view b = raw(sizeof(T));
    if (b.size() != sizeof(T)) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (T{static_cast<std::uint8_t>(b[i])} << (8 * i)));
    return v;
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// FNV-1a over a byte string — the per-record checkpoint checksum.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s) noexcept {
  return flat::fnv1a_bytes(s.data(), s.size(),
                           flat::kFnvRecordedOffset);
}

}  // namespace cgn::super::wire
