// Byte string with inline storage for short contents: up to kInline bytes
// live inside the object, longer contents spill to one heap block. PacketBB
// address-TLV values are 1-4 bytes (hop counts, link codes, sequence
// numbers), so a message carrying dozens of them copies, parses and forwards
// without a heap allocation per TLV.
//
// Keeps the std::vector<std::uint8_t> surface its users need: size/data,
// mutable iteration, resize, assign, construction from a braced list or a
// std::vector, and value equality.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <vector>

namespace mk {

class SmallBytes {
 public:
  static constexpr std::size_t kInline = 8;

  using value_type = std::uint8_t;
  using size_type = std::size_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  SmallBytes() = default;
  SmallBytes(std::initializer_list<std::uint8_t> bytes) {
    assign(bytes.begin(), bytes.end());
  }
  SmallBytes(const std::vector<std::uint8_t>& bytes) {  // NOLINT: implicit
    assign(bytes.begin(), bytes.end());
  }
  SmallBytes(const SmallBytes& o) { assign(o.begin(), o.end()); }
  SmallBytes(SmallBytes&& o) noexcept { steal(o); }
  SmallBytes& operator=(const SmallBytes& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  SmallBytes& operator=(SmallBytes&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~SmallBytes() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::uint8_t* data() { return on_heap() ? heap_ : inline_; }
  const std::uint8_t* data() const { return on_heap() ? heap_ : inline_; }
  std::uint8_t* begin() { return data(); }
  std::uint8_t* end() { return data() + size_; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size_; }
  std::uint8_t& operator[](std::size_t i) { return data()[i]; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }

  /// New bytes read as zero, like std::vector::resize.
  void resize(std::size_t n) {
    reserve(n);
    if (n > size_) std::memset(data() + size_, 0, n - size_);
    size_ = static_cast<std::uint32_t>(n);
  }

  void assign(std::size_t n, std::uint8_t v) {
    size_ = 0;
    reserve(n);
    std::memset(data(), v, n);
    size_ = static_cast<std::uint32_t>(n);
  }

  template <class It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    size_ = 0;
    reserve(n);
    std::copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }

  friend bool operator==(const SmallBytes& a, const SmallBytes& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  bool on_heap() const { return cap_ > kInline; }

  /// Grows the storage to hold `n` bytes, keeping the current contents.
  void reserve(std::size_t n) {
    if (n <= cap_) return;
    auto* grown = new std::uint8_t[n];
    if (size_ > 0) std::memcpy(grown, data(), size_);
    release();
    heap_ = grown;
    cap_ = static_cast<std::uint32_t>(n);
  }

  void release() {
    if (on_heap()) delete[] heap_;
    cap_ = kInline;
  }

  /// Takes `o`'s contents (its heap block, if any); leaves `o` empty inline.
  void steal(SmallBytes& o) {
    size_ = o.size_;
    cap_ = o.cap_;
    if (o.on_heap()) {
      heap_ = o.heap_;
    } else {
      std::memcpy(inline_, o.inline_, o.size_);
    }
    o.size_ = 0;
    o.cap_ = kInline;
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
  union {
    std::uint8_t inline_[kInline];
    std::uint8_t* heap_;
  };
};

}  // namespace mk
