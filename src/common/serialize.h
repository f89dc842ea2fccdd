// Minimal binary codec used for every simulated network message.
//
// Fixed-width little-endian encoding keeps message sizes exact and easy to
// reason about: the metadata-size experiments (Fig. 5 and Fig. 7 of the
// paper) report the byte counts produced by this codec.  It plays the role
// protocol buffers play in the authors' prototype.
//
// Each wire struct declares its layout once, as a field list in wire
// order:
//
//   struct BackfillReq {
//     Timestamp safe;
//     std::vector<MigratedChain> chains;
//     uint32_t epoch = 0;  // newer senders only
//
//     template <class Self, class F>
//     static void fields(Self& s, F&& f) {
//       f(s.safe, s.chains);
//       f.trailing(s.epoch);
//     }
//   };
//
// Three visitors walk that list: BufWriter encodes, CountingWriter tallies
// the exact wire size without allocating (encode_message reserves it up
// front), and BufReader decodes.  Field encodings:
//
//   * integers, floats and enums at their declared width; bool as one byte;
//     Timestamp as its raw u64.  A wire enum declares its largest value
//     with an ADL-visible `wire_max(E)`; the reader rejects larger ones.
//   * Value, std::string, Buffer, Payload: u32 length + bytes.  A Payload
//     read through a shared-ownership reader aliases the message buffer.
//   * std::vector<T>: u32 count + elements; std::map<K, V>: u32 count +
//     (key, value) pairs; f.zipped(a, b): one count, then a[i], b[i].
//   * nested field-listed structs inline; types with a hand-written codec
//     (`encode(W&)` + `static T decode(BufReader&)`, e.g. cache::DepMap)
//     as leaves.
//   * f.trailing(x): written only when x differs from its default, read
//     only when bytes remain, so nothing may follow it.
//
// Conditional fields are a plain `if` on a field visited earlier (the
// reader has already filled it in).  A struct may add `void validate()
// const`; the reader runs it after the fields and it throws CodecError on
// a value the layout alone cannot rule out.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/hlc.h"
#include "common/types.h"

namespace faastcc {

using Buffer = std::vector<uint8_t>;

class BufferPool;

// A nested byte blob inside a wire message (a context or session handed
// from function to function).  Either owns its bytes, or aliases a slice
// of a shared message buffer — so decoding a trigger does not copy the
// (potentially large) context out of the message, and decoding the context
// in turn can alias its records straight out of the same allocation.
class Payload {
 public:
  Payload() = default;
  // Owning payload around freshly encoded bytes (implicit: every Buffer
  // producer keeps working unchanged).  Empty buffers stay allocation-free.
  Payload(Buffer b) {
    if (b.empty()) return;
    auto sp = std::make_shared<const Buffer>(std::move(b));
    data_ = sp->data();
    size_ = sp->size();
    owner_ = std::move(sp);
  }
  // Aliasing payload: a slice of `owner`, kept alive by the shared count.
  Payload(std::shared_ptr<const Buffer> owner, const uint8_t* data,
          size_t size)
      : owner_(std::move(owner)), data_(data), size_(size) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::shared_ptr<const Buffer>& owner() const { return owner_; }

  // Detached copy of the bytes (tests, diagnostics).
  Buffer bytes() const { return Buffer(data_, data_ + size_); }

 private:
  std::shared_ptr<const Buffer> owner_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace codec {

// Stand-in visitor for the FieldListed check below.
struct AnyVisitor {};

template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

template <class T>
inline constexpr bool kIsMap = false;
template <class K, class V, class C, class A>
inline constexpr bool kIsMap<std::map<K, V, C, A>> = true;

// Elements a vector ships as one block copy.
template <class T>
inline constexpr bool kIsPlainScalar =
    std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

template <class T>
inline constexpr bool kIsBytes = std::is_same_v<T, Value> ||
                                 std::is_same_v<T, std::string> ||
                                 std::is_same_v<T, Payload>;

}  // namespace codec

// A struct with a `fields` list (only the declaration is checked).
template <class T>
concept FieldListed = requires(T& t, codec::AnyVisitor& v) {
  T::fields(t, v);
};

// Encoding half shared by BufWriter and CountingWriter: both walk field
// lists the same way and differ only in what `put_span` does with bytes.
template <class Derived>
class FieldWriter {
 public:
  template <class... Ts>
  void operator()(const Ts&... xs) {
    (write(xs), ...);
  }

  template <class T>
  void trailing(const T& x) {
    if (!(x == T{})) write(x);
  }

  template <class A, class B>
  void zipped(const std::vector<A>& a, const std::vector<B>& b) {
    write(static_cast<uint32_t>(a.size()));
    for (size_t i = 0; i < a.size(); ++i) {
      write(a[i]);
      write(b[i]);
    }
  }

  void put_u8(uint8_t v) { write(v); }
  void put_u16(uint16_t v) { write(v); }
  void put_u32(uint32_t v) { write(v); }
  void put_u64(uint64_t v) { write(v); }
  void put_i64(int64_t v) { write(v); }
  void put_f64(double v) { write(v); }
  void put_bool(bool v) { write(v); }
  void put_bytes(std::string_view s) { put_blob(s.data(), s.size()); }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  void put_blob(const void* p, size_t n) {
    write(static_cast<uint32_t>(n));
    self().put_span(p, n);
  }

  template <class T>
  void write(const T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      const uint8_t b = x ? 1 : 0;
      self().put_span(&b, 1);
    } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      self().put_span(&x, sizeof(T));
    } else if constexpr (std::is_same_v<T, Timestamp>) {
      write(x.raw());
    } else if constexpr (codec::kIsBytes<T>) {
      put_blob(x.data(), x.size());
    } else if constexpr (codec::kIsVector<T>) {
      using E = typename T::value_type;
      write(static_cast<uint32_t>(x.size()));
      if constexpr (codec::kIsPlainScalar<E>) {
        self().put_span(x.data(), x.size() * sizeof(E));
      } else {
        for (const auto& e : x) write(static_cast<const E&>(e));
      }
    } else if constexpr (codec::kIsMap<T>) {
      write(static_cast<uint32_t>(x.size()));
      for (const auto& [k, v] : x) {
        write(k);
        write(v);
      }
    } else if constexpr (FieldListed<T>) {
      T::fields(x, self());
    } else {
      x.encode(self());
    }
  }
};

class BufWriter : public FieldWriter<BufWriter> {
 public:
  BufWriter() = default;
  // Writes into a recycled buffer (capacity retained) so repeated encodes
  // through a BufferPool stop hitting the allocator.
  explicit BufWriter(Buffer recycled) : buf_(std::move(recycled)) {
    buf_.clear();
  }

  // The buffer is sized ahead of the bytes written (`len_` marks the end
  // of the message), so a put is a bounds check and a memcpy.
  void reserve(size_t n) {
    if (buf_.size() < n) buf_.resize(n);
  }

  // Bulk append of raw bytes (no length prefix).
  void put_span(const void* p, size_t n) {
    if (n != 0) std::memcpy(extend(n), p, n);
  }

  // Appends `n` bytes and returns a pointer to them, so a fixed-width
  // record loop can store fields directly.  The pointer is valid until
  // the next mutating call.
  uint8_t* extend(size_t n) {
    if (buf_.size() - len_ < n) buf_.resize(std::max(len_ + n, 2 * len_));
    uint8_t* p = buf_.data() + len_;
    len_ += n;
    return p;
  }

  size_t size() const { return len_; }
  Buffer take() {
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
  }

 private:
  Buffer buf_;
  size_t len_ = 0;
};

// Writer that only tallies bytes — no buffer, no heap allocation.  Walking
// a message's field list with one yields the exact wire size; the codec
// fields are fixed-width, so counting is pure arithmetic.
class CountingWriter : public FieldWriter<CountingWriter> {
 public:
  void put_span(const void*, size_t n) { size_ += n; }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

class BufReader {
 public:
  explicit BufReader(const Buffer& b) : data_(b.data()), size_(b.size()) {}
  BufReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  // Shared-ownership reader: decode paths that can represent their result
  // as a view of the wire bytes (Payload, DepMap) alias the buffer through
  // `owner()` instead of copying, keeping it alive past the decode.
  explicit BufReader(std::shared_ptr<const Buffer> owner)
      : data_(owner->data()), size_(owner->size()), owner_(std::move(owner)) {}
  // Shared-ownership reader over a slice of `owner` (a nested payload).
  BufReader(const uint8_t* data, size_t size,
            std::shared_ptr<const Buffer> owner)
      : data_(data), size_(size), owner_(std::move(owner)) {}

  const std::shared_ptr<const Buffer>& owner() const { return owner_; }

  template <class... Ts>
  void operator()(Ts&... xs) {
    (read(xs), ...);
  }

  template <class T>
  void trailing(T& x) {
    if (remaining() > 0) read(x);
  }

  template <class A, class B>
  void zipped(std::vector<A>& a, std::vector<B>& b) {
    const uint32_t n = get_count();
    a.resize(n);
    b.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      read(a[i]);
      read(b[i]);
    }
  }

  template <class T>
  T get() {
    T x{};
    read(x);
    return x;
  }
  uint8_t get_u8() { return get<uint8_t>(); }
  uint16_t get_u16() { return get<uint16_t>(); }
  uint32_t get_u32() { return get<uint32_t>(); }
  uint64_t get_u64() { return get<uint64_t>(); }
  int64_t get_i64() { return get<int64_t>(); }
  double get_f64() { return get<double>(); }
  bool get_bool() { return get<bool>(); }
  std::string get_bytes() { return std::string(get_bytes_view()); }

  // Zero-copy view into the underlying buffer; valid only while the buffer
  // lives.
  std::string_view get_bytes_view() {
    const uint32_t n = get<uint32_t>();
    return std::string_view(reinterpret_cast<const char*>(get_span(n)), n);
  }

  // Bounds-checked view of the next `n` raw bytes; advances past them.
  // Valid only while the underlying buffer lives.
  const uint8_t* get_span(size_t n) {
    if (size_ - pos_ < n) throw CodecError("buffer underflow");
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

  // Element count of a vector, map or other array.  Every element encodes
  // to at least one byte, so a count beyond the bytes left is malformed;
  // rejecting it before sizing the container keeps a corrupt prefix from
  // allocating gigabytes.
  uint32_t get_count() {
    const uint32_t n = get<uint32_t>();
    if (n > remaining()) throw CodecError("element count exceeds message");
    return n;
  }

 private:
  template <class T>
  void read(T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      x = get<uint8_t>() != 0;
    } else if constexpr (std::is_enum_v<T>) {
      using U = std::underlying_type_t<T>;
      const U v = get<U>();
      if (v > static_cast<U>(wire_max(T{}))) {
        throw CodecError("enum value out of range");
      }
      x = static_cast<T>(v);
    } else if constexpr (std::is_arithmetic_v<T>) {
      std::memcpy(&x, get_span(sizeof(T)), sizeof(T));
    } else if constexpr (std::is_same_v<T, Timestamp>) {
      x = Timestamp(get<uint64_t>());
    } else if constexpr (std::is_same_v<T, Payload>) {
      const std::string_view s = get_bytes_view();
      const auto* p = reinterpret_cast<const uint8_t*>(s.data());
      x = owner_ ? Payload(owner_, p, s.size())
                 : Payload(Buffer(p, p + s.size()));
    } else if constexpr (std::is_same_v<T, std::string>) {
      x.assign(get_bytes_view());
    } else if constexpr (std::is_same_v<T, Value>) {
      x = Value(get_bytes_view());
    } else if constexpr (codec::kIsVector<T>) {
      using E = typename T::value_type;
      const uint32_t n = get_count();
      x.clear();
      if constexpr (codec::kIsPlainScalar<E>) {
        const uint8_t* p = get_span(size_t{n} * sizeof(E));
        if constexpr (sizeof(E) == 1) {
          x.assign(p, p + n);  // Buffer: copies without zero-filling first
        } else {
          x.resize(n);
          if (n != 0) std::memcpy(x.data(), p, size_t{n} * sizeof(E));
        }
      } else if constexpr (std::is_same_v<E, bool>) {
        x.reserve(n);
        for (uint32_t i = 0; i < n; ++i) x.push_back(get<bool>());
      } else {
        x.resize(n);
        for (E& e : x) read(e);
      }
    } else if constexpr (codec::kIsMap<T>) {
      const uint32_t n = get_count();
      x.clear();
      for (uint32_t i = 0; i < n; ++i) {
        auto k = get<typename T::key_type>();
        x.insert_or_assign(x.end(), std::move(k),
                           get<typename T::mapped_type>());
      }
    } else if constexpr (FieldListed<T>) {
      T::fields(x, *this);
      if constexpr (requires { x.validate(); }) x.validate();
    } else {
      x = T::decode(*this);
    }
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  std::shared_ptr<const Buffer> owner_;
};

// Size in bytes a message would occupy on the wire.  Walks the message
// with a CountingWriter: exact, and allocation-free.
template <typename M>
size_t encoded_size(const M& m) {
  CountingWriter w;
  w(m);
  return w.size();
}

// Reserve hint for encoding `m`: the exact counted size.
template <typename M>
size_t wire_size_hint(const M& m) {
  return encoded_size(m);
}

// Encodes a message struct into a fresh buffer.
template <typename M>
Buffer encode_message(const M& m) {
  BufWriter w;
  w.reserve(wire_size_hint(m));
  w(m);
  return w.take();
}

// Decodes a message struct from the bytes of `b`.
template <typename M>
M decode_message(const Buffer& b) {
  BufReader r(b);
  return r.get<M>();
}

// Shared-ownership variant: view-capable fields of the decoded message
// alias `b` instead of copying out of it (the buffer stays alive as long
// as any such view does).
template <typename M>
M decode_message(std::shared_ptr<const Buffer> b) {
  BufReader r(std::move(b));
  return r.get<M>();
}

// Decodes a nested payload.  When the payload aliases a shared message
// buffer, view-capable fields of the result alias it too.
template <typename M>
M decode_message(const Payload& p) {
  BufReader r(p.data(), p.size(), p.owner());
  return r.get<M>();
}

// Free list of message buffers.  Encoding acquires a buffer whose capacity
// survived its previous trip through the network, so steady-state message
// traffic allocates nothing; consumers hand exhausted payloads back via
// release().  Purely a memory-reuse layer: acquire/release order has no
// observable effect on the simulation schedule.
class BufferPool {
 public:
  explicit BufferPool(size_t max_free = 4096) : max_free_(max_free) {}

  Buffer acquire() {
    if (free_.empty()) {
      ++misses_;
      return Buffer();
    }
    ++hits_;
    Buffer b = std::move(free_.back());
    free_.pop_back();
    b.clear();
    return b;
  }

  void release(Buffer&& b) {
    if (b.capacity() == 0 || free_.size() >= max_free_) return;
    free_.push_back(std::move(b));
  }

  size_t free_count() const { return free_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  std::vector<Buffer> free_;
  size_t max_free_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Pooled encode: recycled buffer + exact reserve.
template <typename M>
Buffer encode_message(const M& m, BufferPool& pool) {
  BufWriter w(pool.acquire());
  w.reserve(wire_size_hint(m));
  w(m);
  return w.take();
}

}  // namespace faastcc
