// Bulk little-endian word codecs behind WireWriter's and WireReader's array
// methods (FloatArray, U32Array, U32PairArray).  Internal to the service
// library; the tests include it to run the byte-loop form on any host.
//
// Every array goes on the wire as consecutive little-endian 4-byte words.
// With kMemcpy set — the form little-endian hosts use — words are copied
// as native bytes; otherwise each word is written or read a byte at a
// time, which is correct on any host.  Both forms produce the same bytes.

#ifndef SIMJOIN_SERVICE_WIRE_WORDS_H_
#define SIMJOIN_SERVICE_WIRE_WORDS_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "common/pair_sink.h"

namespace simjoin {
namespace wire_words {

/// The form WireWriter and WireReader use on this host.
inline constexpr bool kNativeMemcpy =
    std::endian::native == std::endian::little;

template <bool kMemcpy>
inline void PutWord(uint32_t v, uint8_t* out) {
  if constexpr (kMemcpy) {
    std::memcpy(out, &v, 4);
  } else {
    for (int b = 0; b < 4; ++b) out[b] = static_cast<uint8_t>(v >> (8 * b));
  }
}

template <bool kMemcpy>
inline uint32_t GetWord(const uint8_t* in) {
  uint32_t v = 0;
  if constexpr (kMemcpy) {
    std::memcpy(&v, in, 4);
  } else {
    for (int b = 0; b < 4; ++b) v |= static_cast<uint32_t>(in[b]) << (8 * b);
  }
  return v;
}

/// Writes values.size() words at out (4 bytes each).  T is any 4-byte
/// trivially copyable type: u32 ids, or floats as their bit patterns.
template <bool kMemcpy, typename T>
void PutWords(std::span<const T> values, uint8_t* out) {
  static_assert(sizeof(T) == 4 && std::is_trivially_copyable_v<T>);
  if constexpr (kMemcpy) {
    if (!values.empty()) std::memcpy(out, values.data(), values.size() * 4);
  } else {
    for (const T v : values) {
      PutWord<false>(std::bit_cast<uint32_t>(v), out);
      out += 4;
    }
  }
}

/// Reads out.size() words from in.
template <bool kMemcpy, typename T>
void GetWords(const uint8_t* in, std::span<T> out) {
  static_assert(sizeof(T) == 4 && std::is_trivially_copyable_v<T>);
  if constexpr (kMemcpy) {
    if (!out.empty()) std::memcpy(out.data(), in, out.size() * 4);
  } else {
    for (T& v : out) {
      v = std::bit_cast<T>(GetWord<false>(in));
      in += 4;
    }
  }
}

/// Writes each pair as two words, first then second (8 bytes a pair).
/// Pairs are copied member by member, so nothing depends on how std::pair
/// lays out its members; the compiler vectorizes the loop.
template <bool kMemcpy>
void PutIdPairs(std::span<const IdPair> pairs, uint8_t* out) {
  for (const IdPair& p : pairs) {
    PutWord<kMemcpy>(p.first, out);
    PutWord<kMemcpy>(p.second, out + 4);
    out += 8;
  }
}

/// Reads out.size() pairs written by PutIdPairs.
template <bool kMemcpy>
void GetIdPairs(const uint8_t* in, std::span<IdPair> out) {
  for (IdPair& p : out) {
    p.first = GetWord<kMemcpy>(in);
    p.second = GetWord<kMemcpy>(in + 4);
    in += 8;
  }
}

}  // namespace wire_words
}  // namespace simjoin

#endif  // SIMJOIN_SERVICE_WIRE_WORDS_H_
