// The arena checksum: a streaming 64-bit hash that runs at memory speed.
//
// Input is consumed in 32-byte stripes, each feeding four independent
// multiply-rotate lanes, so four multiplies are in flight instead of one
// serial multiply per byte. Digest() folds the lanes, mixes in the total
// length and the unstriped tail, and avalanches the result. The round
// structure and constants are xxHash64's (XXH64 with seed 0). Words are
// read in host byte order, like the arena payloads it guards.
//
// It is the only hash behind arena integrity: the payload checksum of
// store/arena_io (save, load, VerifyArena) and WorldArena::ContentChecksum
// (cache admission and the scrubber's resident pass).

#ifndef SOLDIST_UTIL_CHECKSUM_H_
#define SOLDIST_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace soldist {

/// \brief Streaming checksum: any split of the same bytes into Update
/// calls gives the same Digest() as one call over all of them.
class Checksum64 {
 public:
  Checksum64();

  void Update(const void* data, std::size_t size);

  /// Digest of every byte passed to Update so far (the state is kept,
  /// so more bytes may follow).
  std::uint64_t Digest() const;

  /// One-shot digest of `size` bytes.
  static std::uint64_t Of(const void* data, std::size_t size) {
    Checksum64 sum;
    sum.Update(data, size);
    return sum.Digest();
  }

 private:
  static constexpr std::size_t kStripeBytes = 32;

  /// Runs the lanes over the whole stripes of [p, end); returns the
  /// first byte not consumed.
  const unsigned char* Stripes(const unsigned char* p,
                               const unsigned char* end);

  std::uint64_t lanes_[4];
  std::uint64_t total_ = 0;
  unsigned char stripe_[kStripeBytes];  // partial stripe carried over
  std::size_t buffered_ = 0;
};

}  // namespace soldist

#endif  // SOLDIST_UTIL_CHECKSUM_H_
