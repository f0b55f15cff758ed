#include "util/checksum.h"

#include <bit>
#include <cstring>

namespace soldist {
namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t Load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t Round(std::uint64_t lane, std::uint64_t word) {
  lane += word * kPrime2;
  lane = std::rotl(lane, 31);
  return lane * kPrime1;
}

std::uint64_t MergeLane(std::uint64_t hash, std::uint64_t lane) {
  hash ^= Round(0, lane);
  return hash * kPrime1 + kPrime4;
}

}  // namespace

Checksum64::Checksum64()
    : lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1} {}

const unsigned char* Checksum64::Stripes(const unsigned char* p,
                                         const unsigned char* end) {
  std::uint64_t v0 = lanes_[0], v1 = lanes_[1], v2 = lanes_[2],
                v3 = lanes_[3];
  while (static_cast<std::size_t>(end - p) >= kStripeBytes) {
    v0 = Round(v0, Load64(p));
    v1 = Round(v1, Load64(p + 8));
    v2 = Round(v2, Load64(p + 16));
    v3 = Round(v3, Load64(p + 24));
    p += kStripeBytes;
  }
  lanes_[0] = v0;
  lanes_[1] = v1;
  lanes_[2] = v2;
  lanes_[3] = v3;
  return p;
}

void Checksum64::Update(const void* data, std::size_t size) {
  if (size == 0) return;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + size;
  total_ += size;
  if (buffered_ + size < kStripeBytes) {
    std::memcpy(stripe_ + buffered_, p, size);
    buffered_ += size;
    return;
  }
  if (buffered_ > 0) {
    const std::size_t fill = kStripeBytes - buffered_;
    std::memcpy(stripe_ + buffered_, p, fill);
    Stripes(stripe_, stripe_ + kStripeBytes);
    p += fill;
  }
  p = Stripes(p, end);
  buffered_ = static_cast<std::size_t>(end - p);
  if (buffered_ > 0) std::memcpy(stripe_, p, buffered_);
}

std::uint64_t Checksum64::Digest() const {
  std::uint64_t hash;
  if (total_ >= kStripeBytes) {
    hash = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
           std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    for (std::uint64_t lane : lanes_) hash = MergeLane(hash, lane);
  } else {
    hash = kPrime5;
  }
  hash += total_;
  const unsigned char* p = stripe_;
  std::size_t left = buffered_;
  for (; left >= 8; p += 8, left -= 8) {
    hash ^= Round(0, Load64(p));
    hash = std::rotl(hash, 27) * kPrime1 + kPrime4;
  }
  if (left >= 4) {
    hash ^= static_cast<std::uint64_t>(Load32(p)) * kPrime1;
    hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) {
    hash ^= *p * kPrime5;
    hash = std::rotl(hash, 11) * kPrime1;
  }
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace soldist
