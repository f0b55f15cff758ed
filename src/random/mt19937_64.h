// Mt19937_64: the 64-bit Mersenne Twister (Matsumoto & Nishimura; the
// MT19937-64 parameters of the C++ standard library's mt19937_64) with a
// branch-free twist.
//
// Seeding recurrence, twist and tempering are the standard's, so every
// draw equals the standard library engine's for the same seed;
// random_test pins the two together bit for bit. The one difference is
// how the twist picks its matrix word: libstdc++ writes
// `(y & 1) ? a : 0`, which compiles to a data-dependent jump taken half
// the time, while this engine masks the word with `0 - (y & 1)`. The
// twist loop is plain 64-bit integer code and needs no target-specific
// compiler flag.

#ifndef SOLDIST_RANDOM_MT19937_64_H_
#define SOLDIST_RANDOM_MT19937_64_H_

#include <cstddef>
#include <cstdint>

namespace soldist {

/// \brief MT19937-64 engine; a UniformRandomBitGenerator whose output
/// sequence equals the standard library's mt19937_64.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      const std::uint64_t prev = state_[i - 1];
      state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kN) Twist();
    std::uint64_t z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  /// Advances the engine by `count` draws without computing them: whole
  /// untempered twists, then a move of the read position — as the
  /// standard library's discard does, so the next draw is the one
  /// `count` calls to operator() would have reached.
  void Discard(std::uint64_t count) {
    while (count > kN - pos_) {
      count -= kN - pos_;
      Twist();
    }
    pos_ += static_cast<std::size_t>(count);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLowerMask = ~kUpperMask;
  static constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

  /// One recurrence step: the next value of word k from words k and k+1
  /// and `far`, the word kM places further on in the sequence.
  static std::uint64_t Step(std::uint64_t word, std::uint64_t next,
                            std::uint64_t far) {
    const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ (kMatrix & (0 - (y & 1)));
  }

  /// Regenerates all kN words in place. The split into three loops keeps
  /// every index in range without a modulo.
  void Twist() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) {
      state_[k] = Step(state_[k], state_[k + 1], state_[k + kM]);
    }
    for (; k < kN - 1; ++k) {
      state_[k] = Step(state_[k], state_[k + 1], state_[k + kM - kN]);
    }
    state_[kN - 1] = Step(state_[kN - 1], state_[0], state_[kM - 1]);
    pos_ = 0;
  }

  std::uint64_t state_[kN];
  std::size_t pos_ = kN;  // kN: the first draw twists
};

}  // namespace soldist

#endif  // SOLDIST_RANDOM_MT19937_64_H_
