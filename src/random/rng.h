// Rng: the PRNG facade used throughout the library.
//
// The paper (Section 4.1) draws all randomness from the Mersenne Twister
// and initializes a fresh state per algorithm run; Rng reproduces that:
// one Rng per trial, seeded via DeriveSeed(master, trial). RIS uses two
// logical streams (vertex choice, edge coins), realized as two Rng
// instances with distinct derived seeds.
//
// The generator is still the paper's MT19937-64. It runs on an in-tree
// engine (random/mt19937_64.h) whose twist is written branch-free, and
// random_test pins its draws, the operations below and std::shuffle over
// engine() bit for bit to the standard library's mt19937_64.
//
// Parallel sampling keeps the same discipline one level down: the
// SamplingEngine (sim/sampling_engine.h) gives chunk c of a build its own
// stream family rooted at DeriveSeed(master, c), so results never depend
// on the thread schedule.

#ifndef SOLDIST_RANDOM_RNG_H_
#define SOLDIST_RANDOM_RNG_H_

#include <cstdint>

#include "random/mt19937_64.h"
#include "util/logging.h"

namespace soldist {

/// \brief Mersenne-Twister-backed random source with the operations the
/// samplers need: unit reals, bounded ints, Bernoulli coins.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Next 64 random bits.
  std::uint64_t NextBits() { return engine_(); }

  /// Uniform real in [0, 1) with 53-bit resolution.
  double UnitReal() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound); bound must be positive.
  /// Lemire's multiply-with-rejection: unbiased and division-free on the
  /// hot path.
  std::uint64_t UniformInt(std::uint64_t bound) {
    SOLDIST_DCHECK(bound > 0);
    unsigned __int128 m =
        static_cast<unsigned __int128>(engine_()) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      std::uint64_t threshold = (-bound) % bound;
      while (low < threshold) {
        m = static_cast<unsigned __int128>(engine_()) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Coin flip: true with probability p. Matches the paper's convention
  /// "generate random x in [0,1] ... alive if x < p(e)".
  bool Bernoulli(double p) { return UnitReal() < p; }

  /// Skips the next `count` engine words (Mt19937_64::Discard): a sampler
  /// that draws a fixed number of words per sample can enter its stream
  /// at any sample index.
  void Discard(std::uint64_t count) { engine_.Discard(count); }

  /// Underlying engine, for std::shuffle and std:: distributions.
  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace soldist

#endif  // SOLDIST_RANDOM_RNG_H_
